"""Size bounds: the unit residues of a rational conductor and the level
of the cotangent computation (10^6 each), the elements of a ray class
monoid (10^4), the Chebyshev degree (4096), and the periodic Witt
lattice's variable count and congruence sweep (2048 each).

LAMBDA_FORGE_BOUND in the environment overrides every default (a single
global scale is enough at desk scale).  It must be an integer >= 1;
anything else is an InputError.
"""

import os

from .errors import InputError


def _env_bound() -> int | None:
    raw = os.environ.get("LAMBDA_FORGE_BOUND")
    if raw is None:
        return None
    try:
        bound = int(raw)
    except ValueError:
        bound = 0  # rejected below, with the values under 1
    if bound < 1:
        raise InputError(f"LAMBDA_FORGE_BOUND must be an integer >= 1, got {raw!r}")
    return bound


def residue_bound() -> int:
    return _env_bound() or 10**6


def monoid_bound() -> int:
    return _env_bound() or 10**4


def degree_bound() -> int:
    return _env_bound() or 4096


def lattice_bound() -> int:
    return _env_bound() or 2048
