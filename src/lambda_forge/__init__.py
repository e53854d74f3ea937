"""Exact arithmetic for ray class monoids, integral model decisions,
Chebyshev/toric periodic loci, and periodic big Witt vectors.

All computations are over arbitrary-precision integers; nothing here uses
floating point.  The subpackages:

- ``intlinalg``: factorization, primality, integer matrices, Hermite
  normal forms, lattice indices, integer kernels.
- ``quadfield``: imaginary quadratic orders, ideals, class groups.
- ``rayclass``: cycles, f-equivalence, ray class groups and the ray class
  monoid with its change-of-conductor maps.
- ``modelcheck``: decision procedures for integral models of finite sets
  with commuting prime actions and abelian Galois data.
- ``lambdapoly``: the toric and Chebyshev polynomial families and their
  periodic/torsion loci, and the cotangent space of the cyclic group ring
  along its augmentation (I/I^2 certified cyclic of order a on x - 1).
- ``witt``: big Witt vectors, ghost transforms, Dwork integrality tests,
  and periodic Witt lattices.
- ``cli``: the batch command-line front end.
"""

from .errors import (
    BoundExceededError,
    DensityRequiredError,
    InputError,
    ModelRefusedError,
)

__all__ = [
    "BoundExceededError",
    "DensityRequiredError",
    "InputError",
    "ModelRefusedError",
]

__version__ = "0.1.0"
