"""Shared test oracles, handed to the tests as fixtures."""

from math import gcd

import pytest

from lambda_forge.intlinalg import xgcd


def _smith_reference(rows: list[list[int]], ncols: int) -> list[int]:
    """Reference Smith invariants by direct elimination, independent of the
    Hermite fold: pivot search, then xgcd clearing of the pivot's column
    and row until both are zero."""
    work = [r[:] for r in rows]
    m = len(work)
    n = ncols
    invs: list[int] = []
    top = 0
    leftcol = 0
    while top < m and leftcol < n:
        # find a nonzero entry
        found = None
        for i in range(top, m):
            for j in range(leftcol, n):
                if work[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i0, j0 = found
        work[top], work[i0] = work[i0], work[top]
        for r in work:
            r[leftcol], r[j0] = r[j0], r[leftcol]
        while True:
            # clear column
            again = False
            for i in range(top + 1, m):
                a, c = work[top][leftcol], work[i][leftcol]
                if c == 0:
                    continue
                if c % a == 0:
                    q = c // a
                    for k in range(leftcol, n):
                        work[i][k] -= q * work[top][k]
                else:
                    x, y, g = xgcd(a, c)
                    rt = [x * work[top][k] + y * work[i][k] for k in range(n)]
                    ri = [-(c // g) * work[top][k] + (a // g) * work[i][k] for k in range(n)]
                    work[top][leftcol:] = rt[leftcol:]
                    work[i][leftcol:] = ri[leftcol:]
            # clear row
            for j in range(leftcol + 1, n):
                a, c = work[top][leftcol], work[top][j]
                if c == 0:
                    continue
                if c % a == 0:
                    q = c // a
                    for r in work:
                        r[j] -= q * r[leftcol]
                else:
                    x, y, g = xgcd(a, c)
                    for r in work:
                        r[leftcol], r[j] = x * r[leftcol] + y * r[j], -(c // g) * r[leftcol] + (a // g) * r[j]
                    again = True
            if not again and all(work[i][leftcol] == 0 for i in range(top + 1, m)):
                break
        invs.append(abs(work[top][leftcol]))
        top += 1
        leftcol += 1
    # enforce divisibility chain
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            a, b = invs[i], invs[j]
            g = gcd(a, b)
            invs[i], invs[j] = g, a // g * b if g else 0
    invs.sort(key=lambda d: (d == 0, d))
    return invs + [0] * (ncols - len(invs))


@pytest.fixture(scope="session")
def smith_reference():
    """The direct Smith elimination: the oracle for kernel saturation and
    for the cotangent quotient."""
    return _smith_reference
