"""Test-side matrix algebra for linear derivations, independent of polylie's.

A matrix is a tuple of rows; row i of a linear derivation D holds the
coefficients of D(x_i), the convention of `Derivation.as_linear`.
"""

from polylie.derivation import Derivation
from polylie.polyring import Polynomial


def from_rows(rows):
    """The linear derivation with D(x_i) = sum_j rows[i][j] x_j."""
    n = len(rows)
    xs = [Polynomial.variable(n, j) for j in range(1, n + 1)]
    coeffs = [sum((c * x for c, x in zip(row, xs)), Polynomial.zero(n)) for row in rows]
    return Derivation(n, coeffs)


def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def power(a, k):
    """a^k for k >= 1."""
    out = a
    for _ in range(k - 1):
        out = matmul(out, a)
    return out


def is_zero(a):
    return all(c == 0 for row in a for c in row)
