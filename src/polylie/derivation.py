"""Derivations of Q[x1, ..., xn] as polynomial vector fields.

A derivation D = f_1 d1 + ... + f_n dn is determined by its coefficient
polynomials f_i = D(x_i); applying D to any polynomial follows from the
Leibniz rule.  The Lie bracket is computed coefficient-wise,

    [D, E](x_i) = D(E(x_i)) - E(D(x_i)),

never as an operator composition, which keeps every value inside the
polynomial ring and leaves the composition identity available as an
independent correctness check.

`apply` and `bracket` share one kernel, `_apply_into`, which adds
sign * sum_j c_j * df/dx_j straight into a term map: D(f) is one call, and
each coefficient of [D, E] is two calls, D(g_i) then -E(f_i), into one map,
with no intermediate polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .polyring import Monomial, Polynomial, Scalar


def _apply_into(out: dict[Monomial, Fraction],
                coeff_terms: Sequence[dict[Monomial, Fraction]],
                f_terms: dict[Monomial, Fraction], sign: int) -> None:
    """Add sign * sum_j c_j * df/dx_j into the term map out.

    coeff_terms[j] is the term map of c_j, the coefficient of d_{j+1}.
    Coefficients that cancel stay in out as zeros, for the caller's
    Polynomial._from_terms to drop.
    """
    for pos, c_terms in enumerate(coeff_terms):
        if not c_terms:
            continue
        # d(f)/dx_{pos+1} is spelled out here, not taken from Polynomial.partial,
        # so that partial stays an independent reference for this kernel
        df = [(m[:pos] + (m[pos] - 1,) + m[pos + 1:], c * (sign * m[pos]))
              for m, c in f_terms.items() if m[pos]]
        for m1, c1 in c_terms.items():
            for m2, c2 in df:
                m = tuple(map(add, m1, m2))
                v = out.get(m)
                out[m] = c1 * c2 if v is None else v + c1 * c2


class Derivation:
    """Immutable polynomial vector field on Q[x1, ..., xn]."""

    __slots__ = ("n", "_coeffs", "_hash")

    def __init__(self, n: int, coeffs: Sequence[Polynomial]):
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        cs = tuple(coeffs)
        if len(cs) != n:
            raise ValueError(f"expected {n} coefficient polynomials, got {len(cs)}")
        for f in cs:
            if not isinstance(f, Polynomial):
                raise TypeError(f"coefficient {f!r} is not a Polynomial")
            if f.n != n:
                raise ValueError(f"coefficient lives in {f.n} variables, expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_coeffs", cs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Derivation:
        z = Polynomial.zero(n)
        return cls(n, (z,) * n)

    @classmethod
    def partial(cls, n: int, i: int) -> Derivation:
        """The coordinate derivation d_i = d/dx_i."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        coeffs = [Polynomial.zero(n)] * n
        coeffs[i - 1] = Polynomial.one(n)
        return cls(n, coeffs)

    @classmethod
    def monomial_term(cls, n: int, exponents: Iterable[int], i: int, coeff: Scalar = 1) -> Derivation:
        """The single-term derivation (coeff * x^exponents) d_i."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        coeffs = [Polynomial.zero(n)] * n
        coeffs[i - 1] = Polynomial.monomial(n, exponents, coeff)
        return cls(n, coeffs)

    @classmethod
    def euler(cls, n: int) -> Derivation:
        """x1 d1 + ... + xn dn, scaling each monomial by its total degree."""
        return cls(n, [Polynomial.variable(n, i) for i in range(1, n + 1)])

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def coeff(self, i: int) -> Polynomial:
        """Coefficient of d_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        return self._coeffs[i - 1]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self._coeffs)

    def index(self) -> int | None:
        """Largest k with a nonzero coefficient of d_k; None if D = 0."""
        for pos in range(self.n - 1, -1, -1):
            if not self._coeffs[pos].is_zero():
                return pos + 1
        return None

    def max_coeff_degree(self) -> int | None:
        """Max total degree over nonzero coefficients; None if D = 0."""
        degs = [f.total_degree() for f in self._coeffs if not f.is_zero()]
        return max(degs) if degs else None

    def _check_same_ring(self, other: Derivation) -> None:
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    # -- action and bracket --------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """D(f) = sum f_i * df/dx_i."""
        if f.n != self.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {f.n}")
        out: dict[Monomial, Fraction] = {}
        _apply_into(out, [g._terms for g in self._coeffs], f._terms, 1)
        return Polynomial._from_terms(self.n, out)

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.apply(f)

    def bracket(self, other: Derivation) -> Derivation:
        """[D, E](x_i) = D(g_i) - E(f_i), each coefficient one term map."""
        self._check_same_ring(other)
        d_terms = [f._terms for f in self._coeffs]
        e_terms = [g._terms for g in other._coeffs]
        coeffs = []
        for f, g in zip(d_terms, e_terms):
            out: dict[Monomial, Fraction] = {}
            if g:
                _apply_into(out, d_terms, g, 1)
            if f:
                _apply_into(out, e_terms, f, -1)
            coeffs.append(Polynomial._from_terms(self.n, out))
        return Derivation(self.n, coeffs)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Derivation) -> Derivation:
        if not isinstance(other, Derivation):
            return NotImplemented
        self._check_same_ring(other)
        return Derivation(self.n, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> Derivation:
        return Derivation(self.n, [-f for f in self._coeffs])

    def __sub__(self, other: Derivation) -> Derivation:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Derivation:
        """p * D scales every coefficient; p may be a polynomial or rational."""
        if isinstance(other, (int, Fraction, Polynomial)):
            return Derivation(self.n, [f * other for f in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self._coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- classification ------------------------------------------------------

    def as_linear(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The matrix rows when every coefficient is homogeneous linear.

        Row i holds the coefficients of f_i, so D(x_i) = sum_j rows[i][j] x_j.
        Affine or higher-degree coefficients yield None; the zero derivation
        is linear with the zero matrix.
        """
        rows: list[tuple[Fraction, ...]] = []
        for f in self._coeffs:
            row = [Fraction(0)] * self.n
            for mono, c in f:
                if sum(mono) != 1:
                    return None
                row[mono.index(1)] = c
            rows.append(tuple(row))
        return tuple(rows)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_derivation(self)

    def __repr__(self) -> str:
        return f"Derivation({self.n}, {format_derivation(self)!r})"


def iterated_bracket(d1: Derivation, k: int, d2: Derivation) -> Derivation:
    """k-fold nested bracket [d1, [d1, ... [d1, d2] ... ]] (k >= 1)."""
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    out = d2
    for _ in range(k):
        out = d1.bracket(out)
    return out


def format_derivation(d: Derivation) -> str:
    """Canonical text: terms by d-index, coefficients in canonical poly order.

    A unit coefficient prints as a bare d<i>; anything else is parenthesized,
    e.g. "(x1^2) d1 + (-2 x1 x2) d2".  The zero derivation prints as "0".
    """
    parts = []
    for pos, f in enumerate(d.coeffs):
        if f.is_zero():
            continue
        if f == 1:
            parts.append(f"d{pos + 1}")
        else:
            parts.append(f"({f}) d{pos + 1}")
    return " + ".join(parts) if parts else "0"
