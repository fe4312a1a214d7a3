"""Derivations of Q[x1, ..., xn] as polynomial vector fields.

A derivation D = f_1 d1 + ... + f_n dn is determined by its coefficient
polynomials f_i = D(x_i); applying D to any polynomial follows from the
Leibniz rule.  The Lie bracket is computed coefficient-wise,

    [D, E](x_i) = D(E(x_i)) - E(D(x_i)),

never as an operator composition, which keeps every value inside the
polynomial ring and leaves the composition identity available as an
independent correctness check.

Brackets run on integer rows.  A row is a flat map {(slot, monomial): int},
slots 1-based, holding the term c * x^monomial of the coefficient of d_slot;
brackets of integer rows stay integral.  `bracket_rows` is the one bracket
kernel: slot i of [D, E] is D(g_i) - E(f_i), and each half is one call of
`_apply_into`, which multiplies every term c x^m d_j of one operand into the
x_j-partials of the other's coefficients, listed once per row by
`row_partials`.  Callers that bracket a row many times (`span.lie_closure`,
the series, the derived-chain search) list its partials once and bracket
their stored rows directly.

A Polynomial already holds integer numerators over one denominator (see
`polyring`), so clearing a derivation's denominators builds no Fraction:
`_row` takes den_D as the lcm of the n coefficient denominators and scales
each coefficient's numerators by den_D / den_f_i, giving D = row_D / den_D.
`Derivation.bracket` brackets the two rows and hands each slot of the result
to `Polynomial._from_terms` over den_D * den_E, which divides out one gcd
per slot.  `apply` runs the same `_apply_into` on D's row, with f's
numerators as the one coefficient of a row, and reduces once over
den_D * den_f.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .polyring import Monomial, Polynomial, Scalar

Row = dict[tuple[int, Monomial], int]
Partials = list[list[tuple[int, Monomial, int]]]


def row_partials(n: int, row: Row) -> Partials:
    """Entry j-1 lists the terms (slot, m - e_j, c * m_j) of the x_j-partials
    of row's coefficients."""
    # spelled out here, not taken from Polynomial.partial, so that partial
    # stays an independent reference for the kernel
    out: Partials = [[] for _ in range(n)]
    for (slot, m), c in row.items():
        for pos, e in enumerate(m):
            if e:
                out[pos].append((slot, m[:pos] + (e - 1,) + m[pos + 1:], c * e))
    return out


def _apply_into(out: dict, d_terms: Iterable[tuple[tuple[int, Monomial], int]],
                e_partials: Partials, sign: int) -> None:
    """Add sign * D(e) into out: for each term c x^m d_j of D, c x^m times
    the x_j-partials of e's coefficients, each kept in its own slot.

    Coefficients that cancel stay in out as zeros, for the caller to drop.
    """
    for (j, m1), c1 in d_terms:
        df = e_partials[j - 1]
        if df:
            c1 *= sign
            for slot, m2, k in df:
                key = (slot, tuple(map(add, m1, m2)))
                v = out.get(key)
                out[key] = c1 * k if v is None else v + c1 * k


def bracket_rows(d: Row, d_partials: Partials, e: Row, e_partials: Partials) -> Row:
    """The row of [D, E] from the rows of D and E and their row_partials:
    slot i holds D(g_i) - E(f_i)."""
    out: Row = {}
    _apply_into(out, d.items(), e_partials, 1)
    _apply_into(out, e.items(), d_partials, -1)
    return {key: c for key, c in out.items() if c}


class Derivation:
    """Immutable polynomial vector field on Q[x1, ..., xn]."""

    __slots__ = ("n", "_coeffs")

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

    @classmethod
    def _from_row(cls, n: int, row: Row, scale: Fraction) -> Derivation:
        """The derivation scale * row: the trusted constructor for rows the
        library built itself, whose keys are valid (slot, monomial) pairs;
        nothing is checked."""
        num = scale.numerator
        per_slot: list[dict[Monomial, int]] = [{} for _ in range(n)]
        for (slot, mono), c in row.items():
            per_slot[slot - 1][mono] = c * num
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "_coeffs", tuple(Polynomial._from_terms(n, t, scale.denominator)
                                               for t in per_slot))
        return d

    def _row(self) -> tuple[Row, int]:
        """The integer row and the positive den with self = row / den."""
        den = lcm(*(f._den for f in self._coeffs))
        row: Row = {}
        for slot, f in enumerate(self._coeffs, start=1):
            k = den // f._den
            for m, c in f._terms.items():
                row[(slot, m)] = c * k
        return row, den

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
        # f's numerators are the one coefficient of a row, in slot 0
        f_partials = row_partials(self.n, {(0, m): c for m, c in f._terms.items()})
        d, den_d = self._row()
        out: dict = {}
        _apply_into(out, d.items(), f_partials, 1)
        return Polynomial._from_terms(self.n, {m: c for (_, m), c in out.items()},
                                      den_d * f._den)

    def bracket(self, other: Derivation) -> Derivation:
        """[D, E] = [row_D, row_E] / (den_D * den_E), on integer rows."""
        self._check_same_ring(other)
        n = self.n
        d, den_d = self._row()
        e, den_e = other._row()
        br = bracket_rows(d, row_partials(n, d), e, row_partials(n, e))
        return Derivation._from_row(n, br, Fraction(1, den_d * den_e))

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
        return hash((self.n, self._coeffs))

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
