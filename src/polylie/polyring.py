"""Exact sparse multivariate polynomials over the rationals.

A polynomial in Q[x1, ..., xn] is stored as integer numerators over one
positive common denominator: a map from monomials to nonzero ints, `_terms`,
and an int `_den`, the value being sum(c * x^m) / _den.  A monomial is a
plain tuple of n nonnegative integer exponents, entry i-1 holding the
exponent of x_i.  The pair is kept in lowest terms, gcd(_den, *numerators)
== 1, and the zero polynomial is the empty map over _den == 1, so equal
polynomials have equal term maps and equal denominators.  Products, sums,
partials and the bracket kernel in `derivation` work on these integers and
divide out one gcd per result; a Fraction is made only where a coefficient
leaves the class (`terms`, `sorted_terms`, iteration, `coefficient`,
`constant_value`).  `Derivation` keeps its integer row over one denominator
in the same lowest terms, through the same two helpers, `_lowest_terms` and
`_sum_terms`.

Variable indices in the public API are 1-based (x1 ... xn), matching the
printed syntax; exponent tuples are indexed 0-based internally.

The ambient variable count n is fixed per value.  Mixing values with
different n raises ValueError rather than embedding one ring in the other:
the index computations downstream are sensitive to silent dimension shifts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def monomial_sort_key(m: Monomial) -> tuple:
    """Graded-lex key with x1 > x2 > ... > xn: degree first, then exponents.

    Sorting descending by this key lists the canonical leading term first.
    """
    return (sum(m), m)


def _check_index(i: int, n: int) -> None:
    """The one check of a 1-based variable (or slot) index against n."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")


def _check_same_n(n1: int, n2: int) -> None:
    """The one check that two operands live in the same number of variables."""
    if n1 != n2:
        raise ValueError(f"ambient dimension mismatch: {n1} vs {n2}")


def _lowest_terms(terms: dict, den: int) -> tuple[dict, int]:
    """terms / den in lowest terms: zero entries dropped, gcd(den, *values)
    divided out once.  The keys, monomials or a derivation's (slot, monomial)
    pairs, are left alone; den must be positive.  May return terms itself."""
    if 0 in terms.values():
        terms = {m: c for m, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return terms, den


def _sum_terms(t1: dict, den1: int, t2: dict, den2: int, sign: int) -> tuple[dict, int]:
    """t1 / den1 + sign * t2 / den2 as a new term map over lcm(den1, den2),
    cancelled entries kept as zeros for `_lowest_terms` to drop."""
    den = lcm(den1, den2)
    k1 = den // den1
    k2 = sign * (den // den2)
    out = dict(t1) if k1 == 1 else {m: c * k1 for m, c in t1.items()}
    for m, c in t2.items():
        v = out.get(m)
        out[m] = c * k2 if v is None else v + c * k2
    return out, den


def _check_monomial(m: tuple, n: int) -> Monomial:
    if len(m) != n:
        raise ValueError(f"monomial {m} has length {len(m)}, expected {n}")
    for e in m:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"monomial {m} has invalid exponent {e!r}")
    return tuple(m)


class Polynomial:
    """Immutable element of Q[x1, ..., xn]: nonzero integer numerators over
    one positive denominator, in lowest terms."""

    __slots__ = ("n", "_terms", "_den")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        """Validate outside input: n >= 1, exponent tuples of length n, and
        int or Fraction coefficients (anything else, floats included, is a
        TypeError)."""
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        nums: dict[Monomial, int] = {}
        den = 1
        if terms:
            checked: dict[Monomial, Scalar] = {}
            for mono, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"coefficient {coeff!r} is not an int or Fraction")
                if coeff:
                    checked[_check_monomial(mono, n)] = coeff
                    den = lcm(den, coeff.denominator)
            # the lcm of the reduced denominators leaves no common factor
            # with the scaled numerators: lowest terms without a gcd
            nums = {m: c.numerator * (den // c.denominator) for m, c in checked.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_terms(cls, n: int, terms: dict[Monomial, int], den: int) -> Polynomial:
        """Trusted constructor: the polynomial terms / den, for term maps the
        library built itself.

        The monomials must already be valid n-tuples, the values ints and den
        positive; nothing is checked.  The polynomial takes ownership of
        terms, a dict the caller built for it, and brings it to lowest terms.
        """
        terms, den = _lowest_terms(terms, den)
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Polynomial:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> Polynomial:
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, c: Scalar) -> Polynomial:
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> Polynomial:
        """The polynomial x_i (1-based index)."""
        _check_index(i, n)
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exponents: Iterable[int], coeff: Scalar = 1) -> Polynomial:
        return cls(n, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The term map with Fraction coefficients, as a new dict."""
        return dict(self)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (canonical printing order)."""
        return sorted(self, key=lambda t: monomial_sort_key(t[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True for constants including zero."""
        return all(sum(m) == 0 for m in self._terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self.coefficient((0,) * self.n)

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exponents), 0), self._den)

    def total_degree(self) -> int | None:
        """Max total degree over terms; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    def degree_in(self, i: int) -> int | None:
        """Max exponent of x_i over terms; None marks the zero polynomial."""
        _check_index(i, self.n)
        if not self._terms:
            return None
        return max(m[i - 1] for m in self._terms)

    def index(self) -> int | None:
        """Largest s such that d/dx_s does not annihilate this polynomial.

        None for constants (including zero): no variable genuinely occurs.
        In characteristic zero the partial in x_s is nonzero exactly when
        some term carries a positive x_s exponent.
        """
        best = 0
        for m in self._terms:
            for pos in range(self.n - 1, -1, -1):
                if m[pos] > 0:
                    if pos + 1 > best:
                        best = pos + 1
                    break
        return best or None

    # -- ring arithmetic ---------------------------------------------------

    def _add_scaled(self, other: Polynomial | Scalar, sign: int) -> Polynomial:
        """self + sign * other, both over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_n(self.n, other.n)
        return Polynomial._from_terms(
            self.n, *_sum_terms(self._terms, self._den, other._terms, other._den, sign))

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        return self._add_scaled(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_terms(self.n, {m: -c for m, c in self._terms.items()},
                                      self._den)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self._add_scaled(other, -1)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return Polynomial._from_terms(self.n, {m: c * num for m, c in self._terms.items()},
                                          self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_n(self.n, other.n)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(add, m1, m2))
                v = out.get(m)
                out[m] = c1 * c2 if v is None else v + c1 * c2
        return Polynomial._from_terms(self.n, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = Polynomial.one(self.n)
        base = self
        while k:  # repeated squaring: O(log k) products
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        return ((m, Fraction(c, den)) for m, c in self._terms.items())

    # -- differentiation ---------------------------------------------------

    def partial(self, i: int) -> Polynomial:
        """Formal partial derivative with respect to x_i (1-based)."""
        _check_index(i, self.n)
        pos = i - 1
        # m -> m - e_i is injective on the kept monomials: nothing to collect
        return Polynomial._from_terms(self.n, {
            m[:pos] + (m[pos] - 1,) + m[pos + 1:]: c * m[pos]
            for m, c in self._terms.items() if m[pos]}, self._den)

    def diff_multi(self, alpha: Iterable[int]) -> Polynomial:
        """Iterated derivative: apply d/dx_i alpha[i-1] times, for every i.

        Partials commute, so the application order is immaterial.
        """
        a = tuple(alpha)
        if len(a) != self.n:
            raise ValueError(f"exponent vector {a} has length {len(a)}, expected {self.n}")
        result = self
        for i, k in enumerate(a, start=1):
            if k < 0:
                raise ValueError(f"exponent vector {a} has negative entry")
            for _ in range(k):
                result = result.partial(i)
                if result.is_zero():
                    return result
        return result

    # -- structure ---------------------------------------------------------

    def expand_in(self, j: int) -> tuple[Polynomial, ...]:
        """Coefficients (h_0, ..., h_t) of the expansion in powers of x_j.

        Reassembling sum(h_k * x_j**k) reproduces the polynomial exactly; each
        h_k is free of x_j and the last entry is nonzero.  The zero polynomial
        yields the empty tuple, keeping that trailing-nonzero guarantee
        unconditional.
        """
        _check_index(j, self.n)
        if not self._terms:
            return ()
        pos = j - 1
        t = max(m[pos] for m in self._terms)
        buckets: list[dict[Monomial, int]] = [{} for _ in range(t + 1)]
        for m, c in self._terms.items():
            k = m[pos]
            stripped = m[:pos] + (0,) + m[pos + 1:]
            buckets[k][stripped] = c
        return tuple(Polynomial._from_terms(self.n, b, self._den) for b in buckets)

    def leading_monomial(self) -> Monomial:
        """Graded-lex greatest monomial; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=monomial_sort_key)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


def format_monomial(m: Monomial) -> str:
    parts = []
    for pos, e in enumerate(m):
        if e == 1:
            parts.append(f"x{pos + 1}")
        elif e > 1:
            parts.append(f"x{pos + 1}^{e}")
    return " ".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text: terms in descending graded-lex order, x1 > x2 > ...

    The output re-parses to the same value under the shared grammar.
    """
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in f.sorted_terms():
        mono_txt = format_monomial(mono)
        mag = abs(coeff)
        if not mono_txt:
            body = str(mag)  # Fraction prints p/q, integers without the /q
        elif mag == 1:
            body = mono_txt
        else:
            body = f"{mag} {mono_txt}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def multi_factorial(alpha: Iterable[int]) -> int:
    """Product of factorials of the entries."""
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out
