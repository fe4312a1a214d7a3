"""Exact sparse multivariate polynomials over the rationals.

A polynomial in Q[x1, ..., xn] is stored as a map from monomials to nonzero
Fraction coefficients.  A monomial is a plain tuple of n nonnegative integer
exponents, entry i-1 holding the exponent of x_i.  The zero polynomial has an
empty term map, so equality of term maps is equality of polynomials.

Variable indices in the public API are 1-based (x1 ... xn), matching the
printed syntax; exponent tuples are indexed 0-based internally.

The ambient variable count n is fixed per value.  Mixing values with
different n raises ValueError rather than embedding one ring in the other:
the index computations downstream are sensitive to silent dimension shifts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add
from typing import Iterable, Iterator, Mapping, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def monomial_sort_key(m: Monomial) -> tuple:
    """Graded-lex key with x1 > x2 > ... > xn: degree first, then exponents.

    Sorting descending by this key lists the canonical leading term first.
    """
    return (sum(m), m)


def _check_monomial(m: tuple, n: int) -> Monomial:
    if len(m) != n:
        raise ValueError(f"monomial {m} has length {len(m)}, expected {n}")
    for e in m:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"monomial {m} has invalid exponent {e!r}")
    return tuple(m)


class Polynomial:
    """Immutable element of Q[x1, ..., xn] in canonical form (no zero terms)."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        """Validate outside input: n >= 1, exponent tuples of length n, and
        int or Fraction coefficients (anything else, floats included, is a
        TypeError)."""
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        canonical: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"coefficient {coeff!r} is not an int or Fraction")
                if coeff != 0:
                    canonical[_check_monomial(mono, n)] = Fraction(coeff)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", canonical)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_terms(cls, n: int, terms: dict[Monomial, Fraction]) -> Polynomial:
        """Trusted constructor for term maps the library built itself.

        The monomials must already be valid n-tuples and the coefficients
        Fractions; nothing is checked or converted, only zero entries are
        dropped.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "_terms", {m: c for m, c in terms.items() if c})
        object.__setattr__(p, "_hash", None)
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
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exponents: Iterable[int], coeff: Scalar = 1) -> Polynomial:
        return cls(n, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Copy of the term map; mutating it does not affect the polynomial."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (canonical printing order)."""
        return sorted(self._terms.items(), key=lambda t: monomial_sort_key(t[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True for constants including zero."""
        return all(sum(m) == 0 for m in self._terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self._terms.get((0,) * self.n, Fraction(0))

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def total_degree(self) -> int | None:
        """Max total degree over terms; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    def degree_in(self, i: int) -> int | None:
        """Max exponent of x_i over terms; None marks the zero polynomial."""
        self._check_index(i)
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

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")

    def _check_same_ring(self, other: Polynomial) -> None:
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m)
            out[m] = c if v is None else v + c
        return Polynomial._from_terms(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_terms(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial._from_terms(
                self.n, {m: co * other for m, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(add, m1, m2))
                v = out.get(m)
                out[m] = c1 * c2 if v is None else v + c1 * c2
        return Polynomial._from_terms(self.n, out)

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
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    # -- differentiation ---------------------------------------------------

    def partial(self, i: int) -> Polynomial:
        """Formal partial derivative with respect to x_i (1-based)."""
        self._check_index(i)
        pos = i - 1
        # m -> m - e_i is injective on the kept monomials: nothing to collect
        return Polynomial._from_terms(self.n, {
            m[:pos] + (m[pos] - 1,) + m[pos + 1:]: c * m[pos]
            for m, c in self._terms.items() if m[pos]})

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
        self._check_index(j)
        if not self._terms:
            return ()
        pos = j - 1
        t = max(m[pos] for m in self._terms)
        buckets: list[dict[Monomial, Fraction]] = [{} for _ in range(t + 1)]
        for m, c in self._terms.items():
            k = m[pos]
            stripped = m[:pos] + (0,) + m[pos + 1:]
            buckets[k][stripped] = c
        return tuple(Polynomial._from_terms(self.n, b) for b in buckets)

    def top_component(self) -> Polynomial:
        """The homogeneous component of maximal total degree (zero stays zero)."""
        d = self.total_degree()
        if d is None:
            return self
        return Polynomial._from_terms(
            self.n, {m: c for m, c in self._terms.items() if sum(m) == d})

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
