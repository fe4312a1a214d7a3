"""Exact sparse multivariate polynomials over the rationals.

A polynomial in Q[x1, ..., xn] is a `_LowestTerms` value keyed by monomial:
integer numerators over one positive denominator.  A monomial is stored as
one nonnegative int, its packed key (see `KeyCodec`): 64-bit fields, from
most to least significant slot | total degree | e_1 | ... | e_n, with slot 0
for a polynomial.  A product of two monomials is the sum of their keys, an
x_j-partial a difference, and int order within a slot is graded-lex order.
Products, sums, partials and the bracket kernel in `derivation` work on the
keys and on integer numerators and divide out one gcd per result; an
exponent tuple or a Fraction is made only where a term leaves the class
(`terms`, iteration, `coefficient`, `leading_monomial`, `constant_value`);
the printers read the keys and numerators straight.  `Derivation` is the
other `_LowestTerms` value, keyed by packed keys whose slot field holds the
slot.

Variable indices in the public API are 1-based (x1 ... xn), matching the
printed syntax; exponent tuples are indexed 0-based internally.  The public
API takes and returns exponent tuples and packs or unpacks them at the
boundary.

The ambient variable count n is fixed per value.  Mixing values with
different n raises ValueError rather than embedding one ring in the other:
the index computations downstream are sensitive to silent dimension shifts.
"""

from __future__ import annotations

import functools
import struct
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import or_
from typing import Collection, Iterable, Iterator, Mapping, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

FIELD_BITS = 64
# Every exponent and every total degree stays below EXPONENT_LIMIT = 2^63, so
# the top bit of each field is a guard bit that a valid key never sets.  The
# sum of two valid keys then carries into no other field, and it is a valid
# key exactly when no guard bit is set.  An exponent never exceeds the total
# degree, so the degree field's guard bit is the one to test.
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1

# The largest size, in coefficient bits, that `Polynomial.__pow__` may build:
# it bounds the term count of f^k and the bits of each of its coefficients
# before it multiplies, and raises ValueError when their product is above
# this.  (x1 + 1)^2000 is within it (1.3-1.9 s, Python 3.11 on a 2-vCPU Xeon
# VM) and (x1 + 1)^2100 is not; a power of one term with coefficient +-1 is
# one bit, whatever its exponent.
POWER_BITS_LIMIT = 1 << 22


# The largest variable count.  A KeyCodec holds n keys of FIELD_BITS * (n + 2)
# bits each, so its memory grows with n^2: 8 MB of keys at n = 1000, 0.8 GB at
# n = 10000.  No command or check here uses n above 100.  This bounds memory,
# not run time.
MAX_VARIABLES = 1000


def _limit_error() -> ValueError:
    return ValueError(f"an exponent or total degree reaches 2^63 = {EXPONENT_LIMIT}, "
                      f"beyond the largest one supported")


class KeyCodec:
    """The packed keys of monomials in n variables: the field shifts, the
    keys of the variables, the masks, and pack/unpack.  `codec(n)` holds
    one per n.

    Fields from most to least significant are slot | degree | e_1 | ... |
    e_n, each FIELD_BITS wide, so the key of x_j is var_units[j-1], a unit
    in both the e_j and the degree field.  Slots only ever sit in the top
    field, which `low` masks off.
    """

    __slots__ = ("n", "shifts", "deg_shift", "slot_shift", "var_units", "low", "guard",
                 "_nbytes", "_fields", "_exponents")

    def __init__(self, n: int):
        _check_n(n)
        self.n = n
        self.shifts = tuple(FIELD_BITS * (n - 1 - pos) for pos in range(n))
        self.deg_shift = FIELD_BITS * n
        self.slot_shift = FIELD_BITS * (n + 1)
        self.var_units = tuple((1 << s) + (1 << self.deg_shift) for s in self.shifts)
        self.low = (1 << self.slot_shift) - 1
        self.guard = EXPONENT_LIMIT << self.deg_shift
        # a key's big-endian bytes, a "Q" per field: pack writes the degree
        # and exponent fields below an empty slot, unpack reads the exponents
        self._nbytes = FIELD_BITS // 8 * (n + 2)
        self._fields = struct.Struct(f">{FIELD_BITS // 8}x{n + 1}Q")
        self._exponents = struct.Struct(f">{FIELD_BITS // 4}x{n}Q")

    def pack(self, m: Monomial) -> int:
        """The slot-0 key of an exponent tuple of length n with entries >= 0;
        ValueError if an exponent or the total degree reaches 2^63."""
        deg = sum(m)
        if deg >= EXPONENT_LIMIT:
            raise _limit_error()
        return int.from_bytes(self._fields.pack(deg, *m), "big")

    def unpack(self, key: int) -> Monomial:
        """The exponent tuple of a key; its slot is ignored."""
        return self._exponents.unpack(key.to_bytes(self._nbytes, "big"))

    def degree(self, key: int) -> int:
        return (key >> self.deg_shift) & _FIELD_MASK

    def exponent(self, key: int, pos: int) -> int:
        """The exponent of x_{pos+1} in key."""
        return (key >> self.shifts[pos]) & _FIELD_MASK


# the KeyCodec per n, kept for the 64 counts met last: each holds about 8n^2
# bytes of keys, so a cache without a bound grows with every n a process meets
codec = functools.lru_cache(maxsize=64)(KeyCodec)


def _check_index(i: int, n: int) -> None:
    """The one check of a 1-based variable (or slot) index against n."""
    # a bool is an int, but True is no index
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError(f"variable index {i!r} is not an int")
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")


def _check_n(n: int) -> None:
    """The one check of a variable count: an int in 1..MAX_VARIABLES."""
    # a bool is an int, but True is no count
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"variable count {n!r} is not an int")
    if n < 1:
        raise ValueError(f"variable count must be >= 1, got {n}")
    if n > MAX_VARIABLES:
        raise ValueError(f"variable count must be <= {MAX_VARIABLES}, got {n}")


def _check_coefficient(c) -> None:
    """The one check of a coefficient from outside: an int or a Fraction."""
    # a bool is an int, but True is no coefficient
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise TypeError(f"coefficient {c!r} is not an int or Fraction")


def _check_same_n(n1: int, n2: int) -> None:
    """The one check that two operands live in the same number of variables."""
    if n1 != n2:
        raise ValueError(f"ambient dimension mismatch: {n1} vs {n2}")


def _check_monomial(m: tuple, n: int) -> int:
    """The packed key of an exponent tuple from outside, checked first."""
    if len(m) != n:
        raise ValueError(f"monomial {m} has length {len(m)}, expected {n}")
    for e in m:
        # a bool is an int, but True is no exponent
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"monomial {m} has invalid exponent {e!r}")
    return codec(n).pack(m)


def _over_lcm(items: Collection[tuple[int, tuple[int, int]]]) -> tuple[dict, int]:
    """The value sum(num / den * key) over items (key, (num, den)), as
    (terms, d): each numerator scaled to d, the lcm of the denominators,
    and the numerators of a key that repeats summed.

    The one statement of the common-denominator rule; `_store` then reduces.
    """
    d = lcm(*(den for _, (_, den) in items))
    terms: dict[int, int] = {}
    for key, (num, den) in items:
        terms[key] = terms.get(key, 0) + num * (d // den)
    return terms, d


class _LowestTerms:
    """An immutable value stored as integer numerators over one positive
    denominator: a map `_terms` from packed keys to nonzero ints and an int
    `_den`, the value being sum(c * key) / _den, with `n` the number of
    variables.

    The pair is kept in lowest terms, gcd(_den, *_terms.values()) == 1, and
    zero is the empty map over _den == 1, so equal values have equal term
    maps and denominators.  `Polynomial` keys its terms by slot-0 keys and
    `Derivation` by keys with their slot; values of different types never
    mix.

    `_store` is the only code that writes the three slots: the validating
    `__init__`s of both types hand it their terms over `_over_lcm`, and
    every other value is built by `_from_terms`.  It writes them through
    the slot descriptors' own `__set__` (`_set_n`, `_set_terms`,
    `_set_den`, bound once after the class), so `__setattr__` can raise for
    every other writer.
    """

    __slots__ = ("n", "_terms", "_den")

    def _store(self, n: int, terms: dict, den: int) -> None:
        """Write the value terms / den: drop the zero entries of terms, a
        dict built for this value, and divide out gcd(den, *values) once.

        The keys must already be valid for n, the values ints and den
        positive; nothing is checked.
        """
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {key: c // g for key, c in terms.items()}
                den //= g
        _set_n(self, n)
        _set_terms(self, terms)
        _set_den(self, den)

    @classmethod
    def _from_terms(cls, n: int, terms: dict, den: int):
        """Trusted constructor: the value terms / den, for term maps the
        library built itself (see `_store`)."""
        v = object.__new__(cls)
        v._store(n, terms, den)
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _add_scaled(self, other, sign: int):
        """self + sign * other, both over the lcm of the two denominators."""
        if type(other) is not type(self):
            return NotImplemented
        _check_same_n(self.n, other.n)
        den = lcm(self._den, other._den)
        k1 = den // self._den
        k2 = sign * (den // other._den)
        out = dict(self._terms) if k1 == 1 else {key: c * k1 for key, c in self._terms.items()}
        for key, c in other._terms.items():
            v = out.get(key)
            out[key] = c * k2 if v is None else v + c * k2
        return self._from_terms(self.n, out, den)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __neg__(self):
        return self._from_terms(self.n, {key: -c for key, c in self._terms.items()}, self._den)

    def _scaled(self, c: Scalar):
        """c * self for a rational c."""
        num = c.numerator
        return self._from_terms(self.n, {key: v * num for key, v in self._terms.items()},
                                self._den * c.denominator)

    def _times(self, p):
        """self * p for a Polynomial p, term by term over the product of
        the denominators, self's terms outermost: a slot-major row gives a
        slot-major product."""
        _check_same_n(self.n, p.n)
        guard = codec(self.n).guard
        out: dict[int, int] = {}
        p_terms = p._terms.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in p_terms:
                k = k1 + k2
                if k & guard:
                    raise _limit_error()
                v = out.get(k)
                out[k] = c1 * c2 if v is None else v + c1 * c2
        return self._from_terms(self.n, out, self._den * p._den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {str(self)!r})"


# the slot descriptors' setters, for `_store` alone: a call writes the slot
# without the raising __setattr__ and without a lookup of its name
_set_n = _LowestTerms.n.__set__
_set_terms = _LowestTerms._terms.__set__
_set_den = _LowestTerms._den.__set__


class Polynomial(_LowestTerms):
    """Immutable element of Q[x1, ..., xn]: a `_LowestTerms` value keyed by
    slot-0 packed keys."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        """Validate outside input: an int n in 1..MAX_VARIABLES, exponent
        tuples of length n with exponents and total degree below 2^63, and
        int or Fraction coefficients (anything else, floats and bools
        included, is a TypeError)."""
        _check_n(n)
        pairs: dict[int, tuple[int, int]] = {}
        for mono, coeff in (terms or {}).items():
            _check_coefficient(coeff)
            # a zero term's monomial is checked too, then dropped by _store
            pairs[_check_monomial(mono, n)] = coeff.numerator, coeff.denominator
        self._store(n, *_over_lcm(pairs.items()))

    # -- constructors ------------------------------------------------------
    # The constants run the checks of `__init__` on their arguments, in the
    # same order, then build their known-valid terms directly: key 0 is the
    # constant monomial and var_units[i-1] the key of x_i.

    @classmethod
    def zero(cls, n: int) -> Polynomial:
        _check_n(n)
        return cls._from_terms(n, {}, 1)

    @classmethod
    def one(cls, n: int) -> Polynomial:
        _check_n(n)
        return cls._from_terms(n, {0: 1}, 1)

    @classmethod
    def constant(cls, n: int, c: Scalar) -> Polynomial:
        _check_n(n)
        _check_coefficient(c)
        return cls._from_terms(n, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, n: int, i: int) -> Polynomial:
        """The polynomial x_i (1-based index)."""
        _check_index(i, n)
        _check_n(n)
        return cls._from_terms(n, {codec(n).var_units[i - 1]: 1}, 1)

    @classmethod
    def monomial(cls, n: int, exponents: Iterable[int], coeff: Scalar = 1) -> Polynomial:
        return cls(n, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The term map with Fraction coefficients, as a new dict."""
        return dict(self)

    def is_constant(self) -> bool:
        """True for constants including zero."""
        return not any(self._terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return Fraction(self._terms.get(0, 0), self._den)

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(_check_monomial(tuple(exponents), self.n), 0),
                        self._den)

    def total_degree(self) -> int | None:
        """Max total degree over terms; None for the zero polynomial."""
        if not self._terms:
            return None
        return codec(self.n).degree(max(self._terms))

    def degree_in(self, i: int) -> int | None:
        """Max exponent of x_i over terms; None marks the zero polynomial."""
        _check_index(i, self.n)
        if not self._terms:
            return None
        c = codec(self.n)
        return max(c.exponent(k, i - 1) for k in self._terms)

    def index(self) -> int | None:
        """Largest s such that d/dx_s does not annihilate this polynomial.

        None for constants (including zero): no variable genuinely occurs.
        In characteristic zero the partial in x_s is nonzero exactly when
        some term carries a positive x_s exponent.
        """
        # a field of the or of all keys is nonzero iff it is in some term
        occurring = codec(self.n).unpack(functools.reduce(or_, self._terms, 0))
        return max((pos + 1 for pos, e in enumerate(occurring) if e), default=None)

    # -- ring arithmetic ---------------------------------------------------

    def _add_scaled(self, other: Polynomial | Scalar, sign: int) -> Polynomial:
        """A rational other counts as a constant polynomial."""
        # Polynomial is tested first here, in __mul__, in __eq__ and in
        # Derivation.__mul__, and __mul__ hands any other _LowestTerms to its
        # __rmul__ before it tests Fraction: a miss on Fraction, whose
        # metaclass is ABCMeta, runs a Python-level __instancecheck__
        if not isinstance(other, Polynomial) and isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return super()._add_scaled(other, sign)

    __radd__ = _LowestTerms.__add__

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            if isinstance(other, _LowestTerms):
                return NotImplemented  # p * D: Derivation.__rmul__ scales D
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            return NotImplemented
        return self._times(other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if self._terms:
            bits = self._power_bits(k)
            if bits > POWER_BITS_LIMIT:
                raise ValueError(f"(a {len(self._terms)}-term polynomial)^{k} may take {bits} "
                                 f"coefficient bits, above POWER_BITS_LIMIT = {POWER_BITS_LIMIT}")
        result = Polynomial.one(self.n)
        base = self
        while k:  # repeated squaring: O(log k) products
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _power_bits(self, k: int) -> int:
        """A bound on the coefficient bits of self ** k, for self nonzero.

        The terms of f^k number at most the multisets of k of f's t terms
        and the monomials of degree at most k * deg(f).  Each coefficient is
        a numerator at most (sum of f's |numerators|)^k over den^k.
        """
        t = len(self._terms)
        terms = min(comb(k + t - 1, t - 1), comb(self.n + k * self.total_degree(), self.n))
        s = sum(map(abs, self._terms.values()))
        return terms * (1 + k * ((s - 1).bit_length() + (self._den - 1).bit_length()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial) and isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return super().__eq__(other)

    # defining __eq__ resets __hash__ to None
    __hash__ = _LowestTerms.__hash__

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        unpack, den = codec(self.n).unpack, self._den
        return ((unpack(k), Fraction(c, den)) for k, c in self._terms.items())

    # -- differentiation ---------------------------------------------------

    def partial(self, i: int) -> Polynomial:
        """Formal partial derivative with respect to x_i (1-based)."""
        _check_index(i, self.n)
        c = codec(self.n)
        pos = i - 1
        unit = c.var_units[pos]
        # k -> k - key(x_i) is injective on the kept keys: nothing to collect
        return Polynomial._from_terms(self.n, {
            k - unit: v * e
            for k, v in self._terms.items() if (e := c.exponent(k, pos))}, self._den)

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
        c = codec(self.n)
        pos = j - 1
        unit = c.var_units[pos]
        t = max(c.exponent(k, pos) for k in self._terms)
        buckets: list[dict[int, int]] = [{} for _ in range(t + 1)]
        for k, v in self._terms.items():
            e = c.exponent(k, pos)
            buckets[e][k - e * unit] = v
        return tuple(Polynomial._from_terms(self.n, b, self._den) for b in buckets)

    def leading_monomial(self) -> Monomial:
        """Graded-lex greatest monomial; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return codec(self.n).unpack(max(self._terms))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)


def format_monomial(m: Monomial) -> str:
    parts = []
    for pos, e in enumerate(m):
        if e == 1:
            parts.append(f"x{pos + 1}")
        elif e > 1:
            parts.append(f"x{pos + 1}^{e}")
    return " ".join(parts)


def _format_sum(c: KeyCodec, keys: Iterable[int], terms: Mapping[int, int], den: int) -> str:
    """The text of the sum of terms[k] / den * x^k over the nonempty keys, in
    their order; the slot of each key is ignored.

    Each coefficient prints in lowest terms, p or p/q, and a unit one in
    front of a monomial not at all.  The first term carries a bare "-" if
    it is negative, each later one "+ " or "- ".
    """
    pieces: list[str] = []
    for k in keys:
        num = terms[k]
        g = gcd(num, den)
        q = den // g
        mag = str(abs(num) // g) if q == 1 else f"{abs(num) // g}/{q}"
        mono_txt = format_monomial(c.unpack(k))
        if not mono_txt:
            body = mag
        elif mag == "1":
            body = mono_txt
        else:
            body = f"{mag} {mono_txt}"
        if not pieces:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(pieces)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text: terms in descending graded-lex order, x1 > x2 > ...

    The output re-parses to the same value under the shared grammar.
    """
    if f.is_zero():
        return "0"
    return _format_sum(codec(f.n), sorted(f._terms, reverse=True), f._terms, f._den)


def multi_factorial(alpha: Iterable[int]) -> int:
    """Product of factorials of the entries."""
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out
