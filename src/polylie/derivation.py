"""Derivations of Q[x1, ..., xn] as polynomial vector fields.

A derivation D = f_1 d1 + ... + f_n dn is determined by its coefficient
polynomials f_i = D(x_i); applying D to any polynomial follows from the
Leibniz rule.  The Lie bracket is computed coefficient-wise,

    [D, E](x_i) = D(E(x_i)) - E(D(x_i)),

never as an operator composition, which keeps every value inside the
polynomial ring and leaves the composition identity available as an
independent correctness check.

A derivation is a `_LowestTerms` value (see `polyring`) whose terms form
one integer row: a flat map {key: int} over packed keys (see
`polyring.KeyCodec`) whose slot field, 1-based, names the coefficient of
d_slot that holds the term c * x^monomial.  The public constructor
validates the n coefficient polynomials and hands their terms, each key
moved to its slot, to `polyring._over_lcm`, which puts them over one
denominator; `coeffs` and `coeff` rebuild polynomials on demand.  A
single-slot derivation p d_i is the one-entry row of `partial` times p;
the grammar moves the keys of a parsed "(p) d<i>" to slot i itself.  A
polynomial multiple p * D also stays on the row: a slot-0 key of p adds to
a row key straight into the same slot, each term of the row times each
term of p, reduced once over den_D * den_p.

Brackets of integer rows stay integral.  `bracket_rows` is the one bracket
kernel of rows (`span` brackets two `un` monomials on their keys alone,
since their bracket is one monomial or zero): slot i of [D, E] is
D(g_i) - E(f_i), and each half is one call of `_apply_into`, which
multiplies every term c x^m d_j of one operand into the x_j-partials of
the other's coefficients, given by `row_partials`.  That reads each key's
partial entries (the key minus key(x_j), in its slot, and the exponent
e_j) from one bounded per-process table, `_key_partials`, and only
multiplies them by the row's numerators: the values of one computation
share few keys.  A product of monomials is a sum of keys, a
partial a difference.  Callers that bracket a row many times
(`span.lie_closure` and the series) take its partials once and bracket
their stored rows directly.  They also compute its support signature once,
with the partials (`row_support`: the slots that hold terms and the
variables the coefficients depend on), and bracket no pair whose
signatures do not meet, which `bracket_rows` would bracket to zero:
`lie_closure` and the lower central series test each pair with
`signatures_meet`, and the derived series takes only meeting pairs from
lists of the rows that hold each signature bit.  `Derivation.bracket`
brackets the two stored rows and reduces once over den_D * den_E; `apply`
runs the same `_apply_into` on D's row, with f's numerators as the one
coefficient of a row, in slot 0, and reduces once over den_D * den_f.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

from .polyring import (Polynomial, _LowestTerms, _check_index, _check_int, _check_n,
                       _check_same_n, _format_sum, _limit_error, _over_lcm, codec,
                       format_monomial)

Row = dict[int, int]
Partials = list[list[tuple[int, int]]]


@functools.lru_cache(maxsize=1 << 16)
def _key_partials(n: int, key: int) -> tuple[tuple[int, int, int], ...]:
    """(pos, key - key(x_{pos+1}), e_pos) for each nonzero exponent e_pos
    of key: the partials of the monomial at key, each key kept in its slot.

    Bounded, so a long process holds at most maxsize entries; each key is
    unpacked once while it stays in the table.
    """
    c = codec(n)
    return tuple((pos, key - c.var_units[pos], e)
                 for pos, e in enumerate(c.unpack(key)) if e)


def row_partials(n: int, row: Row) -> Partials:
    """Entry j-1 lists the terms (key - key(x_j), c * e_j) of the
    x_j-partials of row's coefficients, each key still in its slot; each
    key's entries come from `_key_partials`."""
    out: Partials = [[] for _ in range(n)]
    for key, v in row.items():
        for pos, k, e in _key_partials(n, key):
            out[pos].append((k, v * e))
    return out


def row_support(n: int, row: Row) -> tuple[Partials, int]:
    """row's row_partials and its support signature, an int whose bit j
    (1..n) is set when slot j holds a term, and bit n + j when some
    coefficient depends on x_j, that is when partials entry j-1 is nonempty.
    """
    partials = row_partials(n, row)
    shift = codec(n).slot_shift
    sig = 0
    for key in row:
        sig |= 1 << (key >> shift)
    for bit, df in enumerate(partials, start=n + 1):
        if df:
            sig |= 1 << bit
    return partials, sig


def signatures_meet(n: int, sa: int, sb: int) -> bool:
    """False when the rows of signatures sa and sb bracket to zero: no slot
    of either meets a variable the other's coefficients depend on, so each
    half of `bracket_rows` finds only empty partial lists."""
    return bool(sa & (sb >> n) or sb & (sa >> n))


def _apply_into(out: dict, d_terms: Iterable[tuple[int, int]],
                e_partials: Partials, sign: int) -> None:
    """Add sign * D(e) into out: for each term c x^m d_j of D, c x^m times
    the x_j-partials of e's coefficients, each kept in its own slot.

    Coefficients that cancel stay in out as zeros, for the caller to drop.
    """
    c = codec(len(e_partials))
    slot_shift, low, guard = c.slot_shift, c.low, c.guard
    for k1, c1 in d_terms:
        df = e_partials[(k1 >> slot_shift) - 1]
        if df:
            m1 = k1 & low  # x^m alone, in slot 0
            c1 *= sign
            for k2, k in df:
                key = m1 + k2
                if key & guard:
                    raise _limit_error()
                v = out.get(key)
                out[key] = c1 * k if v is None else v + c1 * k


def bracket_rows(d: Row, d_partials: Partials, e: Row, e_partials: Partials) -> Row:
    """The row of [D, E] from the rows of D and E and their row_partials:
    slot i holds D(g_i) - E(f_i)."""
    out: Row = {}
    _apply_into(out, d.items(), e_partials, 1)
    _apply_into(out, e.items(), d_partials, -1)
    return {key: c for key, c in out.items() if c}


class Derivation(_LowestTerms):
    """Immutable polynomial vector field on Q[x1, ..., xn]: a `_LowestTerms`
    value keyed by (slot, monomial)."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: Sequence[Polynomial]):
        _check_n(n)
        cs = tuple(coeffs)
        if len(cs) != n:
            raise ValueError(f"expected {n} coefficient polynomials, got {len(cs)}")
        for f in cs:
            if not isinstance(f, Polynomial):
                raise TypeError(f"coefficient {f!r} is not a Polynomial")
            if f.n != n:
                raise ValueError(f"coefficient lives in {f.n} variables, expected {n}")
        shift = codec(n).slot_shift
        self._store(n, *_over_lcm([((slot << shift) + k, (c, f._den))
                                   for slot, f in enumerate(cs, start=1)
                                   for k, c in f._terms.items()]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Derivation:
        _check_n(n)
        return cls._from_terms(n, {}, 1)

    @classmethod
    def partial(cls, n: int, i: int) -> Derivation:
        """The coordinate derivation d_i = d/dx_i."""
        _check_index(i, n)
        _check_n(n)
        return cls._from_terms(n, {i << codec(n).slot_shift: 1}, 1)

    @classmethod
    def euler(cls, n: int) -> Derivation:
        """x1 d1 + ... + xn dn, scaling each monomial by its total degree."""
        _check_n(n)
        return cls(n, [Polynomial.variable(n, i) for i in range(1, n + 1)])

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        """The n coefficient polynomials, built from the row."""
        c = codec(self.n)
        per_slot: list[dict[int, int]] = [{} for _ in range(self.n)]
        for k, v in self._terms.items():
            per_slot[(k >> c.slot_shift) - 1][k & c.low] = v
        return tuple(Polynomial._from_terms(self.n, t, self._den) for t in per_slot)

    def coeff(self, i: int) -> Polynomial:
        """Coefficient of d_i (1-based)."""
        _check_index(i, self.n)
        shift = codec(self.n).slot_shift
        lo, hi = i << shift, (i + 1) << shift
        return Polynomial._from_terms(
            self.n, {k - lo: c for k, c in self._terms.items() if lo <= k < hi}, self._den)

    def index(self) -> int | None:
        """Largest k with a nonzero coefficient of d_k; None if D = 0."""
        if not self._terms:
            return None
        # slots are the top field: the top key is in the top slot
        return max(self._terms) >> codec(self.n).slot_shift

    def max_coeff_degree(self) -> int | None:
        """Max total degree over nonzero coefficients; None if D = 0."""
        return max(map(codec(self.n).degree, self._terms), default=None)

    # -- action and bracket --------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """D(f) = sum f_i * df/dx_i."""
        _check_same_n(self.n, f.n)
        # f's numerators are the one coefficient of a row, in slot 0
        f_partials = row_partials(self.n, f._terms)
        out: dict = {}
        _apply_into(out, self._terms.items(), f_partials, 1)
        return Polynomial._from_terms(self.n, out, self._den * f._den)

    def bracket(self, other: Derivation) -> Derivation:
        """[D, E] = [row_D, row_E] / (den_D * den_E), on the stored rows."""
        _check_same_n(self.n, other.n)
        n = self.n
        d, e = self._terms, other._terms
        br = bracket_rows(d, row_partials(n, d), e, row_partials(n, e))
        return Derivation._from_terms(n, br, self._den * other._den)

    # -- classification ------------------------------------------------------

    def as_linear(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The matrix rows when every coefficient is homogeneous linear.

        Row i holds the coefficients of f_i, so D(x_i) = sum_j rows[i][j] x_j.
        Affine or higher-degree coefficients yield None; the zero derivation
        is linear with the zero matrix.
        """
        c = codec(self.n)
        rows = [[Fraction(0)] * self.n for _ in range(self.n)]
        for k, v in self._terms.items():
            if c.degree(k) != 1:
                return None
            rows[(k >> c.slot_shift) - 1][c.unpack(k).index(1)] = Fraction(v, self._den)
        return tuple(map(tuple, rows))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_derivation(self)


def iterated_bracket(d1: Derivation, k: int, d2: Derivation) -> Derivation:
    """k-fold nested bracket [d1, [d1, ... [d1, d2] ... ]] (k >= 1)."""
    _check_int(k, "iteration count", 1)
    out = d2
    for _ in range(k):
        out = d1.bracket(out)
    return out


def format_derivation(d: Derivation) -> str:
    """Canonical text: terms by d-index, coefficients in canonical poly order.

    A unit coefficient prints as a bare d<i>; anything else is parenthesized,
    e.g. "(x1^2) d1 + (-2 x1 x2) d2".  The zero derivation prints as "0".
    """
    return format_row(d.n, d._terms, d._den)


def format_row(n: int, terms: Row, den: int) -> str:
    """The text of the derivation terms / den, den > 0, as `format_derivation`
    prints it; terms and den need not be in lowest terms.

    Printed straight from the row, in the column order of its keys: by
    slot, then by descending graded-lex order within a slot.  One term
    equal to den, as a unit row of a span, prints as d<i> or (x^a) d<i>
    at once.
    """
    if not terms:
        return "0"
    c = codec(n)
    low, shift = c.low, c.slot_shift
    if len(terms) == 1:
        ((key, value),) = terms.items()
        if value == den:
            mono = format_monomial(c.unpack(key))
            return f"({mono}) d{key >> shift}" if mono else f"d{key >> shift}"
    parts = []
    for slot, group in groupby(sorted(terms, key=c.column_key), lambda k: k >> shift):
        keys = list(group)
        if len(keys) == 1 and not keys[0] & low and terms[keys[0]] == den:
            parts.append(f"d{slot}")
        else:
            parts.append(f"({_format_sum(c, keys, terms, den)}) d{slot}")
    return " + ".join(parts)
