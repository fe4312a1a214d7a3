"""Finite-dimensional linear algebra over Q for sets of derivations.

Derivations are coordinatized against the monomial support of their
coefficients: a coordinate is a packed row key (see `polyring.KeyCodec`),
the given monomial inside the coefficient of d_slot.  Columns are ordered
by slot ascending, then graded-lex descending within a slot.

`SpanBasis` is the one span kernel, and `SpanBasis(n, gens)` the only way
to build a span: no public call changes it once built.  It keeps sparse
integer rows (see `derivation.Row`) keyed by their pivot coordinate: each
row is primitive (content 1) with a positive pivot entry and a zero in every
other row's pivot column.  `_add_row` takes a generator's stored integer
row, which stands for the derivation up to its denominator, reduces a copy
of it without fractions, one pivot column at a time (scaled by that pivot
entry, less an integer multiple of the pivot's row; each stored row
vanishes in the others' pivot columns, so the order is free), and inserts
the residual only if it is nonzero.  A unit row {p: 1}, most rows on `un`
input, needs no arithmetic: its column is cleared by deletion, and
back-elimination walks only the rows of more than one term.  Dividing each
row by its pivot entry gives the reduced row echelon form, which is unique
for a given row space and column order; `basis` does that division, and
only there, so equal spans produce identical bases whatever order the
generators come in: two spans are equal exactly when their `basis` tuples
are.  The one rational number is that division, kept as the denominator of
each basis derivation.

`lie_closure` closes a set of generators S under brackets, within a degree
and a dimension cap; its docstring gives the walk, the two spans it keeps L
in, the key path for monomial `un` input, and the rerun on a cap stop.  A
closed `LieClosureResult` carries S, L and [L, L], and the derived and
lower central series take that result and nothing else; `_series` gives
why bracketing by a generating set is enough, when the rows of L outside
[L, L] (Jacobson) replace S, and when both series run on key sets.
Brackets run on stored rows (`derivation.bracket_rows`), and a pair whose
support signatures do not meet is skipped, since its bracket is provably
zero (`signatures_meet`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from math import gcd
from typing import Collection, Iterable, Iterator, NamedTuple

from .derivation import Derivation, Partials, Row, bracket_rows, row_support, signatures_meet
from .polyring import (KeyCodec, _check_int, _check_n, _check_same_n, _limit_error, _un_term,
                       codec)

DEFAULT_DEGREE_CAP = 12
DEFAULT_DIM_CAP = 512

Operand = tuple[Row, Partials, int]  # a row, its partials and its signature


def _check_derivation(d: object) -> None:
    if not isinstance(d, Derivation):
        raise TypeError(f"not a Derivation: {d!r}")


def _eliminate(target: Row, source: Row, col: int) -> None:
    """target <- e * target - c * source, with e = source[col] > 0 and
    c = target[col]: clears target's entry in col, in place."""
    e, c = source[col], target[col]
    if e != 1:
        for k in target:
            target[k] *= e
    for k, x in source.items():
        value = target.get(k, 0) - c * x
        if value:
            target[k] = value
        else:
            del target[k]


class SpanBasis:
    """Reduced basis of the rational span of a finite set of derivations."""

    __slots__ = ("n", "_rows", "_multi", "_basis")

    def __init__(self, n: int, gens: Iterable[Derivation]):
        _check_n(n)
        self.n = n
        self._rows: dict[int, Row] = {}  # pivot -> primitive row
        self._multi: set[int] = set()  # the pivots of the rows of more than one term
        self._basis: tuple[Derivation, ...] | None = ()
        for d in gens:
            _check_derivation(d)
            _check_same_n(d.n, n)
            self._add_row(d._terms)

    @property
    def basis(self) -> tuple[Derivation, ...]:
        """The reduced rows as derivations, in order of their pivot columns,
        each divided by its pivot entry."""
        if self._basis is None:
            # copies: `_add_row` goes on reducing the stored rows in place
            self._basis = tuple(
                Derivation._from_terms(self.n, dict(self._rows[p]), self._rows[p][p])
                for p in sorted(self._rows, key=codec(self.n).column_key))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.basis)

    def _operands(self) -> list[Operand]:
        """The stored rows in pivot order, each with its row_support."""
        return [(self._rows[p], *row_support(self.n, self._rows[p]))
                for p in sorted(self._rows, key=codec(self.n).column_key)]

    def _reduce(self, row: Row) -> Row:
        """A positive multiple of the residual of row after subtracting its
        part in the span, as a new dict; row itself is never modified.

        Each pivot column of row is cleared by `_eliminate` with that
        pivot's stored row, one pivot at a time, or by deleting the entry
        when that row is {p: 1}, which is what `_eliminate` computes there.
        Every stored row vanishes in the pivot columns of the others, so a
        step clears its own column and leaves the others as they were, up
        to a positive factor: the order of the steps is free.
        """
        residual = dict(row)
        rows = self._rows
        for p in row:
            source = rows.get(p)
            if source is not None:
                if len(source) == 1:  # {p: 1}: _eliminate would only delete p
                    del residual[p]
                else:
                    _eliminate(residual, source, p)
        return residual

    def _add_row(self, row: Row) -> int | None:
        """Adjoin an integer row, which stands for any nonzero multiple of
        itself: the pivot of the new stored row, or None, with nothing
        changed, if row is inside.  row itself is never modified.

        A one-term row takes one lookup: it is inside when its key is the
        pivot of a unit row, and stored as {key: 1} when its key is no pivot.
        Back-elimination walks only the rows of more than one term
        (`_multi`), since a unit row has no entry in the new pivot column; a
        row it leaves with one term becomes {p: 1} and leaves `_multi`.
        """
        rows = self._rows
        key = next(iter(row)) if len(row) == 1 else None
        if key is not None and key not in rows:
            pivot, residual = key, {key: 1}
        elif key is not None and len(rows[key]) == 1:
            return None
        else:
            residual = self._reduce(row)
            if not residual:
                return None
            pivot = min(residual, key=codec(self.n).column_key)
            g = gcd(*residual.values())
            if residual[pivot] < 0:
                g = -g
            if g != 1:
                for col in residual:
                    residual[col] //= g
        for p in tuple(self._multi):
            other = rows[p]
            if pivot in other:
                # other's pivot entry stays positive: residual is 0 there
                _eliminate(other, residual, pivot)
                if len(other) == 1:
                    other[p] = 1
                    self._multi.discard(p)
                    continue
                content = gcd(*other.values())
                if content != 1:
                    for col in other:
                        other[col] //= content
        if len(residual) > 1:
            self._multi.add(pivot)
        rows[pivot] = residual
        self._basis = None
        return pivot

    def _add_key(self, key: int) -> bool:
        """Adjoin a one-term row {key: v}, v != 0, to a span whose stored
        rows are one term each: there it is reduced already, so it is stored
        as {key: 1} unless key is a pivot.  False if it is inside."""
        if key in self._rows:
            return False
        self._rows[key] = {key: 1}
        self._basis = None
        return True

    def contains(self, d: Derivation) -> bool:
        _check_derivation(d)
        _check_same_n(d.n, self.n)
        return not self._reduce(d._terms)

    def __repr__(self) -> str:
        return f"SpanBasis(n={self.n}, dim={self.dim})"


class LieClosureResult:
    """Outcome of saturating a span under brackets, subject to caps.

    status is "closed", "degree_cap_exceeded" or "dim_cap_exceeded".
    basis spans everything adjoined before the stop.  generators are the
    generators S that extended the span, in input order: a generator inside
    the span of those before it is left out.  On "degree_cap_exceeded",
    offending_bracket is the pair (a, b) of adjoined derivations whose
    bracket [a, b] has a coefficient of total degree above the cap.  A
    closed result from `lie_closure` is the Lie algebra L that S generates,
    and also carries in _derived the span of its nonzero brackets, [S, L],
    which is [L, L] (see `_series`).  A capped result, or one built by
    hand, has _derived None, and the series refuse both.

    The fields are read-only.  A result equals only itself, and the repr
    shows the public fields only, not _derived.
    """

    __slots__ = ("status", "basis", "generators", "offending_bracket", "_derived")

    def __init__(self, status: str, basis: SpanBasis, generators: tuple[Derivation, ...],
                 offending_bracket: tuple[Derivation, Derivation] | None = None,
                 _derived: SpanBasis | None = None) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "offending_bracket", offending_bracket)
        object.__setattr__(self, "_derived", _derived)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"LieClosureResult({fields})"

    @property
    def closed(self) -> bool:
        return self.status == "closed"


def _un_monomials(n: int, gens: Iterable[Derivation]) -> list[int] | None:
    """The key of each of gens when every one is a single `un` monomial,
    else None; gens are derivations in n variables."""
    c = codec(n)
    out = []
    for g in gens:
        if len(g._terms) != 1:
            return None
        (key,) = g._terms
        if not _un_term(c, key):
            return None
        out.append(key)
    return out


def _monomial_bracket(c: KeyCodec, ka: int, kb: int) -> tuple[int, int]:
    """(key, e) with [x^a d_i, x^b d_j] = e * (the monomial at key) for the
    keys ka, kb of two `un` monomials; e is 0 when the bracket is 0.

    The bracket is b_i x^(a+b-e_i) d_j - a_j x^(a+b-e_j) d_i, and a `un`
    monomial x^a d_i is free of x_i ... x_n: so a_j = 0 unless j < i, and
    b_i = 0 unless i < j.  At most one half is nonzero, none when i = j.
    """
    shift = c.slot_shift
    i, j = ka >> shift, kb >> shift
    if i < j:
        e = c.exponent(kb, i - 1)
        if not e:
            return 0, 0
        key = kb - c.var_units[i - 1] + (ka & c.low)
    elif j < i:
        e = -c.exponent(ka, j - 1)
        if not e:
            return 0, 0
        key = ka - c.var_units[j - 1] + (kb & c.low)
    else:
        return 0, 0
    if key & c.guard:
        raise _limit_error()
    return key, e


def _clear_column(quot: SpanBasis, row: Row, pivot: int) -> bool:
    """Clear column pivot from the rows of quot with row, a primitive row
    with a positive entry there; True when that lowers quot's rank.

    The rows of quot that hold pivot are taken out, which leaves the rest
    reduced, cleared by `_eliminate` and put back through `_add_row`, which
    reduces them again.  One row spans the cleared column, so the rank drops
    by one at most.
    """
    held = [p for p, other in quot._rows.items() if pivot in other]
    if not held:
        return False
    dim = quot.dim
    cleared = [quot._rows.pop(p) for p in held]
    quot._multi.difference_update(held)
    for other in cleared:
        _eliminate(other, row, pivot)
        quot._add_row(other)
    return quot.dim < dim


def _direct_sum(derived: SpanBasis, quot: SpanBasis) -> SpanBasis:
    """The span of the rows of derived and quot, for a quot whose rows
    vanish in every pivot column of derived; derived is left as it was.

    Each row of quot is reduced already, so `_add_row` stores it as it is
    and clears its pivot from the rows of more than one term, which are
    therefore copies.  The unit rows, which nothing modifies, are shared.
    """
    out = SpanBasis(derived.n, [])
    rows = out._rows = dict(derived._rows)
    for p in derived._multi:
        rows[p] = dict(rows[p])
    out._multi = set(derived._multi)
    out._basis = None
    for row in quot._rows.values():
        out._add_row(row)
    return out


def lie_closure(gens: Iterable[Derivation], *,
                degree_cap: int = DEFAULT_DEGREE_CAP,
                dim_cap: int = DEFAULT_DIM_CAP) -> LieClosureResult:
    """Saturate the span of gens under brackets.

    A worklist holds spanning elements: first the generators that extend the
    span, then one for every bracket that does.  Each element is bracketed
    once with each generator before it that still brackets (see below).  A
    span V that contains the generators S and has [s, V] inside V for every
    s in S is the Lie algebra S generates, since it holds every right-normed
    bracket of elements of S.  So when the list is exhausted the span is
    bracket-closed ("closed").  A bracket with a coefficient of total degree
    above degree_cap stops with "degree_cap_exceeded" and that pair; the
    span growing past dim_cap stops with "dim_cap_exceeded" at once.  The
    result records S, the generators that extended the span, in input
    order, and no other element.  A generator already above degree_cap is a
    ValueError, so every element of a returned basis has coefficient degree
    at most degree_cap.  An empty gens is a ValueError too, and so is a
    generator in another number of variables than the first; a generator
    that is not a Derivation is a TypeError.

    L is kept as two spans, L = derived + span(quot): derived, the span of
    every nonzero bracket, and quot, at most g rows that span the generators
    modulo derived, kept zero in every pivot column of derived and reduced
    among themselves.  Each bracket is reduced once, into derived.  Inside
    derived, it is inside L.  New there, with pivot p, it clears column p
    from the rows of quot (`_clear_column`): if quot's rank stays, the
    bracket is new in L and adjoined; if it drops, the bracket lay in
    span(S) + the brackets before it.  Either way dim L = dim derived +
    dim quot, and every adjoin decision is that of one span of L.  On the
    stop, L's reduced basis is the rows of both (`_direct_sum`), and a
    closed result carries derived, which is then [S, L] = [L, L], to start
    the series.

    The element adjoined for a bracket is the primitive row that derived
    just stored for it (a copy: later pivots edit stored rows in place), a
    positive multiple of the bracket less a part of derived, which lies in
    the span of the elements before it.  So the elements span L as the
    brackets would, with fewer terms to bracket.

    When every generator is one `un` monomial c x^a d_i, every bracket is
    one monomial or zero (`_monomial_bracket`), and distinct monomials are
    independent: the span is the set of its keys.  So each pair is bracketed
    on the two keys, and a new key is stored as its reduced row {key: 1}
    (`SpanBasis._add_key`), with no row kernel: a new key of derived is new
    in L unless it is a generator's key, whose row then leaves quot.
    Such an L is nilpotent (see `_series`), and a subset of it generates it
    exactly when it spans L / [L, L] (Jacobson, Lie Algebras, 1962, ch. I).
    A generator whose key has left quot lies in derived, inside [L, L], so
    the generators S' still in quot span L / [L, L] and generate L: the
    walk brackets each element only with them, and two generators when
    either one is in S'.  The elements then span a V in L that holds S' and
    [S', V], so V = L, and derived holds [S', L] = [L, L].

    Whichever the walk, it closes exactly when L fits both caps: its
    brackets lie in L, and on closing its elements span L.  But which cap
    stops it, the offending pair and the capped basis depend on the walk,
    so a stop walks again, pinned (`_walk`): each element is its bracket as
    computed and every generator brackets to the end, the walk whose stops
    are the same on rows and on keys.
    """
    _check_int(degree_cap, "degree cap", 1)
    _check_int(dim_cap, "dimension cap", 1)
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        _check_derivation(g)
        _check_same_n(g.n, gens[0].n)  # gens[0] is checked first
        deg = g.max_coeff_degree()
        if deg is not None and deg > degree_cap:
            raise ValueError(f"generator {g} has coefficient degree {deg}, "
                             f"above degree_cap {degree_cap}")
    n = gens[0].n
    keys = _un_monomials(n, gens)
    result = _walk(n, gens, keys, degree_cap, dim_cap, pinned=False)
    if result is None:  # a cap stop
        result = _walk(n, gens, keys, degree_cap, dim_cap, pinned=True)
    return result


def _walk(n: int, gens: list[Derivation], keys: list[int] | None, degree_cap: int,
          dim_cap: int, pinned: bool) -> LieClosureResult | None:
    """One walk of `lie_closure` over its checked gens, on their keys when
    keys is not None.  Unpinned, it adjoins the rows derived stored, stops
    bracketing by a generator whose key leaves quot, and returns None on a
    cap stop; pinned, it adjoins each bracket as computed, a Derivation,
    brackets by every generator, and returns the capped result."""
    c = codec(n)
    derived = SpanBasis(n, [])  # the span of the nonzero brackets
    quot = SpanBasis(n, [])  # the generators modulo derived
    # each element ends with its value, a Derivation, or None unpinned
    if keys is None:  # (row, its row_support, its coefficient degree, value)
        elems = [(g._terms, *row_support(n, g._terms), g.max_coeff_degree(), g)
                 for g in gens if quot._add_row(g._terms) is not None]
    else:  # (key, value)
        elems = [(key, g) for g, key in zip(gens, keys) if quot._add_key(key)]
    num_gens = len(elems)
    kept = tuple(e[-1] for e in elems)
    live = elems[:num_gens]  # the generators that still bracket
    dead: set[int] = set()  # the positions of the others

    def stop(status, *offending):
        if not pinned:
            return None
        return LieClosureResult(status, _direct_sum(derived, quot), kept, offending or None)

    def pairs():
        # each element with each live generator before it, and two
        # generators when either one is live; read while elems grows
        for j, b in enumerate(elems):
            if j >= num_gens:
                partners = live
            elif j in dead:
                partners = [a for i, a in enumerate(elems[:j]) if i not in dead]
            else:
                partners = elems[:j]
            for a in partners:
                yield a, b

    if quot.dim > dim_cap:
        return stop("dim_cap_exceeded")
    if keys is None:
        for (ra, pa, sa, da, va), (rb, pb, sb, db, vb) in pairs():
            if not signatures_meet(n, sa, sb):
                continue
            br = bracket_rows(ra, pa, rb, pb)
            if not br:
                continue
            # [a, b] has coefficient degree at most da + db - 1
            if da + db > degree_cap + 1 and max(map(c.degree, br)) > degree_cap:
                return stop("degree_cap_exceeded", va, vb)
            pivot = derived._add_row(br)
            if pivot is None or _clear_column(quot, derived._rows[pivot], pivot):
                continue
            if pinned:
                value = Derivation._from_terms(n, br, va._den * vb._den)
                row = value._terms
            else:
                value, row = None, dict(derived._rows[pivot])
            elems.append((row, *row_support(n, row), max(map(c.degree, row)), value))
            if derived.dim + quot.dim > dim_cap:
                return stop("dim_cap_exceeded")
    else:
        position = {key: i for i, (key, _) in enumerate(live)}
        for (ka, va), (kb, vb) in pairs():
            key, e = _monomial_bracket(c, ka, kb)
            if not e:
                continue
            if c.degree(key) > degree_cap:
                return stop("degree_cap_exceeded", va, vb)
            if not derived._add_key(key):
                continue
            if key in quot._rows:  # a generator's key: its row {key: 1} is cleared
                del quot._rows[key]
                if not pinned:  # the generator lies in [L, L]: it stops bracketing
                    dead.add(position[key])
                    live = [a for i, a in enumerate(elems[:num_gens]) if i not in dead]
                continue
            value = None
            if pinned:
                value = Derivation._from_terms(n, {key: e * va._terms[ka] * vb._terms[kb]},
                                               va._den * vb._den)
            elems.append((key, value))
            if derived.dim + quot.dim > dim_cap:
                return stop("dim_cap_exceeded")
    return LieClosureResult("closed", _direct_sum(derived, quot), kept, None, derived)


class SeriesReport(NamedTuple):
    """Dimensions of successive series terms plus a termination verdict.

    verdict is "solvable" (derived series reached zero; length = derived
    length), "nilpotent" (lower central series reached zero; length =
    nilpotency class), or "stabilized_nonzero" (two consecutive terms span
    the same nonzero space; stabilized_at = first repeated step).  One of
    the three is always reached: each term is an ideal inside the one
    before, so every step that does not stabilize lowers the dimension, and
    at most dim(L) steps decide.
    """

    dims: tuple[int, ...]
    verdict: str
    length: int | None = None
    stabilized_at: int | None = None

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "verdict": self.verdict,
            "length": self.length,
            "stabilized_at": self.stabilized_at,
        }


def _meeting_pairs(n: int, ops: list[Operand]) -> Iterator[tuple[Operand, Operand]]:
    """The pairs of ops whose signatures meet (`signatures_meet`), each
    once, in `itertools.combinations` order.

    Rows meet when one has a term in a slot j and the other depends on x_j,
    so a row's partners are the later rows that hold bit n + j of its slot
    bits j, or bit j of its variable bits n + j: one small set per row.
    """
    bits = range(1, 2 * n + 1)
    holders: list[list[int]] = [[] for _ in range(2 * n + 1)]  # bit -> rows with it
    for i, (_, _, sig) in enumerate(ops):
        for bit in bits:
            if sig >> bit & 1:
                holders[bit].append(i)
    for i, (_, _, sig) in enumerate(ops):
        partners: set[int] = set()
        for bit in bits:
            if sig >> bit & 1:  # slot bit j meets variable bit n + j, and back
                rows = holders[bit + n if bit <= n else bit - n]
                partners.update(rows[bisect_right(rows, i):])
        for k in sorted(partners):
            yield ops[i], ops[k]


def _bracket_span(n: int, pairs: Iterable[tuple[Operand, Operand]]) -> SpanBasis:
    """The span of the brackets of pairs of operands."""
    out = SpanBasis(n, [])
    for (a, pa, _), (b, pb, _) in pairs:
        out._add_row(bracket_rows(a, pa, b, pb))
    return out


Kept = dict[int, tuple[Row, list[Row]]]  # pivot -> (row, its nonzero [S, row])


def _generator_step(n: int, gens: list[Operand], term: SpanBasis,
                    kept: Kept) -> tuple[SpanBasis, Kept]:
    """span [S, term] for the generator operands gens, and term's rows each
    with its nonzero brackets with gens.

    A row of term that equals the one kept for its pivot from the term
    before (exact integer rows, so the same element) takes its kept brackets
    instead of being bracketed again.  A pivot alone is no key: a row can
    change while its pivot stays.
    """
    out = SpanBasis(n, [])
    brackets: Kept = {}
    for pivot, row in term._rows.items():
        old = kept.get(pivot)
        if old is not None and old[0] == row:
            rows = old[1]
        else:
            partials, sig = row_support(n, row)
            rows = [br for s, ps, ss in gens if signatures_meet(n, ss, sig)
                    and (br := bracket_rows(s, ps, row, partials))]
        brackets[pivot] = (row, rows)
        for br in rows:
            out._add_row(br)
    return out, brackets


def _monomial_derived_term(c: KeyCodec, keys: Iterable[int]) -> set[int]:
    """The keys of [M, M] for a set M of `un` monomial keys.

    For i < j, [x^a d_i, x^b d_j] is a multiple of one monomial when b_i > 0
    and zero otherwise (`_monomial_bracket`), so the pairs that meet are
    each key of a slot i with each key holding x_i, found from one list per
    slot and one per variable, each pair once.
    """
    n, shift = c.n, c.slot_shift
    in_slot: list[list[int]] = [[] for _ in range(n)]  # i -> the keys of slot i < n
    holding: list[list[int]] = [[] for _ in range(n)]  # i -> the keys holding x_i, i < n
    for key in keys:
        slot = key >> shift
        if slot < n:
            in_slot[slot].append(key)
        for i in range(1, slot):  # a `un` monomial of slot s is free of x_s .. x_n
            if c.exponent(key, i - 1):
                holding[i].append(key)
    return {_monomial_bracket(c, ka, kb)[0]
            for i in range(1, n) for ka in in_slot[i] for kb in holding[i]}


def _monomial_series(n: int, keys: Collection[int], derived: Collection[int], *,
                     lower_central: bool) -> SeriesReport:
    """The series of a nilpotent span L of `un` monomials, from its keys and
    those of [L, L].

    The keys of L outside [L, L] generate L (see `_series`).  Each term of
    a nilpotent L is smaller than the one before until zero, so neither
    series stabilizes.
    """
    if lower_central:
        return _monomial_lower_series(n, [key for key in keys if key not in derived], keys)
    c = codec(n)
    dims = [len(keys)]
    current = keys
    while current:
        current = derived if len(dims) == 1 else _monomial_derived_term(c, current)
        dims.append(len(current))
    return SeriesReport(tuple(dims), "solvable", length=len(dims) - 1)


def _monomial_lower_series(n: int, gens: list[int], keys: Iterable[int]) -> SeriesReport:
    """The lower central series of the span of keys, a set of `un` monomials
    closed under brackets and generated by the keys gens, all in n variables.

    Every [S, L^k] is a span of monomials, so each L^k is the set of keys
    of depth >= k, where a key's depth is 1, or 1 + the largest depth of a
    key z with [s, z] a multiple of it for some s in S.  With c the largest
    generator degree, every generator weighs -1 or less (`KeyCodec.weight`)
    and [s, z] weighs w(s) + w(z) < w(z).  So relaxing the keys in
    decreasing weight order finishes every z before the keys it brackets
    into: one pass gives every depth, and the dims are counts.
    """
    c = codec(n)
    top = max(map(c.degree, gens), default=0)
    depth = dict.fromkeys(keys, 1)
    for z in sorted(depth, key=lambda key: c.weight(key, top), reverse=True):
        above = depth[z] + 1
        for s in gens:
            key, e = _monomial_bracket(c, s, z)
            if e and depth[key] < above:
                depth[key] = above
    length = max(depth.values(), default=0)
    at = [0] * (length + 1)  # at[k - 1]: the keys of depth k
    for d in depth.values():
        at[d - 1] += 1
    # dim L^k counts depth >= k, for k = 1 .. length + 1 (the last is 0)
    dims = tuple(itertools.accumulate(reversed(at)))[::-1]
    return SeriesReport(dims, "nilpotent", length=length)


def _series(algebra: LieClosureResult, *, lower_central: bool) -> SeriesReport:
    """The series of a closed result of `lie_closure`, bracketing by a
    generating set.

    If S generates L, then [L, M] = span [S, M] for every ideal M of L, the
    terms L^k among them: L is spanned by right-normed brackets z of elements
    of S, and [[s, z], x] = [s, [z, x]] - [z, [s, x]] (Jacobi) gives
    induction on the length of z.  The first step, [L, L] = span [S, L], is
    the span of the brackets that lie_closure carries, with nothing
    bracketed or reduced again.  Each later lower central step
    (`_generator_step`) brackets the generating set only with the rows of
    L^k that L^(k-1) did not hold unchanged, and keeps the brackets of L^k
    alone, so memory holds one term's brackets; spans are canonical, so no
    basis or dimension depends on the reuse.  Each later derived step
    brackets only the pairs of rows whose signatures meet (`_meeting_pairs`).

    The closed result picks the path, by the level of each generator term
    (`_un_term`).  For c the largest generator degree, a term weighs -1 or
    less (`KeyCodec.weight`) exactly when it is a `un` term: a `un` term of
    slot i weighs at most c w(x_(i-1)) - w(x_i) = -1, and a term holding
    some x_j, j >= i, at least w(x_j) - w(x_i) >= 0.  So when every
    generator term is a `un` term, every term of L weighs -1 or less too,
    since a bracket's terms weigh the sum of its operands' weights: L^k
    lies in the span of the terms of weight <= -k, and L, of finite
    dimension, is nilpotent.  A subset of a nilpotent L generates it
    exactly when it spans L / [L, L] (Jacobson, Lie Algebras, 1962, ch. I),
    so the rows of L whose pivots are no pivots of [L, L], dim L - dim
    [L, L] of them, take the place of S.  If L's rows are moreover one
    monomial each, so are those of [L, L], the reduced basis of a span of
    monomials, and both series run on the key sets of their terms
    (`_monomial_series`).
    """
    if not isinstance(algebra, LieClosureResult):
        raise TypeError(f"the series take a lie_closure result, not {type(algebra).__name__}")
    if not algebra.closed:
        raise ValueError(f"closure status is {algebra.status}, not closed")
    if algebra._derived is None:
        raise ValueError("a closed result built by hand carries no [L, L]; run lie_closure")
    start, derived = algebra.basis, algebra._derived  # L and [L, L]
    n = start.n
    c = codec(n)
    nilpotent = all(_un_term(c, key) for g in algebra.generators for key in g._terms)
    if nilpotent and not start._multi:
        return _monomial_series(n, start._rows, derived._rows, lower_central=lower_central)
    if nilpotent:  # the rows of L that span L / [L, L]
        rows = [row for pivot, row in start._rows.items() if pivot not in derived._rows]
    else:
        rows = [g._terms for g in algebra.generators]
    gens = [(row, *row_support(n, row)) for row in rows]
    zero_verdict = "nilpotent" if lower_central else "solvable"
    current = start
    dims = [current.dim]
    step = 0
    kept: Kept = {}  # lower central: current's rows and their brackets with S
    while current.dim:
        step += 1
        if step == 1:
            nxt = derived
        elif lower_central:
            nxt, kept = _generator_step(n, gens, current, kept)
        else:
            nxt = _bracket_span(n, _meeting_pairs(n, current._operands()))
        dims.append(nxt.dim)
        # nxt lies inside current, so equal dimensions mean equal spans
        if nxt.dim == current.dim:
            return SeriesReport(tuple(dims), "stabilized_nonzero", stabilized_at=step)
        current = nxt
    return SeriesReport(tuple(dims), zero_verdict, length=step)


def derived_series(algebra: LieClosureResult) -> SeriesReport:
    """L, [L,L], [[L,L],[L,L]], ... on a closed result of `lie_closure`,
    whose [L, L] is span [S, L] for its generators S."""
    return _series(algebra, lower_central=False)


def lower_central_series(algebra: LieClosureResult) -> SeriesReport:
    """L, [L,L], [L,[L,L]], ... on a closed result of `lie_closure`, whose
    every [L, L^k] is span [S, L^k] for any set S that generates L.

    When the generators' terms are all `un` terms, L is nilpotent and the
    rows of L outside [L, L] generate it, so they take the place of the
    generators.  When L is moreover a span of monomials, the series is one
    pass over L's keys in decreasing weight order (`_monomial_lower_series`),
    which brackets each key with each of those rows once; the input checks
    come first either way.
    """
    return _series(algebra, lower_central=True)
