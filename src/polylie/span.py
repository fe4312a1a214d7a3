"""Finite-dimensional linear algebra over Q for sets of derivations.

Derivations are coordinatized against the monomial support of their
coefficients: a coordinate is a pair (slot, monomial) meaning the given
monomial inside the coefficient of d_slot.  Columns are ordered by slot
ascending, then graded-lex descending within a slot.

`SpanBasis` is the one span kernel.  It keeps sparse rows keyed by their
pivot coordinate, in reduced row echelon form at all times: `add` reduces a
derivation once against the stored rows and inserts the residual only if it
is nonzero.  Pivots are normalized to 1 and all arithmetic is exact.  The
reduced row echelon form is unique for a given row space and column order,
so equal spans produce identical bases whatever order the generators come in.

Series computations (derived, lower central) operate on bracket-closed
spans only; closure itself is produced by `lie_closure` under explicit
degree and dimension caps.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .derivation import Derivation
from .polyring import Monomial, Polynomial

DEFAULT_DEGREE_CAP = 12
DEFAULT_DIM_CAP = 512

Coordinate = tuple[int, Monomial]
Row = dict[Coordinate, Fraction]


def _column_key(c: Coordinate) -> tuple:
    """Column order: slots ascending, monomials graded-lex descending within."""
    slot, mono = c
    return (slot, -sum(mono), tuple(-e for e in mono))


class SpanBasis:
    """Reduced basis of the rational span of a finite set of derivations."""

    __slots__ = ("n", "_rows", "_pivots", "_basis")

    def __init__(self, n: int, gens: Iterable[Derivation]):
        self.n = n
        self._rows: dict[Coordinate, Row] = {}  # pivot -> row, 1 at the pivot
        self._pivots: list[Coordinate] = []  # in column order
        self._basis: tuple[Derivation, ...] | None = ()
        for d in gens:
            self.add(d)

    @property
    def basis(self) -> tuple[Derivation, ...]:
        """The reduced rows as derivations, in order of their pivot columns."""
        if self._basis is None:
            self._basis = tuple(self._derivation(self._rows[p]) for p in self._pivots)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def __len__(self) -> int:
        return len(self._pivots)

    def __iter__(self):
        return iter(self.basis)

    def _derivation(self, row: Row) -> Derivation:
        per_slot: list[dict[Monomial, Fraction]] = [dict() for _ in range(self.n)]
        for (slot, mono), c in row.items():
            per_slot[slot - 1][mono] = c
        return Derivation(self.n, [Polynomial._from_terms(self.n, t) for t in per_slot])

    def _reduce(self, d: Derivation) -> Row:
        """The residual of d after subtracting its part in the span.

        Every stored row vanishes in the pivot columns of the others, so the
        multiple of a row to subtract is d's own entry in its pivot column.
        """
        if d.n != self.n:
            raise ValueError(f"ambient dimension mismatch: {d.n} vs {self.n}")
        residual = {(pos + 1, mono): c
                    for pos, f in enumerate(d.coeffs) for mono, c in f}
        combo = {p: c for p, c in residual.items() if p in self._rows}
        for p, c in combo.items():
            for col, x in self._rows[p].items():
                value = residual.get(col, 0) - c * x
                if value:
                    residual[col] = value
                else:
                    del residual[col]
        return residual

    def add(self, d: Derivation) -> bool:
        """Adjoin d to the span; False, with nothing changed, if d is inside."""
        residual = self._reduce(d)
        if not residual:
            return False
        pivot = min(residual, key=_column_key)
        inv = 1 / residual[pivot]
        row = {col: x * inv for col, x in residual.items()}
        for other in self._rows.values():
            c = other.get(pivot)
            if c:
                for col, x in row.items():
                    value = other.get(col, 0) - c * x
                    if value:
                        other[col] = value
                    else:
                        del other[col]
        self._rows[pivot] = row
        insort(self._pivots, pivot, key=_column_key)
        self._basis = None
        return True

    def contains(self, d: Derivation) -> bool:
        return not self._reduce(d)

    def same_span(self, other: SpanBasis) -> bool:
        """Exact span equality: the reduced bases are equal."""
        return self.n == other.n and self._rows == other._rows

    def pairwise_brackets(self) -> list[Derivation]:
        return [a.bracket(b) for a, b in itertools.combinations(self.basis, 2)]

    def is_bracket_closed(self) -> bool:
        return all(self.contains(b) for b in self.pairwise_brackets())

    def __repr__(self) -> str:
        return f"SpanBasis(n={self.n}, dim={self.dim})"


def coordinatize(gens: Iterable[Derivation], n: int | None = None) -> SpanBasis:
    """Reduced basis of the span of gens; n is required when gens is empty."""
    gens = list(gens)
    if gens:
        n = gens[0].n
    elif n is None:
        raise ValueError("ambient dimension required for an empty generating set")
    return SpanBasis(n, gens)


@dataclass(frozen=True)
class LieClosureResult:
    """Outcome of saturating a span under brackets, subject to caps.

    basis spans everything adjoined before the stop.  On
    "degree_cap_exceeded", offending_bracket is the pair (a, b) of span
    elements whose bracket [a, b] has a coefficient of total degree above the
    cap.
    """

    status: str  # "closed" | "degree_cap_exceeded" | "dim_cap_exceeded"
    basis: SpanBasis
    offending_bracket: tuple[Derivation, Derivation] | None = None

    @property
    def closed(self) -> bool:
        return self.status == "closed"


def lie_closure(gens: Iterable[Derivation], *,
                degree_cap: int = DEFAULT_DEGREE_CAP,
                dim_cap: int = DEFAULT_DIM_CAP) -> LieClosureResult:
    """Saturate the span of gens under brackets.

    A worklist holds spanning elements: first the generators that extend the
    span, then every bracket that does.  Each element is bracketed once with
    each element before it, so when the list is exhausted every bracket of
    two spanning elements lies in the span and the span is bracket-closed
    ("closed").  A bracket with a coefficient of total degree above
    degree_cap stops with "degree_cap_exceeded" and that pair; the span
    growing past dim_cap stops with "dim_cap_exceeded" at once.  A generator
    already above degree_cap is a ValueError, so every element of a
    returned basis has coefficient degree at most degree_cap.  An empty gens
    is a ValueError too.
    """
    if degree_cap < 1 or dim_cap < 1:
        raise ValueError("caps must be >= 1")
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        deg = g.max_coeff_degree()
        if deg is not None and deg > degree_cap:
            raise ValueError(f"generator {g} has coefficient degree {deg}, "
                             f"above degree_cap {degree_cap}")
    basis = SpanBasis(gens[0].n, [])
    elems = [g for g in gens if basis.add(g)]
    if basis.dim > dim_cap:
        return LieClosureResult("dim_cap_exceeded", basis)
    for j, b in enumerate(elems):  # the loop also visits elements appended below
        for a in elems[:j]:
            br = a.bracket(b)
            deg = br.max_coeff_degree()
            if deg is not None and deg > degree_cap:
                return LieClosureResult("degree_cap_exceeded", basis, (a, b))
            if basis.add(br):
                elems.append(br)
                if basis.dim > dim_cap:
                    return LieClosureResult("dim_cap_exceeded", basis)
    return LieClosureResult("closed", basis)


@dataclass(frozen=True)
class SeriesReport:
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


def _series(start: SpanBasis, *, lower_central: bool) -> SeriesReport:
    brackets = start.pairwise_brackets()
    if not all(start.contains(b) for b in brackets):
        raise ValueError("span is not bracket-closed; run lie_closure first")
    zero_verdict = "nilpotent" if lower_central else "solvable"
    current = start
    dims = [current.dim]
    step = 0
    while current.dim:
        step += 1
        if step == 1:
            gens = brackets  # [L, L] starts both series
        elif lower_central:
            gens = [a.bracket(b) for a in start.basis for b in current.basis]
        else:
            gens = current.pairwise_brackets()
        nxt = SpanBasis(start.n, gens)
        dims.append(nxt.dim)
        # nxt lies inside current, so equal dimensions mean equal spans
        if nxt.dim == current.dim:
            return SeriesReport(tuple(dims), "stabilized_nonzero", stabilized_at=step)
        current = nxt
    return SeriesReport(tuple(dims), zero_verdict, length=step)


def derived_series(basis: SpanBasis) -> SeriesReport:
    """L, [L,L], [[L,L],[L,L]], ... on a bracket-closed span."""
    return _series(basis, lower_central=False)


def lower_central_series(basis: SpanBasis) -> SeriesReport:
    """L, [L,L], [L,[L,L]], ... on a bracket-closed span."""
    return _series(basis, lower_central=True)
