"""The strictly triangular and triangular subalgebras of W_n.

Two reference subalgebras organize everything here, keyed by the short
names "un" and "sn":

  un: derivations whose i-th coefficient depends only on x_1 ... x_{i-1}
      (constants for i = 1).  Every element is locally nilpotent.
  sn: derivations whose i-th coefficient has the shape p + q * x_i with
      p, q depending only on x_1 ... x_{i-1}.  Solvable, with derived
      length exactly 2n.

Membership is decided monomial by monomial, and the same per-monomial rule
drives the term split in `strip_canonical_part`.  The
derived-chain search produces explicit nested-bracket expressions over
truncated generator sets witnessing the derived-length lower bound.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Sequence, Union

from .derivation import Derivation, Partials, Row, bracket_rows, row_support, signatures_meet
from .polyring import Monomial, Polynomial, codec
from .reductions import EigenvectorCertificate, eigenvector_certificate
from .span import SpanBasis

Which = Literal["un", "sn"]

UN_REASON_DEPENDS_HIGHER = "depends_on_xj_with_j_gt_i"
SN_REASON_DEGREE = "xi_degree_exceeds_1"
UN_REASON_DEGREE = "xi_degree_exceeds_0_for_un"

# the slot violations (see _slot_violation) each subalgebra admits
_ADMITTED = {"un": (None,), "sn": (None, UN_REASON_DEGREE)}


def _check_which(which: str) -> None:
    if which not in _ADMITTED:
        raise ValueError(f"subalgebra name must be 'un' or 'sn', got {which!r}")


def _slot_violation(i: int, mono: Monomial) -> str | None:
    """Why monomial * d_i lies outside un, or None if it lies inside."""
    if any(mono[pos] > 0 for pos in range(i, len(mono))):
        return UN_REASON_DEPENDS_HIGHER
    if mono[i - 1] >= 2:
        return SN_REASON_DEGREE
    if mono[i - 1] == 1:
        return UN_REASON_DEGREE
    return None


def _row_violations(d: Derivation) -> Iterator[tuple[int, int, str | None]]:
    """(key, slot, _slot_violation) for each term of d's row, in row order."""
    c = codec(d.n)
    for key in d._terms:
        slot = key >> c.slot_shift
        yield key, slot, _slot_violation(slot, c.unpack(key))


@dataclass(frozen=True)
class MembershipVerdict:
    in_un: bool
    in_sn: bool
    violations: tuple[tuple[int, str], ...]

    def to_dict(self) -> dict:
        return {
            "in_un": self.in_un,
            "in_sn": self.in_sn,
            "violations": [{"slot": i, "reason": r} for i, r in self.violations],
        }


def membership(d: Derivation) -> MembershipVerdict:
    """Decide membership in un and sn, with per-slot violation reasons."""
    seen = dict.fromkeys((slot, why) for _, slot, why in _row_violations(d))
    # slots ascending; the stable sort keeps first-seen order within a slot
    violations = sorted((v for v in seen if v[1]), key=lambda v: v[0])
    in_un = not violations
    in_sn = all(r in _ADMITTED["sn"] for _, r in violations)
    return MembershipVerdict(in_un, in_sn, tuple(violations))


def strip_canonical_part(d: Derivation, which: Which) -> tuple[Derivation, Derivation]:
    """Split d = remainder + stripped with stripped in the chosen subalgebra.

    The split is term-by-term: a monomial of the i-th coefficient goes to
    the stripped part exactly when it satisfies the slot-i condition, so the
    remainder keeps only irreducibly violating terms and re-stripping it
    removes nothing.
    """
    _check_which(which)
    admitted = _ADMITTED[which]
    allowed: Row = {}
    violating: Row = {}
    for key, _, why in _row_violations(d):
        (allowed if why in admitted else violating)[key] = d._terms[key]
    # both halves keep d's denominator; _from_terms reduces each
    remainder = Derivation._from_terms(d.n, violating, d._den)
    stripped = Derivation._from_terms(d.n, allowed, d._den)
    verdict = membership(stripped)
    assert verdict.in_un if which == "un" else verdict.in_sn
    return remainder, stripped


def _monomials_in_prefix(n: int, prefix_len: int, max_degree: int) -> Iterator[int]:
    """Packed keys of the monomials in x_1 ... x_{prefix_len} of degree at
    most max_degree (only the constant one when prefix_len is 0)."""
    units = codec(n).var_units
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(prefix_len), total):
            yield sum(units[pos] for pos in combo)


def generators(which: Which, n: int, degree_cap: int) -> list[Derivation]:
    """All monomial derivations m * d_i of total degree at most degree_cap
    that the chosen subalgebra admits.

    For each slot i and each monomial m in x_1 ... x_{i-1}, the terms
    m * x_i^e * d_i for e = 0, 1, ... are kept while `_slot_violation`
    admits them.  Order is deterministic: slot-major, then by the degree of
    m and the enumeration order of its exponent tuple, then by e.
    """
    _check_which(which)
    if n < 1 or degree_cap < 0:
        raise ValueError("need n >= 1 and degree_cap >= 0")
    # a new list each call: callers may sort or extend the one they get
    return list(_generator_pool(which, n, degree_cap))


@functools.cache
def _generator_pool(which: Which, n: int, degree_cap: int) -> tuple[Derivation, ...]:
    """The pool `generators` lists, built once per argument triple."""
    admitted = _ADMITTED[which]
    c = codec(n)
    out: list[Derivation] = []
    for i in range(1, n + 1):
        for m in _monomials_in_prefix(n, i - 1, degree_cap):
            for e in range(degree_cap - c.degree(m) + 1):
                term = c.unpack(m + e * c.var_units[i - 1])
                if _slot_violation(i, term) not in admitted:
                    break
                out.append(Derivation.monomial_term(n, term, i))
    return tuple(out)


@dataclass(frozen=True)
class NilpotencyWitness:
    """Per-variable iteration chains x_i, D(x_i), D^2(x_i), ..., 0.

    lengths[i-1] is the first power of D that kills x_i; the chain for x_i
    has that many nonzero entries followed by the zero polynomial.
    """

    chains: tuple[tuple[Polynomial, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(chain) - 1 for chain in self.chains)


@dataclass(frozen=True)
class LndVerdict:
    """Outcome of the local-nilpotency semi-decision.

    status "witness": all variable chains terminated; D is locally
    nilpotent because the variables generate the whole ring and the
    locally-annihilated elements form a subalgebra.

    status "not_nilpotent": D is homogeneous linear and D^n leaves some x_i
    nonzero, so that variable's chain never dies; linear_part holds D's
    matrix rows (see Derivation.as_linear).
    When a small search finds an exact ad-eigenvector relation [D,E] = cE
    (or the double-bracket variant) it is attached as `certificate`.

    status "inconclusive": neither route decided within the bound.
    """

    status: str  # "witness" | "not_nilpotent" | "inconclusive"
    bound: int
    witness: NilpotencyWitness | None = None
    certificate: EigenvectorCertificate | None = None
    linear_part: tuple[tuple[Fraction, ...], ...] | None = None


def _eigen_candidates(n: int) -> Iterator[Derivation]:
    xs = [Polynomial.variable(n, i) for i in range(1, n + 1)]
    ds = [Derivation.partial(n, j) for j in range(1, n + 1)]
    for i, x in enumerate(xs):
        for j, d in enumerate(ds):
            if i != j:
                yield x * d
    for x in xs:
        for d in ds:
            yield x * x * d


def triangular_chain_bound(n: int, degree_cap: int) -> int:
    """Iteration bound guaranteeing chain termination for un elements.

    Assign x_1 weight 1 and x_{i+1} weight degree_cap * weight(x_i) + 1;
    any un element with coefficient degree <= degree_cap strictly lowers
    weight, so the chain of x_n dies within weight(x_n) + 1 steps.
    """
    w = 1
    for _ in range(n - 1):
        w = degree_cap * w + 1
    return w + 2


def _power(d: Derivation, k: int, f: Polynomial) -> Polynomial:
    """D^k(f), by k applications of d."""
    for _ in range(k):
        f = d.apply(f)
    return f


def lnd_check(d: Derivation, bound: int) -> LndVerdict:
    """Semi-decide local nilpotency of d by chain iteration up to bound.

    Honest three-way verdict: a terminating chain set is a proof, a
    non-nilpotent linear part is a refutation, anything else stays
    inconclusive rather than guessing.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    # A homogeneous linear D maps span{x_1..x_n} into itself by its matrix,
    # so it is locally nilpotent exactly when that matrix is nilpotent, which
    # holds exactly when D^n kills every x_i.  Otherwise some chain never
    # dies, so this refutation is tried before iterating the chains.
    rows = d.as_linear()
    if rows is not None and any(not _power(d, d.n, Polynomial.variable(d.n, i)).is_zero()
                                for i in range(1, d.n + 1)):
        cert = None
        for e in _eigen_candidates(d.n):
            cert = eigenvector_certificate(d, e)
            if cert is not None:
                break
        return LndVerdict("not_nilpotent", bound, certificate=cert, linear_part=rows)

    chains: list[tuple[Polynomial, ...]] = []
    for i in range(1, d.n + 1):
        chain = [Polynomial.variable(d.n, i)]
        for _ in range(bound):
            chain.append(d.apply(chain[-1]))
            if chain[-1].is_zero():
                break
        else:
            return LndVerdict("inconclusive", bound)
        chains.append(tuple(chain))
    return LndVerdict("witness", bound, witness=NilpotencyWitness(tuple(chains)))


# -- derived-chain witnesses -------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """Reference to a generator by position in the generator list."""

    index: int

    def evaluate(self, gens: Sequence[Derivation]) -> Derivation:
        return gens[self.index]

    def to_sexpr(self) -> str:
        return f"g{self.index + 1}"


@dataclass(frozen=True)
class Bracket:
    left: "BracketExpr"
    right: "BracketExpr"

    def evaluate(self, gens: Sequence[Derivation]) -> Derivation:
        return self.left.evaluate(gens).bracket(self.right.evaluate(gens))

    def to_sexpr(self) -> str:
        return f"[{self.left.to_sexpr()},{self.right.to_sexpr()}]"


BracketExpr = Union[Leaf, Bracket]


@dataclass(frozen=True)
class DerivedChainWitness:
    """A nested-bracket expression within a given derived term, nonzero.

    The expression is balanced: a term-m expression brackets two term-(m-1)
    expressions, grounding out in generators at term 0, so its value lies in
    the m-th derived term of the subalgebra spanned by the generators.
    """

    term: int
    expression: BracketExpr
    value: Derivation
    generators: tuple[Derivation, ...]

    def legend(self) -> dict[str, str]:
        return {f"g{i + 1}": str(g) for i, g in enumerate(self.generators)}

    def to_dict(self) -> dict:
        return {
            "term": self.term,
            "expression": self.expression.to_sexpr(),
            "value": str(self.value),
            "legend": self.legend(),
        }


@dataclass(frozen=True)
class TruncatedSearch:
    """A derived-chain search that found nothing after the beam cut a level.

    Unlike a None result this proves nothing: brackets the beam dropped at
    level cut_at might still reach a nonzero element of the requested term.
    """

    cut_at: int


def derived_chain_witness(n: int, *,
                          term: int | None = None,
                          degree_cap: int | None = None,
                          beam: int = 10_000
                          ) -> DerivedChainWitness | TruncatedSearch | None:
    """Search for a nonzero element of the requested derived term of sn.

    Defaults chase the derived-length lower bound: term 2n - 1 over sn
    generators of degree at most 2n.  The level-synchronous search keeps,
    per depth, at most beam expressions whose values extend the rational span
    of that depth's values; pruning linearly dependent values loses no
    reachable span at later depths.  So when no level was cut by the beam, an
    empty level proves the truncated search space has a zero derived term
    there, and the result is None.  An empty level after a cut gives a
    TruncatedSearch instead.  The last depth stops at its first nonzero
    value, which is the witness returned.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if term is None:
        term = 2 * n - 1
    if term < 0:
        raise ValueError(f"term must be >= 0, got {term}")
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if degree_cap is None:
        degree_cap = 2 * n
    gens = generators("sn", n, degree_cap)
    gens.sort(key=lambda g: (g.max_coeff_degree() or 0))
    pool = tuple(gens)

    # sn generators have coefficient 1, so their integer rows, and the
    # brackets of those rows, are the values themselves
    level: list[tuple[BracketExpr, Row, Partials, int]] = []
    for i, g in enumerate(pool):
        level.append((Leaf(i), g._terms, *row_support(n, g._terms)))
    cut_at = None
    for depth in range(1, term + 1):
        kept: list[tuple[BracketExpr, Row, Partials, int]] = []
        seen = SpanBasis(n, [])
        for (expr_a, a, pa, sa), (expr_b, b, pb, sb) in itertools.combinations(level, 2):
            if len(kept) >= beam:
                cut_at = cut_at or depth
                break
            if not signatures_meet(n, sa, sb):
                continue
            value = bracket_rows(a, pa, b, pb)
            if seen._add_row(value):
                kept.append((Bracket(expr_a, expr_b), value, *row_support(n, value)))
                if depth == term:
                    break  # the last level needs only its first nonzero value
        if not kept:
            return None if cut_at is None else TruncatedSearch(cut_at)
        level = kept

    expr, value, *_ = level[0]
    return DerivedChainWitness(term, expr, Derivation._from_terms(n, value, 1), pool)
