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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Sequence, Union

from .derivation import Derivation
from .polyring import Monomial, Polynomial
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
    violations: list[tuple[int, str]] = []
    in_un = True
    in_sn = True
    for i in range(1, d.n + 1):
        reasons = [_slot_violation(i, mono) for mono, _ in d.coeff(i)]
        for r in dict.fromkeys(filter(None, reasons)):  # dedupe, keep first-seen order
            violations.append((i, r))
            if r not in _ADMITTED["sn"]:
                in_sn = False
            in_un = False
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
    remainder_coeffs: list[Polynomial] = []
    stripped_coeffs: list[Polynomial] = []
    for i in range(1, d.n + 1):
        allowed: dict[Monomial, Fraction] = {}
        violating: dict[Monomial, Fraction] = {}
        for mono, c in d.coeff(i):
            inside = _slot_violation(i, mono) in admitted
            (allowed if inside else violating)[mono] = c
        remainder_coeffs.append(Polynomial._from_terms(d.n, violating))
        stripped_coeffs.append(Polynomial._from_terms(d.n, allowed))
    remainder = Derivation(d.n, remainder_coeffs)
    stripped = Derivation(d.n, stripped_coeffs)
    verdict = membership(stripped)
    assert verdict.in_un if which == "un" else verdict.in_sn
    return remainder, stripped


def _monomials_in_prefix(n: int, prefix_len: int, max_degree: int) -> Iterator[Monomial]:
    """Exponent tuples supported on x_1 ... x_{prefix_len}, degree <= max_degree."""
    if prefix_len == 0:
        yield (0,) * n
        return
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(prefix_len), total):
            exps = [0] * n
            for pos in combo:
                exps[pos] += 1
            yield tuple(exps)


def generators(which: Which, n: int, degree_cap: int) -> list[Derivation]:
    """All monomial derivations m * d_i allowed in the chosen subalgebra.

    For un, m ranges over monomials in x_1 ... x_{i-1}; for sn additionally
    m times x_i to the first power.  Total degree of m (including the x_i
    factor) stays within degree_cap.  Order is deterministic: slot-major,
    then by degree, then by enumeration order of the exponent tuple.
    """
    _check_which(which)
    if n < 1 or degree_cap < 0:
        raise ValueError("need n >= 1 and degree_cap >= 0")
    out: list[Derivation] = []
    for i in range(1, n + 1):
        monos = list(_monomials_in_prefix(n, i - 1, degree_cap))
        if which == "sn":
            extended = []
            for m in monos:
                extended.append(m)
                if sum(m) + 1 <= degree_cap:
                    lifted = list(m)
                    lifted[i - 1] = 1
                    extended.append(tuple(lifted))
            monos = extended
        for m in monos:
            out.append(Derivation.monomial_term(n, m, i))
    return out


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
    chains: list[tuple[Polynomial, ...]] = []
    all_dead = True
    for i in range(1, d.n + 1):
        chain = [Polynomial.variable(d.n, i)]
        terminated = False
        for _ in range(bound):
            nxt = d.apply(chain[-1])
            chain.append(nxt)
            if nxt.is_zero():
                terminated = True
                break
        if not terminated:
            all_dead = False
            break
        chains.append(tuple(chain))
    if all_dead:
        return LndVerdict("witness", bound, witness=NilpotencyWitness(tuple(chains)))

    # A homogeneous linear D maps span{x_1..x_n} into itself by its matrix,
    # so it is locally nilpotent exactly when that matrix is nilpotent, which
    # holds exactly when D^n kills every x_i.
    rows = d.as_linear()
    if rows is not None and any(not _power(d, d.n, Polynomial.variable(d.n, i)).is_zero()
                                for i in range(1, d.n + 1)):
        cert = None
        for e in _eigen_candidates(d.n):
            cert = eigenvector_certificate(d, e)
            if cert is not None:
                break
        return LndVerdict("not_nilpotent", bound, certificate=cert, linear_part=rows)
    return LndVerdict("inconclusive", bound)


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
    TruncatedSearch instead.
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

    level: list[tuple[BracketExpr, Derivation]] = [(Leaf(i), g) for i, g in enumerate(pool)]
    cut_at = None
    for depth in range(1, term + 1):
        kept: list[tuple[BracketExpr, Derivation]] = []
        seen = SpanBasis(n, [])
        for (expr_a, a), (expr_b, b) in itertools.combinations(level, 2):
            if len(kept) >= beam:
                cut_at = cut_at or depth
                break
            value = a.bracket(b)
            if seen.add(value):
                kept.append((Bracket(expr_a, expr_b), value))
        if not kept:
            return None if cut_at is None else TruncatedSearch(cut_at)
        level = kept

    expr, value = level[0]
    return DerivedChainWitness(term, expr, value, pool)
