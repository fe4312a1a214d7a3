"""The strictly triangular and triangular subalgebras of W_n.

Two reference subalgebras organize everything here, keyed by the short
names "un" and "sn":

  un: derivations whose i-th coefficient depends only on x_1 ... x_{i-1}
      (constants for i = 1).  Every element is locally nilpotent.
  sn: derivations whose i-th coefficient has the shape p + q * x_i with
      p, q depending only on x_1 ... x_{i-1}.  Solvable, with derived
      length exactly 2n.

Membership is decided monomial by monomial, and the same per-monomial rule
drives the term split in `strip_canonical_part`.  A single-term search
witnesses the derived-length lower bound with a certificate that
`DerivedChainCertificate.check` re-verifies from its JSON form alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, Literal, NamedTuple

from .derivation import Derivation, Partials, Row, bracket_rows, row_support, signatures_meet
from .grammar import parse_derivation
from .polyring import Monomial, Polynomial, codec
from .reductions import EigenvectorCertificate, eigenvector_certificate

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


class MembershipVerdict(NamedTuple):
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


class NilpotencyWitness(NamedTuple):
    """Per-variable iteration chains x_i, D(x_i), D^2(x_i), ..., 0.

    lengths[i-1] is the first power of D that kills x_i; the chain for x_i
    has that many nonzero entries followed by the zero polynomial.
    """

    chains: tuple[tuple[Polynomial, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(chain) - 1 for chain in self.chains)


class LndVerdict(NamedTuple):
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

SINGLE_TERM_EXHAUSTED = "single_term_exhausted"


class DerivedChainCertificate(NamedTuple):
    """A nonzero element of the term-th derived term of sn, as a DAG.

    Node (key, left, right, c, depth) holds one term x^a d_i with coefficient
    1: an sn generator when left and right are None (then c = 1, depth 0),
    else [key(left), key(right)] = c * key with c != 0 and both children
    earlier.  The derived terms are subspaces and [sn^(k), sn^(l)] lies in
    sn^(min(k, l) + 1), so a key lies in the derived term of its depth when
    that is at most 1 + the smaller child depth.  The last node, the root,
    has depth term.
    """

    kind = "derived_chain"  # not annotated, so a class attribute, not a field
    n: int
    term: int
    nodes: tuple[tuple[Derivation, int | None, int | None, int, int], ...]

    @property
    def root(self) -> Derivation:
        return self.nodes[-1][0]

    def to_dict(self) -> dict:
        """The JSON form `check` takes, each key as `parse_derivation` text."""
        return {"kind": self.kind, "n": self.n, "term": self.term,
                "nodes": [[str(key), *rest] for key, *rest in self.nodes]}

    @staticmethod
    def check(doc: dict) -> bool:
        """Re-verify a `to_dict` form from its stored fields alone."""
        keys: list[Derivation] = []
        depths: list[int] = []
        try:
            for i, (text, left, right, c, depth) in enumerate(doc["nodes"]):
                key = parse_derivation(text, doc["n"])
                if (list(key._terms.values()) != [1] or key._den != 1
                        or type(c) is not int or type(depth) is not int or depth < 0):
                    return False  # a key is one term with coefficient 1
                if left is None and right is None:
                    ok = c == 1 and depth == 0 and membership(key).in_sn
                else:
                    ok = (all(type(j) is int and 0 <= j < i for j in (left, right))
                          and c != 0 and depth <= 1 + min(depths[left], depths[right])
                          and keys[left].bracket(keys[right]) == c * key)
                if not ok:
                    return False
                keys.append(key)
                depths.append(depth)
            return doc["kind"] == DerivedChainCertificate.kind and depths[-1:] == [doc["term"]]
        except (KeyError, TypeError, ValueError):  # a ParseError too
            return False


class InconclusiveSearch(NamedTuple):
    """No single term reached the requested term: level `depth` kept none.
    This proves nothing, since that derived term may hold sums of terms or
    terms above the degree cap."""

    reason: str
    depth: int


def derived_chain_witness(n: int, *, term: int | None = None, degree_cap: int = 2
                          ) -> DerivedChainCertificate | InconclusiveSearch:
    """Search for a nonzero single term in the term-th derived term of sn.

    The derived terms are subspaces, so a level keeps one term per (slot,
    monomial) key, with coefficient 1.  Level 0 is the sn generators of
    degree at most degree_cap.  Level d brackets each pair of level d - 1,
    in `itertools.combinations` order, whose support signatures meet and
    whose degrees p, q have p + q - 1, the degree of their bracket, at most
    degree_cap.  It keeps a bracket that is one term with a key new to
    level d.  The last level stops at its first term, the certificate's
    root.  The defaults chase the derived-length lower bound, term 2n - 1.

    The levels are built on demand: each is a generator that pulls the
    level below only as its pair walk reaches an element and yields each
    term as soon as it is kept.  So a level is walked only as far as the
    root needs, and each level still keeps the same terms in the same order
    as a level built in full would.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    term = 2 * n - 1 if term is None else term
    if term < 0:
        raise ValueError(f"term must be >= 0, got {term}")
    degree = codec(n).degree
    # (packed key, left, right, c, depth) of each kept term, in the order kept:
    # the levels interleave, but a term's children always come before it
    kept: list[tuple[int, int | None, int | None, int, int]] = []

    def keep(key: int, left: int | None, right: int | None, c: int, depth: int,
             p: int) -> tuple[int, Row, Partials, int, int]:
        """Record a kept term; return its (index, row, partials, signature,
        degree) for the level above."""
        kept.append((key, left, right, c, depth))
        return (len(kept) - 1, {key: 1}, *row_support(n, {key: 1}), p)

    def level(below: Iterator[tuple[int, Row, Partials, int, int]], depth: int
              ) -> Iterator[tuple[int, Row, Partials, int, int]]:
        """Level depth, pulling each element of below as the walk reaches it."""
        pulled = list(itertools.islice(below, 1))
        rest = _appending(below, pulled)
        seen: set[int] = set()
        # the list iterator sees the elements `rest` appends during row 0
        for i, (x, a, pa, sa, p) in enumerate(pulled):
            for y, b, pb, sb, q in itertools.chain(itertools.islice(pulled, i + 1, None), rest):
                if p + q > degree_cap + 1 or not signatures_meet(n, sa, sb):
                    continue
                value = bracket_rows(a, pa, b, pb)
                if len(value) != 1:
                    continue
                ((key, c),) = value.items()
                if key not in seen:
                    seen.add(key)
                    yield keep(key, x, y, c, depth, p + q - 1)

    # each generator is one term with coefficient 1
    top = (keep(key, None, None, 1, 0, degree(key))
           for g in generators("sn", n, degree_cap) for key in g._terms)
    for depth in range(1, term + 1):
        top = level(top, depth)
    if term == 0:
        for _ in top:  # the root is the last generator
            pass
    elif next(top, None) is None:
        # Every level is now walked in full.  A term brackets two of the
        # level below, so the first empty level is the one above the deepest.
        return InconclusiveSearch(SINGLE_TERM_EXHAUSTED, 1 + max(d for *_, d in kept))
    # keep the nodes the root reaches, level by level in the order kept
    reached = {len(kept) - 1}
    for i in reversed(range(len(kept))):
        if i in reached and kept[i][1] is not None:
            reached.update(kept[i][1:3])
    order = sorted(reached, key=lambda i: (kept[i][4], i))
    new = {old: pos for pos, old in enumerate(order)}
    return DerivedChainCertificate(n, term, tuple(
        (Derivation._from_terms(n, {key: 1}, 1), new.get(left), new.get(right), c, depth)
        for key, left, right, c, depth in map(kept.__getitem__, order)))


def _appending(items: Iterator, into: list) -> Iterator:
    """Yield each of items after appending it to into."""
    for item in items:
        into.append(item)
        yield item
