"""The strictly triangular and triangular subalgebras of W_n.

Two reference subalgebras organize everything here, keyed by the short
names "un" and "sn":

  un: derivations whose i-th coefficient depends only on x_1 ... x_{i-1}
      (constants for i = 1).  Every element is locally nilpotent.
  sn: derivations whose i-th coefficient has the shape p + q * x_i with
      p, q depending only on x_1 ... x_{i-1}.  Solvable, with derived
      length exactly 2n.

Membership is decided monomial by monomial, and the same per-monomial rule
drives the term split in `strip_canonical_part`.  A closed-form chain of
brackets witnesses the derived-length lower bound with a certificate that
`DerivedChainCertificate.check` re-verifies from its JSON form alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, Literal, NamedTuple

from .derivation import Derivation, Row
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

BEYOND_CONSTRUCTION = "beyond_construction"


def lower_bound_term(n: int) -> int:
    """2n - 1, the derived term of sn that the derived-length lower bound
    shows nonzero: d_n lies in sn^(2n - 1)."""
    return 2 * n - 1


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
    """The chain certifies no term from `depth` on: it has no root past term
    2n - 1, and it needs generators of degree 1 from term 1 and of degree 2
    from term 3, which a lower degree cap leaves out.  This proves nothing
    about those derived terms."""

    reason: str
    depth: int


def derived_chain_witness(n: int, *, term: int | None = None, degree_cap: int = 2
                          ) -> DerivedChainCertificate | InconclusiveSearch:
    """A certificate that d_s, s = term // 2 + 1, lies in the term-th derived
    term of sn (term defaults to `lower_bound_term(n)`), built in closed form.

    A node at depth k >= 1 is the bracket of two nodes at depth k - 1, always
    with c = 1, and a node at depth 0 is an sn generator.  Slot s uses four:

      D_s = d_s              = [D_s, X_s] if k = 2s - 1, else [D_(s-1), A_s]
      A_s = x_(s-1) d_s      = [X_(s-1), A_s]
      X_s = x_s d_s          = [D_(s-1), B_s]
      B_s = x_(s-1) x_s d_s  = [X_(s-1), B_s]

    Apart from d_s = [d_s, x_s d_s], each is x_(s-1)^a x_s^b d_s =
    [x_(s-1)^a d_(s-1), x_(s-1) x_s^b d_s], as d_s kills x_(s-1)^a.  The
    root D_s is at depth at most 2s - 1, so D_s, X_s, A_s and B_s appear at
    depths at most 2s - 1, 2s - 2, 2s - 3 and 2s - 3: a child always exists,
    and slot 1 holds only d_1 and x_1 d_1.  Every leaf sits term brackets
    deep.  The largest degree is 0 at term 0, 1 at terms 1 and 2 and 2
    above; a term past 2n - 1 or above what degree_cap admits is
    inconclusive, at the first term the chain cannot certify.

    The nodes are found one depth at a time from the root down, and listed
    from depth 0 up, each depth in key order, so every child comes before
    its parent.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    term = lower_bound_term(n) if term is None else term
    if term < 0 or degree_cap < 0:
        raise ValueError(f"need term >= 0 and degree_cap >= 0, got {term}, {degree_cap}")
    # the chain for term k has degree (k > 0) + (k > 2); the first term it
    # cannot certify
    beyond = next(k for k in itertools.count()
                  if k > lower_bound_term(n) or (k > 0) + (k > 2) > degree_cap)
    if term >= beyond:
        return InconclusiveSearch(BEYOND_CONSTRUCTION, beyond)
    # rows[i] maps each node (s, a, b), the term x_(s-1)^a x_s^b d_s, at depth
    # term - i to its two children at the depth below, or to None at depth 0
    rows: list[dict[tuple[int, int, int], tuple | None]] = []
    wanted = [(term // 2 + 1, 0, 0)]
    for k in range(term, -1, -1):
        row = {}
        for s, a, b in wanted:
            if k == 0:
                row[s, a, b] = None
            elif (a, b, k) == (0, 0, 2 * s - 1):
                row[s, a, b] = ((s, 0, 0), (s, 0, 1))
            else:
                row[s, a, b] = ((s - 1, 0, a), (s, 1, b))
        rows.append(row)
        wanted = list(dict.fromkeys(child for pair in row.values() if pair for child in pair))
    c = codec(n)

    def key(node: tuple[int, int, int]) -> int:
        s, a, b = node  # a = 0 when s = 1
        return (s << c.slot_shift) + a * c.var_units[s - 2] + b * c.var_units[s - 1]

    index: dict[tuple[int, tuple[int, int, int]], int] = {}
    nodes = []
    for depth, row in enumerate(reversed(rows)):
        for node in sorted(row, key=key):
            left, right = (None, None) if row[node] is None else (
                index[depth - 1, child] for child in row[node])
            index[depth, node] = len(nodes)
            nodes.append((Derivation._from_terms(n, {key(node): 1}, 1), left, right, 1, depth))
    return DerivedChainCertificate(n, term, tuple(nodes))
