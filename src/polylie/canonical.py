"""The strictly triangular and triangular subalgebras of W_n.

Two reference subalgebras organize everything here, keyed by the short
names "un" and "sn":

  un: derivations whose i-th coefficient depends only on x_1 ... x_{i-1}
      (constants for i = 1).  Every element is locally nilpotent.
  sn: derivations whose i-th coefficient has the shape p + q * x_i with
      p, q depending only on x_1 ... x_{i-1}.  Solvable, with derived
      length exactly 2n.

Membership, the term split in `strip_canonical_part` and `generators` read
each term's level (`KeyCodec.level`): x^a d_i lies in un when its level is
2i - 1 (`polyring._un_term`) and in sn when it is >= 0.
`random_subalgebra_element` draws seeded combinations of the generators.
`lnd_check` refutes local nilpotency with D's matrix, which
`linear_part_refutes` re-checks.  A closed-form chain of brackets witnesses
the derived-length lower bound with a certificate that
`DerivedChainCertificate.check` re-verifies from its JSON form alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple

from .derivation import Derivation, Row
from .grammar import parse_derivation
from .polyring import KeyCodec, Polynomial, _check_int, _check_n, _un_term, codec

if TYPE_CHECKING:
    from random import Random

Which = Literal["un", "sn"]

UN_REASON_DEPENDS_HIGHER = "depends_on_xj_with_j_gt_i"
SN_REASON_DEGREE = "xi_degree_exceeds_1"
UN_REASON_DEGREE = "xi_degree_exceeds_0_for_un"


def _check_which(which: str) -> None:
    if which not in ("un", "sn"):
        raise ValueError(f"subalgebra name must be 'un' or 'sn', got {which!r}")


def _admits(which: Which, c: KeyCodec, key: int) -> bool:
    """Whether the chosen subalgebra holds the term at key, by its level."""
    return c.level(key) >= 0 if which == "sn" else _un_term(c, key)


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
    """Decide membership in un and sn, with per-slot violation reasons in
    the order the terms print, so that equal derivations get equal verdicts."""
    c = codec(d.n)
    seen: dict[tuple[int, str], None] = {}
    for key in sorted(d._terms, key=c.column_key):
        slot, level = key >> c.slot_shift, c.level(key)
        if level == 2 * slot - 2:
            seen[slot, UN_REASON_DEGREE] = None
        elif level < 0:  # a mask on x_(slot+1) ... x_n tells the two reasons apart
            higher = key & c.tails[slot + 1]
            seen[slot, UN_REASON_DEPENDS_HIGHER if higher else SN_REASON_DEGREE] = None
    in_sn = all(r == UN_REASON_DEGREE for _, r in seen)
    return MembershipVerdict(not seen, in_sn, tuple(seen))


def strip_canonical_part(d: Derivation, which: Which) -> tuple[Derivation, Derivation]:
    """Split d = remainder + stripped with stripped in the chosen subalgebra.

    The split is term-by-term: a monomial of the i-th coefficient goes to
    the stripped part exactly when its level admits it, so the remainder
    keeps only irreducibly violating terms and re-stripping it removes
    nothing.
    """
    _check_which(which)
    c = codec(d.n)
    allowed: Row = {}
    violating: Row = {}
    for key, num in d._terms.items():
        (allowed if _admits(which, c, key) else violating)[key] = num
    # both halves keep d's denominator; _from_terms reduces each
    remainder = Derivation._from_terms(d.n, violating, d._den)
    stripped = Derivation._from_terms(d.n, allowed, d._den)
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
    m * x_i^e * d_i for e = 0, 1, ... are kept while their level admits
    them.  Order is deterministic: slot-major, then by the degree of
    m and the enumeration order of its exponent tuple, then by e.
    """
    _check_which(which)
    # checked before the cache, where True and 1.0 would hit the key of 1
    _check_n(n)
    _check_int(degree_cap, "degree cap", 0)
    # a new list each call: callers may sort or extend the one they get
    return list(_generator_pool(which, n, degree_cap))


@functools.cache
def _generator_pool(which: Which, n: int, degree_cap: int) -> tuple[Derivation, ...]:
    """The pool `generators` lists, built once per argument triple."""
    c = codec(n)
    out: list[Derivation] = []
    for i in range(1, n + 1):
        slot = i << c.slot_shift
        for m in _monomials_in_prefix(n, i - 1, degree_cap):
            for e in range(degree_cap - c.degree(m) + 1):
                key = slot + m + e * c.var_units[i - 1]
                if not _admits(which, c, key):
                    break
                out.append(Derivation._from_terms(n, {key: 1}, 1))
    return tuple(out)


def random_subalgebra_element(rng: Random, which: Which, n: int,
                              degree_cap: int) -> Derivation:
    """Random rational combination of one to four monomial generators of un
    or sn: per term a coefficient, its numerator in 1..9, its sign, then its
    denominator in 1..9, and then a generator.

    Every draw is one call of `rng.randrange(n)`.  `randint(a, b)` is
    a + `randrange(b - a + 1)` and `choice(seq)` is seq[`randrange(len(seq))`],
    so a seed gives the same samples as it did through those methods, and
    leaves the generator in the same state.  `randrange` draws the same on
    Python 3.10 to 3.13, which keeps the pinned `verify-paper` reports stable.
    """
    gens = generators(which, n, degree_cap)
    randrange = rng.randrange
    out = Derivation.zero(n)
    for _ in range(randrange(4) + 1):
        num = randrange(9) + 1
        if randrange(2):
            num = -num
        coeff = Fraction(num, randrange(9) + 1)
        out = out + coeff * gens[randrange(len(gens))]
    return out


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
    nonzero, so that variable's chain never dies.  The proof is linear_part,
    D's matrix rows (see Derivation.as_linear), whose n-th power
    `linear_part_refutes` re-checks is nonzero.

    status "inconclusive": neither route decided within the bound.
    """

    status: str  # "witness" | "not_nilpotent" | "inconclusive"
    bound: int
    witness: NilpotencyWitness | None = None
    linear_part: tuple[tuple[Fraction, ...], ...] | None = None


def triangular_chain_bound(n: int, degree_cap: int) -> int:
    """Iteration bound guaranteeing chain termination for un elements.

    Assign x_1 weight 1 and x_{i+1} weight degree_cap * weight(x_i) + 1
    (`KeyCodec.weight`, here of the key of x_n); any un element with
    coefficient degree <= degree_cap strictly lowers weight, and
    polynomials have weight >= 0, so D^(weight(x_i) + 1) kills every x_i,
    x_n last.  The bound is tight: d_1 + x_1^c d_2 + ... +
    x_(n-1)^c d_n lowers weight by exactly 1, and sends x_n to a nonzero
    constant after weight(x_n) steps.
    """
    _check_n(n)
    _check_int(degree_cap, "degree cap", 0)
    c = codec(n)
    return c.weight(c.var_units[n - 1], degree_cap) + 1


def lnd_check(d: Derivation, bound: int) -> LndVerdict:
    """Semi-decide local nilpotency of d by chain iteration up to bound.

    Honest three-way verdict: a terminating chain set is a proof, a
    non-nilpotent linear part is a refutation, anything else stays
    inconclusive rather than guessing.
    """
    _check_int(bound, "bound", 1)
    # A homogeneous linear D maps span{x_1..x_n} into itself by its matrix,
    # so it is locally nilpotent exactly when that matrix is nilpotent, which
    # holds exactly when D^n kills every x_i.  So its chains run n steps
    # whatever the bound, and one still alive then never dies.
    rows = d.as_linear()
    steps = bound if rows is None else d.n
    chains: list[tuple[Polynomial, ...]] = []
    for i in range(1, d.n + 1):
        chain = [Polynomial.variable(d.n, i)]
        for _ in range(steps):
            chain.append(d.apply(chain[-1]))
            if chain[-1].is_zero():
                break
        else:
            if rows is None:
                return LndVerdict("inconclusive", bound)
            return LndVerdict("not_nilpotent", bound, linear_part=rows)
        chains.append(tuple(chain))
    # only a linear D's chains may outrun the bound
    if max(map(len, chains)) > bound + 1:
        return LndVerdict("inconclusive", bound)
    return LndVerdict("witness", bound, witness=NilpotencyWitness(tuple(chains)))


def linear_part_refutes(rows: tuple[tuple[Fraction, ...], ...]) -> bool:
    """Re-check a "not_nilpotent" verdict from its linear_part alone: whether
    the n-th power of the matrix has a nonzero entry.  Its row i holds
    D^n(x_i), so that x_i's chain never dies."""
    power = rows
    for _ in range(len(rows) - 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in power]
    return any(map(any, power))


# -- derived-chain witnesses -------------------------------------------------

BEYOND_CONSTRUCTION = "beyond_construction"


def lower_bound_term(n: int) -> int:
    """2n - 1, the derived term of sn that the derived-length lower bound
    shows nonzero: d_n lies in sn^(2n - 1)."""
    _check_n(n)
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
                    ok = c == 1 and depth == 0 and codec(key.n).level(*key._terms) >= 0
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
    last = lower_bound_term(n)  # checks n
    term = last if term is None else term
    _check_int(term, "term", 0)
    _check_int(degree_cap, "degree cap", 0)
    # the chain for term k has degree (k > 0) + (k > 2); the first term it
    # cannot certify
    beyond = next(k for k in itertools.count()
                  if k > last or (k > 0) + (k > 2) > degree_cap)
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
