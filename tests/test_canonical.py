import copy
import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest

from polylie import canonical
from polylie.canonical import (
    BEYOND_CONSTRUCTION,
    DerivedChainCertificate,
    InconclusiveSearch,
    LndVerdict,
    derived_chain_witness,
    generators,
    linear_part_refutes,
    lnd_check,
    membership,
    random_subalgebra_element,
    strip_canonical_part,
    triangular_chain_bound,
)
from polylie.cli import main
from polylie.derivation import Derivation
from polylie.grammar import parse_derivation
from polylie.polyring import Polynomial
from polylie.span import derived_series, lie_closure

import kernel_reference as ref
from golden import CERTIFICATE_NS, GOLDEN_CERTIFICATES, render_certificates
from matrices import from_rows, is_zero, power
from samplers import random_derivation


def pd(text, n):
    return parse_derivation(text, n)


class TestMembership:
    def test_higher_variable_dependence(self):
        verdict = membership(pd("(x2) d1", 2))
        assert not verdict.in_un and not verdict.in_sn
        assert (1, "depends_on_xj_with_j_gt_i") in verdict.violations

    def test_sn_only(self):
        verdict = membership(pd("(x1 x2) d2", 2))
        assert not verdict.in_un and verdict.in_sn
        assert (2, "xi_degree_exceeds_0_for_un") in verdict.violations

    def test_constant_coefficient(self):
        verdict = membership(Derivation.partial(2, 1))
        assert verdict.in_un and verdict.in_sn and not verdict.violations

    def test_quadratic_in_own_slot(self):
        verdict = membership(pd("(x1^2) d1", 1))
        assert not verdict.in_sn
        assert (1, "xi_degree_exceeds_1") in verdict.violations

    def test_un_implies_sn(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 3)
            d = random_subalgebra_element(rng, rng.choice(("un", "sn")), n, 3)
            verdict = membership(d)
            assert verdict.in_sn or not verdict.in_un

    def test_strict_inclusion_witness(self):
        verdict = membership(pd("(x1) d1", 2))
        assert verdict.in_sn and not verdict.in_un

    def test_equal_derivations_get_equal_verdicts(self):
        # the same value with its terms stored in another order: the reasons
        # come in column order, the order the terms print in
        a, b = pd("(x1^2) d1", 3), pd("(x3) d1", 3)
        builds = [pd("(x1^2 + x3) d1", 3), pd("(x3 + x1^2) d1", 3), a + b, b + a]
        assert len({tuple(d._terms) for d in builds}) == 2
        for d in builds:
            assert d == builds[0]
            assert membership(d) == (False, False, ((1, "xi_degree_exceeds_1"),
                                                    (1, "depends_on_xj_with_j_gt_i")))
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_derivation(rng, n, 3)
            terms = list(d._terms.items())
            rng.shuffle(terms)
            shuffled = Derivation._from_terms(n, dict(terms), d._den)
            assert shuffled == d and membership(shuffled) == membership(d)


def as_reference(d):
    """A derivation as `kernel_reference` takes it: per slot, a map from
    exponent tuples to Fractions."""
    return [dict(f) for f in d.coeffs]


def slot_monomials(gens):
    """(slot, exponent tuple) of each of gens, each one term with
    coefficient 1."""
    out = []
    for g in gens:
        ((slot, (mono, c)),) = [(i, term) for i, f in enumerate(g.coeffs, 1) for term in f]
        assert c == 1
        out.append((slot, mono))
    return out


class TestTupleRule:
    """`membership`, `strip_canonical_part` and `generators` read term levels
    off packed keys; `kernel_reference` scans exponent tuples for the same
    rule, so each is checked against it."""

    @staticmethod
    def draws():
        rng = random.Random(42)
        for _ in range(3000):
            yield random_derivation(rng, rng.randint(1, 5), 3)

    @staticmethod
    def subalgebra_elements():
        # random draws rarely land in sn: sums of generators and their
        # brackets carry the inside cases
        rng = random.Random(44)
        for n in range(1, 6):
            for which in ("un", "sn"):
                gens = generators(which, n, 3)
                for _ in range(40):
                    a, b, c = (rng.choice(gens) for _ in range(3))
                    yield a + 2 * b - c
                    yield a.bracket(b)

    def test_membership_and_its_order(self):
        inside = 0
        for d in itertools.chain(self.draws(), self.subalgebra_elements()):
            got = membership(d)
            assert tuple(got) == ref.membership(as_reference(d)), str(d)
            inside += got.in_sn
        assert inside > 400

    def test_both_halves_of_strip(self):
        for d in itertools.chain(self.draws(), self.subalgebra_elements()):
            for which in ("un", "sn"):
                remainder, stripped = strip_canonical_part(d, which)
                want = ref.strip(as_reference(d), which)
                assert (as_reference(remainder), as_reference(stripped)) == want
                # the stripped half lies in the chosen subalgebra
                verdict = membership(stripped)
                assert verdict.in_un if which == "un" else verdict.in_sn

    def test_generator_lists(self):
        for which in ("un", "sn"):
            for n in range(1, 6):
                for cap in range(4):
                    got = slot_monomials(generators(which, n, cap))
                    assert got == ref.generators(which, n, cap), (which, n, cap)


class TestGenerators:
    def test_un_dimension_one(self):
        assert generators("un", 1, 5) == [Derivation.partial(1, 1)]

    def test_sn_dimension_one(self):
        assert generators("sn", 1, 2) == [pd("d1", 1), pd("(x1) d1", 1)]

    def test_un_two_vars_degree_one(self):
        got = generators("un", 2, 1)
        assert got == [pd("d1", 2), pd("d2", 2), pd("(x1) d2", 2)]

    def test_generators_pass_own_membership(self):
        for n in (1, 2, 3):
            for which in ("un", "sn"):
                for g in generators(which, n, 3):
                    verdict = membership(g)
                    assert verdict.in_un if which == "un" else verdict.in_sn

    def test_bracket_stays_inside(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 3)
            which = rng.choice(("un", "sn"))
            gens = generators(which, n, 3)
            br = rng.choice(gens).bracket(rng.choice(gens))
            verdict = membership(br)
            assert verdict.in_un if which == "un" else verdict.in_sn

    @staticmethod
    def _paper_oracle(which, n, cap):
        """The (slot, monomial) pairs of the paper's definitions, by brute
        force: in un the coefficient of d_i is free of x_i .. x_n; in sn it
        is free of x_{i+1} .. x_n and at most linear in x_i."""
        out = set()
        for i in range(1, n + 1):
            for mono in itertools.product(range(cap + 1), repeat=n):
                if sum(mono) > cap:
                    continue
                if which == "un":
                    ok = not any(mono[i - 1:])
                else:
                    ok = not any(mono[i:]) and mono[i - 1] <= 1
                if ok:
                    out.add((i, mono))
        return out

    def test_matches_paper_definitions(self):
        for which in ("un", "sn"):
            for n in range(1, 5):
                for cap in range(5):
                    got = slot_monomials(generators(which, n, cap))
                    assert len(got) == len(set(got)), (which, n, cap)
                    assert set(got) == self._paper_oracle(which, n, cap), (which, n, cap)

    def test_sn_order_pinned(self):
        # slot-major, then by the monomial in x_1 ... x_(i-1), then by e
        assert [str(g) for g in generators("sn", 3, 2)] == [
            "d1", "(x1) d1",
            "d2", "(x2) d2", "(x1) d2", "(x1 x2) d2", "(x1^2) d2",
            "d3", "(x3) d3", "(x1) d3", "(x1 x3) d3", "(x2) d3", "(x2 x3) d3",
            "(x1^2) d3", "(x1 x2) d3", "(x2^2) d3"]

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            generators("nope", 2, 2)

    def test_bad_counts_rejected_whatever_is_cached(self):
        # True and 1.0 hash and compare as 1, so each bad call below shares
        # its pool's cache key with (1, 2) or (2, 1); the checks come before
        # the cache, so the answer is the same before and after those pools
        bad = [((True, 2), TypeError, "^variable count True is not an int$"),
               ((1.0, 2), TypeError, "^variable count 1.0 is not an int$"),
               ((2, True), TypeError, "^degree cap True is not an int$"),
               ((2, 1.0), TypeError, "^degree cap 1.0 is not an int$"),
               ((0, 2), ValueError, "^variable count must be >= 1, got 0$"),
               ((2, -1), ValueError, "^degree cap must be >= 0, got -1$")]
        for pools_first in (False, True):
            canonical._generator_pool.cache_clear()
            if pools_first:
                assert generators("un", 1, 2) == [pd("d1", 1)]
                assert len(generators("un", 2, 1)) == 3
            for args, error, message in bad:
                with pytest.raises(error, match=message):
                    generators("un", *args)

    def test_caller_edits_do_not_reach_the_cached_pool(self):
        want = [str(g) for g in generators("sn", 3, 2)]
        generators("sn", 3, 2).sort(key=str)
        assert [str(g) for g in generators("sn", 3, 2)] == want
        generators("sn", 3, 2).clear()
        assert [str(g) for g in generators("sn", 3, 2)] == want
        assert generators("sn", 3, 2) is not generators("sn", 3, 2)


class TestLndCheck:
    def test_witness_chains(self):
        n = 2
        verdict = lnd_check(pd("(x1) d2 + d1", n), 5)
        assert verdict.status == "witness"
        assert verdict.witness.lengths == (2, 3)
        chains = verdict.witness.chains
        assert chains[0][-1].is_zero() and chains[1][-1].is_zero()
        assert all(not p.is_zero() for p in chains[0][:-1])
        assert all(not p.is_zero() for p in chains[1][:-1])

    def test_euler_refuted(self):
        for n in (1, 2, 3):
            verdict = lnd_check(Derivation.euler(n), 6)
            assert verdict.status == "not_nilpotent"
            assert verdict.linear_part == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n))
            assert linear_part_refutes(verdict.linear_part)

    def test_linear_refutation_comes_before_the_chains(self):
        # a non-nilpotent matrix keeps some chain alive for ever, so a huge
        # bound gives the small bound's verdict without being iterated
        d = Derivation.euler(2)
        started = time.perf_counter()
        verdict = lnd_check(d, 10**6)
        assert time.perf_counter() - started < 1.0
        assert verdict._replace(bound=32) == lnd_check(d, 32)

    def test_triangular_samples(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 3)
            d = random_subalgebra_element(rng, "un", n, 3)
            verdict = lnd_check(d, triangular_chain_bound(n, 3))
            assert verdict.status == "witness"

    def test_triangular_bound_is_tight(self):
        # d1 + (x1^c) d2 + ... + (x_(n-1)^c) d_n lowers the weight by exactly
        # 1, so the chain of x_n takes every step of the bound
        for n in range(1, 5):
            for c in range(1, 4):
                terms = ["d1"] + [f"(x{i}^{c}) d{i + 1}" for i in range(1, n)]
                d = pd(" + ".join(terms), n)
                bound = triangular_chain_bound(n, c)
                assert lnd_check(d, bound).status == "witness"
                assert lnd_check(d, bound - 1).status == "inconclusive"

    def test_inconclusive_when_bound_too_small(self):
        n = 2
        verdict = lnd_check(pd("(x2^3) d1 + (x1) d2", n), 2)
        assert verdict.status == "inconclusive"

    def test_bound_must_be_an_int(self):
        # a linear D runs n steps whatever the bound, so the bound is
        # checked before any chain
        d = pd("(x1) d2", 2)
        for bad in (True, 1.5, 2.0):
            with pytest.raises(TypeError, match=f"^bound {bad} is not an int$"):
                lnd_check(d, bad)
        with pytest.raises(ValueError, match="^bound must be >= 1, got 0$"):
            lnd_check(d, 0)

    def test_semisimple_nonlinear_stays_inconclusive(self):
        # honest semi-decision: no verdict without a linear part
        n = 1
        verdict = lnd_check(pd("(x1^2) d1", n), 4)
        assert verdict.status == "inconclusive"


class TestLndCheckLinearOracle:
    """lnd_check on linear fields against matrix powers computed in the test.

    Chains x_i, D(x_i), ... are rows of A, A^2, ..., so every chain dies
    within `bound` steps iff A^bound = 0, and D is locally nilpotent iff A
    is nilpotent, i.e. A^n = 0.
    """

    @staticmethod
    def conjugate(rng, a):
        """P a P^-1 for P a product of elementary matrices E_ij(c)."""
        n = len(a)
        a = [list(row) for row in a]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):  # row_i += c row_j
                a[i][col] += c * a[j][col]
            for row in range(n):  # col_j -= c col_i
                a[row][j] -= c * a[row][i]
        return tuple(tuple(row) for row in a)

    def matrices(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(2, 4)
            dense = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            strict = tuple(tuple(rng.randint(-2, 2) if j > i else 0 for j in range(n))
                           for i in range(n))
            yield dense
            yield strict
            yield self.conjugate(rng, strict)
            yield self.conjugate(rng, tuple(zip(*strict)))  # strictly lower
        yield ((0,),)
        yield ((1,),)

    def test_statuses_match_matrix_powers(self):
        seen = set()
        untriangular_nilpotent = 0
        for a in self.matrices():
            n = len(a)
            untriangular_nilpotent += (is_zero(power(a, n))
                                       and any(a[i][j] for i in range(n) for j in range(i))
                                       and any(a[i][j] for j in range(n) for i in range(j)))
            d = from_rows(a)
            assert d.as_linear() == a
            for bound in (1, 2, n, 32):
                if not is_zero(power(a, n)):
                    want = "not_nilpotent"
                elif is_zero(power(a, bound)):
                    want = "witness"
                else:
                    want = "inconclusive"
                verdict = lnd_check(d, bound)
                assert verdict.status == want, (a, bound)
                assert verdict.linear_part == (a if want == "not_nilpotent" else None)
                seen.add(want)
        assert seen == {"not_nilpotent", "witness", "inconclusive"}
        assert untriangular_nilpotent >= 40

    def test_stored_matrix_rechecks_each_verdict(self):
        # the re-check reads only the rows: it passes every refutation and
        # fails every nilpotent matrix, most of them with nonzero entries
        nilpotent_nonzero = 0
        for a in self.matrices():
            d = from_rows(a)
            rows, verdict = d.as_linear(), lnd_check(d, 32)
            if verdict.status == "not_nilpotent":
                assert linear_part_refutes(verdict.linear_part), a
            else:
                assert not linear_part_refutes(rows), a
                nilpotent_nonzero += any(map(any, rows))
        assert nilpotent_nonzero >= 40

    def test_integer_recheck_equals_fraction_power(self):
        # the re-check squares an integer matrix; the answer is that of the
        # n-th power over Fraction, n - 1 products, on rational matrices
        # with n <= 6, every other one strictly upper triangular
        rng = random.Random(2046)
        answers = {True: 0, False: 0}
        for k in range(400):
            n = rng.randint(1, 6)
            a = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            if (j > i if k % 2 else rng.random() < 0.5) else Fraction(0)
                            for j in range(n)) for i in range(n))
            want = not is_zero(power(a, n))
            assert linear_part_refutes(a) == want, a
            answers[want] += 1
        assert answers[True] >= 100 and answers[False] >= 200

    def test_recheck_takes_the_full_power_of_a_shift(self):
        # the n x n shift is nilpotent, and its powers below the n-th are
        # not zero: a re-check that squares once too few refutes it
        for n in range(1, 13):
            for c in (1, Fraction(-2, 3)):
                shift = tuple(tuple(c if j == i + 1 else Fraction(0) for j in range(n))
                              for i in range(n))
                assert not linear_part_refutes(shift), n
                cycle = tuple(tuple(c if j == (i + 1) % n else Fraction(0) for j in range(n))
                              for i in range(n))
                assert linear_part_refutes(cycle), n

    def test_chains_are_rows_of_matrix_powers(self):
        # entry k of the chain of x_i is row i of A^k, and the chains run n
        # steps whatever the bound: a bound n decides every matrix, and a
        # bound below the longest chain leaves a nilpotent one undecided
        for a in self.matrices():
            n = len(a)
            d = from_rows(a)
            verdict = lnd_check(d, n)
            if not is_zero(power(a, n)):
                assert verdict.status == "not_nilpotent", a
                assert all(lnd_check(d, bound) == verdict._replace(bound=bound)
                           for bound in range(1, n))
                continue
            assert verdict.status == "witness", a
            for i, chain in enumerate(verdict.witness.chains, start=1):
                assert chain[0] == Polynomial.variable(n, i)
                assert list(chain[1:]) == [from_rows(power(a, k)).coeff(i)
                                           for k in range(1, len(chain))]
                assert chain[-1].is_zero() and all(chain[:-1])
            longest = max(verdict.witness.lengths)
            assert lnd_check(d, longest) == verdict._replace(bound=longest)
            assert all(lnd_check(d, bound) == LndVerdict("inconclusive", bound)
                       for bound in range(1, longest))


def tree(cert, i=-1):
    """Node i's DAG expanded to a tree: a leaf's key, or a (left, right) pair."""
    key, left, right, c, depth = cert.nodes[i]
    return key if left is None else (tree(cert, left), tree(cert, right))


def leaf_depths(t, depth=0):
    if isinstance(t, tuple):
        yield from leaf_depths(t[0], depth + 1)
        yield from leaf_depths(t[1], depth + 1)
    else:
        yield depth


def evaluate(t):
    """A tree by Derivation.bracket."""
    return evaluate(t[0]).bracket(evaluate(t[1])) if isinstance(t, tuple) else t


class TestDerivedChainWitness:
    def test_dimension_one(self):
        w = derived_chain_witness(1)
        assert isinstance(w, DerivedChainCertificate) and w.term == 1
        assert not w.root.is_zero()
        assert DerivedChainCertificate.check(w.to_dict())
        # the whole subalgebra is two-dimensional; its derived length is 2
        report = derived_series(lie_closure(generators("sn", 1, 2)))
        assert report.verdict == "solvable" and report.length == 2

    def test_dimension_one_term_two_empty(self):
        # sn^(2) = 0 for n = 1, but a chain with no root there proves nothing
        assert derived_chain_witness(1, term=2) == InconclusiveSearch(BEYOND_CONSTRUCTION, 2)

    def test_dimension_two(self):
        w = derived_chain_witness(2)
        assert w.term == 3 and str(w.root) == "d2"
        assert membership(w.root).in_sn
        assert DerivedChainCertificate.check(w.to_dict())

    def test_expression_shape_is_balanced(self):
        for n in (1, 2, 3):
            w = derived_chain_witness(n)
            for key, left, right, c, depth in w.nodes:
                if left is not None:
                    assert w.nodes[left][4] == w.nodes[right][4] == depth - 1
            # every leaf of the expanded tree sits term brackets deep
            assert set(leaf_depths(tree(w))) == {w.term}

    def test_sexpr_and_legend(self, capsys):
        w = derived_chain_witness(2)
        assert main(["witness", "--n", "2", "--format", "json"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        legend = outputs["legend"]
        leaves = [str(key) for key, left, *_ in w.nodes if left is None]
        assert list(legend) == [f"g{k}" for k in range(1, len(leaves) + 1)]
        assert list(legend.values()) == leaves
        # the legend lists only the leaves the expression uses
        assert set(re.findall(r"g\d+", outputs["expression"])) == set(legend)

    def test_repeat_calls_give_identical_witnesses(self):
        first, second = derived_chain_witness(2), derived_chain_witness(2)
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_golden_n3_term2(self):
        w = derived_chain_witness(3, term=2, degree_cap=4)
        assert w.to_dict()["nodes"] == [
            ["d1", None, None, 1, 0], ["(x1) d1", None, None, 1, 0],
            ["(x1) d2", None, None, 1, 0],
            ["d1", 0, 1, 1, 1], ["(x1) d2", 1, 2, 1, 1], ["d2", 3, 4, 1, 2]]
        assert str(evaluate(tree(w))) == "d2"

    def test_paper_target_n3_term5(self):
        # the derived-length lower bound 2n for n = 3: sn^(5) is nonzero
        start = time.perf_counter()
        w = derived_chain_witness(3)
        elapsed = time.perf_counter() - start
        assert isinstance(w, DerivedChainCertificate) and w.term == 5
        assert DerivedChainCertificate.check(w.to_dict())
        assert elapsed < 1, f"took {elapsed:.2f} s"
        assert str(evaluate(tree(w))) == "d3"

    def test_paper_target_n12(self):
        # about 0.02 s on a 2-vCPU VM; the bound leaves room for a slower host
        start = time.perf_counter()
        w = derived_chain_witness(12)
        elapsed = time.perf_counter() - start
        assert w.term == 23 and str(w.root) == "d12"
        assert DerivedChainCertificate.check(w.to_dict())
        assert elapsed < 6, f"took {elapsed:.1f} s"

    def test_exhaustion_is_inconclusive(self):
        # sn^(6) = 0 for n = 3; with degree 0 only the d_i, which commute; with
        # degree 1 the chain stops below x_(s-1) x_s d_s, which term 3 needs
        for n, kw, depth in [(3, {"term": 6}, 6), (2, {"degree_cap": 0}, 1),
                             (2, {"degree_cap": 1}, 3), (8, {"degree_cap": 1}, 3),
                             (1, {"degree_cap": 1, "term": 2}, 2),
                             (4, {"degree_cap": 0, "term": 1}, 1)]:
            assert derived_chain_witness(n, **kw) == InconclusiveSearch(BEYOND_CONSTRUCTION, depth)
        for n in range(1, 13):
            assert derived_chain_witness(n, term=2 * n) == InconclusiveSearch(
                BEYOND_CONSTRUCTION, 2 * n)

    def test_bad_arguments_rejected(self):
        for kw in ({"n": 0}, {"n": 2, "term": -1}, {"n": 2, "degree_cap": -1}):
            with pytest.raises(ValueError):
                derived_chain_witness(**kw)

    def test_term_zero(self):
        w = derived_chain_witness(1, term=0)
        assert len(w.nodes) == 1 and w.nodes[0][1] is None
        assert DerivedChainCertificate.check(w.to_dict())
        # the root is d_1 for every n, and needs only degree 0
        w = derived_chain_witness(2, term=0, degree_cap=0)
        assert w.to_dict()["nodes"] == [["d1", None, None, 1, 0]]

    def test_every_term_up_to_n12(self):
        for n in range(1, 13):
            for term in range(2 * n):
                w = derived_chain_witness(n, term=term)
                assert isinstance(w, DerivedChainCertificate), (n, term)
                assert DerivedChainCertificate.check(w.to_dict()), (n, term)
                assert str(w.root) == f"d{term // 2 + 1}", (n, term)
                assert {c for _, _, _, c, _ in w.nodes} == {1}, (n, term)
                # the generators of each degree enter at terms 0, 1 and 3
                degree = max(key.max_coeff_degree() for key, *_ in w.nodes)
                assert degree == (term > 0) + (term > 2), (n, term)
        # the node counts the search's certificates had for n = 1, 2, 3
        assert [len(derived_chain_witness(n).nodes) for n in (1, 2, 3, 12)] == [3, 10, 23, 500]

    def test_n30_checks_in_under_a_second(self):
        start = time.perf_counter()
        w = derived_chain_witness(30, term=59)
        assert DerivedChainCertificate.check(w.to_dict())
        elapsed = time.perf_counter() - start
        assert str(w.root) == "d30" and len(w.nodes) == 3398
        assert elapsed < 1, f"took {elapsed:.2f} s"


def _leaf(text):
    return [text, None, None, 1, 0]


class TestDerivedChainCertificate:
    """`check` works from the JSON form alone, and each broken field fails it."""

    @pytest.fixture
    def doc(self):
        return derived_chain_witness(3).to_dict()

    def inner(self, doc):
        return [i for i, node in enumerate(doc["nodes"]) if node[1] is not None]

    def mutants(self, doc, edit):
        """One copy of doc per inner node, with edit(node, i) applied to it."""
        for i in self.inner(doc):
            bad = copy.deepcopy(doc)
            edit(bad["nodes"][i], i)
            yield bad

    def test_search_certificates_pass(self):
        for n in range(1, 6):
            doc = derived_chain_witness(n).to_dict()
            assert DerivedChainCertificate.check(json.loads(json.dumps(doc))), n

    def test_wrong_c_fails(self, doc):
        for scale in (-1, 2, 0):
            def edit(node, i):
                node[3] *= scale
            assert not any(map(DerivedChainCertificate.check, self.mutants(doc, edit)))

    def test_swapped_children_fail(self, doc):
        def edit(node, i):
            node[1], node[2] = node[2], node[1]
        assert not any(map(DerivedChainCertificate.check, self.mutants(doc, edit)))

    def test_raised_depth_fails(self, doc):
        for i in range(len(doc["nodes"])):
            bad = copy.deepcopy(doc)
            bad["nodes"][i][4] += 1
            if i == len(doc["nodes"]) - 1:
                bad["term"] += 1  # the root's depth still equals the term
            assert not DerivedChainCertificate.check(bad), i

    def test_leaf_outside_sn_fails(self):
        # [d1, (x1) d1] = d1 and [d1, (x1^2) d1] = 2 (x1) d1; x1^2 d1 is not in sn
        good = {"kind": "derived_chain", "n": 1, "term": 1,
                "nodes": [_leaf("d1"), _leaf("(x1) d1"), ["d1", 0, 1, 1, 1]]}
        assert DerivedChainCertificate.check(good)
        bad = {"kind": "derived_chain", "n": 1, "term": 1,
               "nodes": [_leaf("d1"), _leaf("(x1^2) d1"), ["(x1) d1", 0, 1, 2, 1]]}
        assert not DerivedChainCertificate.check(bad)

    def test_forward_and_self_references_fail(self, doc):
        for side in (1, 2):
            for target in (lambda i: i, lambda i: i + 1, lambda i: len(doc["nodes"])):
                def edit(node, i):
                    node[side] = target(i)
                assert not any(map(DerivedChainCertificate.check, self.mutants(doc, edit)))

    def test_root_depth_must_equal_term(self, doc):
        for term in (doc["term"] - 1, doc["term"] + 1):
            assert not DerivedChainCertificate.check({**doc, "term": term})

    def test_malformed_documents_fail(self, doc):
        assert not DerivedChainCertificate.check({**doc, "kind": "other"})
        assert not DerivedChainCertificate.check({**doc, "nodes": []})
        assert not DerivedChainCertificate.check({k: v for k, v in doc.items() if k != "n"})
        one_leaf = {"kind": "derived_chain", "n": 1, "term": 0, "nodes": [_leaf("d1")]}
        assert DerivedChainCertificate.check(one_leaf)
        for key in ("(2) d1", "d1 + (x1) d1", "0", "(1/2) d1", "d1 d1"):
            assert not DerivedChainCertificate.check({**one_leaf, "nodes": [_leaf(key)]}), key
        assert not DerivedChainCertificate.check({**one_leaf, "nodes": [["d1", None, None, 2, 0]]})
        assert not DerivedChainCertificate.check({**one_leaf, "nodes": [["d1", 0, None, 1, 0]]})
        assert not DerivedChainCertificate.check({**one_leaf, "nodes": [["d1", None, None, 1]]})

    def test_golden_certificates_recheck_and_regenerate(self):
        text = GOLDEN_CERTIFICATES.read_text()
        docs = json.loads(text)
        assert [doc["n"] for doc in docs] == list(CERTIFICATE_NS)
        for doc in docs:
            assert doc["term"] == 2 * doc["n"] - 1
            assert DerivedChainCertificate.check(doc), doc["n"]
        assert render_certificates() == text
