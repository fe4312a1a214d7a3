import random
import time

import pytest

from polylie.canonical import (
    Bracket,
    DerivedChainWitness,
    Leaf,
    TruncatedSearch,
    derived_chain_witness,
    generators,
    lnd_check,
    membership,
    triangular_chain_bound,
)
from polylie.derivation import Derivation
from polylie.grammar import parse_derivation
from polylie.span import coordinatize, derived_series
from polylie.sampling import random_subalgebra_element

from matrices import from_rows, is_zero, power


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

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            generators("nope", 2, 2)


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
            assert verdict.certificate is not None and verdict.certificate.verify()

    def test_triangular_samples(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 3)
            d = random_subalgebra_element(rng, "un", n, 3)
            verdict = lnd_check(d, triangular_chain_bound(n, 3))
            assert verdict.status == "witness"

    def test_inconclusive_when_bound_too_small(self):
        n = 2
        verdict = lnd_check(pd("(x2^3) d1 + (x1) d2", n), 2)
        assert verdict.status == "inconclusive"

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


class TestDerivedChainWitness:
    def test_dimension_one(self):
        w = derived_chain_witness(1)
        assert w is not None and w.term == 1
        assert not w.value.is_zero()
        assert w.expression.evaluate(w.generators) == w.value
        # the whole subalgebra is two-dimensional; its derived length is 2
        basis = coordinatize(generators("sn", 1, 2))
        report = derived_series(basis)
        assert report.verdict == "solvable" and report.length == 2

    def test_dimension_one_term_two_empty(self):
        assert derived_chain_witness(1, term=2) is None

    def test_dimension_two(self):
        w = derived_chain_witness(2)
        assert w is not None and w.term == 3
        assert not w.value.is_zero()
        assert membership(w.value).in_sn
        assert w.expression.evaluate(w.generators) == w.value

    def test_expression_shape_is_balanced(self):
        w = derived_chain_witness(2)

        def depth(expr):
            if isinstance(expr, Leaf):
                return 0
            assert isinstance(expr, Bracket)
            left, right = depth(expr.left), depth(expr.right)
            assert left == right  # term-m expressions bracket two term-(m-1)s
            return left + 1

        assert depth(w.expression) == 3

    def test_sexpr_and_legend(self):
        w = derived_chain_witness(1)
        text = w.expression.to_sexpr()
        assert text.startswith("[") and "," in text
        legend = w.legend()
        assert all(name.startswith("g") for name in legend)

    def test_golden_n3_term2(self):
        w = derived_chain_witness(3, term=2, degree_cap=4)
        assert w.expression.to_sexpr() == "[[g1,g4],[g1,g11]]"
        assert str(w.value) == "(2) d2"

    @pytest.mark.slow
    def test_paper_target_n3_term5(self):
        # the derived-length lower bound 2n for n = 3: sn^(5) is nonzero
        start = time.perf_counter()
        w = derived_chain_witness(3)
        elapsed = time.perf_counter() - start
        assert isinstance(w, DerivedChainWitness) and w.term == 5
        assert str(w.value) == "(1024) d3"
        assert w.expression.evaluate(w.generators) == w.value
        assert membership(w.value).in_sn
        assert elapsed < 300, f"took {elapsed:.0f} s"

    def test_beam_cut_is_not_absence(self):
        for beam in (1, 2, 3):
            result = derived_chain_witness(2, beam=beam)
            assert isinstance(result, TruncatedSearch) and result.cut_at == 1
        assert isinstance(derived_chain_witness(2, beam=5), DerivedChainWitness)
        with pytest.raises(ValueError):
            derived_chain_witness(2, beam=0)

    def test_term_zero(self):
        w = derived_chain_witness(1, term=0)
        assert w is not None and isinstance(w.expression, Leaf)
