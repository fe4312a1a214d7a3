import itertools
import random

import pytest

from polylie.canonical import generators
from polylie.derivation import Derivation
from polylie.grammar import parse_derivation
from polylie.polyring import monomial_sort_key
from polylie.span import (
    SpanBasis,
    coordinatize,
    derived_series,
    lie_closure,
    lower_central_series,
)
from polylie.sampling import random_derivation


def pd(text, n):
    return parse_derivation(text, n)


class TestCoordinatize:
    def test_scalar_dependence(self):
        n = 1
        d1 = Derivation.partial(n, 1)
        assert coordinatize([d1, 2 * d1]).dim == 1

    def test_distinct_supports(self):
        n = 1
        assert coordinatize([pd("d1", n), pd("(x1) d1", n)]).dim == 2

    def test_rank_three_vectors(self):
        n = 2
        gens = [pd("(x1) d1 + (x2) d2", n), pd("(x1) d1 - (x2) d2", n),
                pd("(x2) d2", n)]
        assert coordinatize(gens).dim == 2

    def test_empty_needs_dimension(self):
        assert coordinatize([], n=2).dim == 0
        with pytest.raises(ValueError):
            coordinatize([])

    def test_containment_and_coordinates(self):
        n = 2
        basis = coordinatize([pd("(x1) d1 + (x2) d2", n), pd("(x2) d2", n)])
        inside = pd("(2 x1) d1 + (3 x2) d2", n)
        assert basis.contains(inside)
        assert not basis.contains(pd("(x1) d2", n))

    def test_deterministic_reduced_basis(self):
        n = 2
        a = coordinatize([pd("(x1) d1 + (x2) d2", n), pd("(x1) d1 - (x2) d2", n)])
        b = coordinatize([pd("(x1) d1", n), pd("(x2) d2", n)])
        assert a.same_span(b)
        assert a.basis == b.basis  # RREF is canonical for a fixed column order


class TestEchelonKernel:
    @staticmethod
    def _pivot(d):
        """Leading coordinate: first nonzero slot, then its graded-lex top monomial."""
        slot = next(i for i in range(1, d.n + 1) if not d.coeff(i).is_zero())
        return slot, d.coeff(slot).leading_monomial()

    def test_rref_characterization_under_every_shuffle(self):
        rng = random.Random(41)
        for _ in range(8):
            n = rng.randint(1, 3)
            gens = [random_derivation(rng, n, 2, max_terms=3) for _ in range(3)]
            gens.append(gens[0] - rng.randint(1, 3) * gens[1])  # a dependent one
            span = SpanBasis(n, gens)
            assert all(span.contains(g) for g in gens)
            reference = span.basis
            pivots = [self._pivot(b) for b in reference]
            for (s1, m1), (s2, m2) in zip(pivots, pivots[1:]):
                assert s1 < s2 or (s1 == s2 and monomial_sort_key(m1) > monomial_sort_key(m2))
            for b, (slot, mono) in zip(reference, pivots):
                assert b.coeff(slot).coefficient(mono) == 1
                for other in reference:
                    if other is not b:
                        assert other.coeff(slot).coefficient(mono) == 0
            for perm in itertools.permutations(gens):
                assert SpanBasis(n, list(perm)).basis == reference

    def test_add_reports_new_elements_only(self):
        n = 2
        basis = SpanBasis(n, [])
        assert basis.add(pd("(x1) d1 + (x2) d2", n))
        assert basis.add(pd("(x2) d2", n))
        assert not basis.add(pd("(3 x1) d1 - (x2) d2", n))
        assert not basis.add(Derivation.zero(n))
        assert basis.dim == 2
        assert basis.basis == coordinatize([pd("(x1) d1", n), pd("(x2) d2", n)]).basis


class TestLieClosure:
    def test_sl2_triple_already_closed(self):
        n = 1
        gens = [pd(t, n) for t in ("d1", "(x1) d1", "(x1^2) d1")]
        result = lie_closure(gens)
        assert result.status == "closed" and result.basis.dim == 3

    def test_generates_middle_element(self):
        n = 1
        result = lie_closure([pd("d1", n), pd("(x1^2) d1", n)])
        assert result.status == "closed" and result.basis.dim == 3
        assert result.basis.contains(pd("(x1) d1", n))

    def test_degree_cap(self):
        n = 2
        result = lie_closure([pd("(x1^2) d2", n), pd("(x2^2) d1", n)], degree_cap=3)
        assert result.status == "degree_cap_exceeded"
        assert result.offending_bracket is not None
        a, b = result.offending_bracket
        assert a.bracket(b).max_coeff_degree() > 3
        assert result.basis.contains(a) and result.basis.contains(b)

    def test_dim_cap(self):
        n = 2
        result = lie_closure([pd("(x1^2) d2", n), pd("(x2^2) d1", n)], dim_cap=4)
        assert result.status == "dim_cap_exceeded"

    def test_generator_above_degree_cap_rejected(self):
        n = 1
        with pytest.raises(ValueError, match=r"generator \(x1\^20\) d1 .* degree 20"):
            lie_closure([pd("d1", n), pd("(x1^20) d1", n)], degree_cap=3)
        # a generator at the cap is accepted
        assert lie_closure([pd("(x1^3) d1", n)], degree_cap=3).status == "closed"

    def test_empty_generators_rejected(self):
        # with no generator there is no ring to close in
        with pytest.raises(ValueError, match="at least one generator"):
            lie_closure([])

    def test_order_independent(self):
        rng = random.Random(31)
        n = 1
        gens = [pd(t, n) for t in ("d1", "(x1^2) d1", "(x1) d1")]
        reference = lie_closure(gens)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            other = lie_closure(shuffled)
            assert other.status == "closed"
            assert other.basis.same_span(reference.basis)

    def test_closed_result_is_bracket_closed(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d2", n), pd("(x1) d1", n)])
        assert result.status == "closed"
        assert result.basis.is_bracket_closed()


class TestDerivedSeries:
    def test_affine_span_solvable(self):
        n = 1
        report = derived_series(coordinatize([pd("d1", n), pd("(x1) d1", n)]))
        assert report.dims == (2, 1, 0)
        assert report.verdict == "solvable" and report.length == 2

    def test_sl2_stabilizes(self):
        n = 1
        gens = [pd(t, n) for t in ("d1", "(x1) d1", "(x1^2) d1")]
        report = derived_series(coordinatize(gens))
        assert report.dims == (3, 3)
        assert report.verdict == "stabilized_nonzero"

    def test_zero_span(self):
        report = derived_series(coordinatize([], n=2))
        assert report.dims == (0,)
        assert report.verdict == "solvable" and report.length == 0

    def test_not_closed_rejected(self):
        n = 1
        with pytest.raises(ValueError):
            derived_series(coordinatize([pd("d1", n), pd("(x1^2) d1", n)]))

    def test_dims_non_increasing_and_terms_closed(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d1", n), pd("(x1) d2", n),
                              pd("(x2) d2", n)])
        assert result.status == "closed"
        report = derived_series(result.basis)
        assert all(a >= b for a, b in zip(report.dims, report.dims[1:]))
        # every derived term is itself bracket-closed
        current = result.basis
        for _ in range(len(report.dims) - 1):
            nxt = SpanBasis(n, current.pairwise_brackets())
            assert nxt.is_bracket_closed()
            current = nxt


class TestLowerCentralSeries:
    def test_affine_span_not_nilpotent(self):
        n = 1
        report = lower_central_series(coordinatize([pd("d1", n), pd("(x1) d1", n)]))
        assert report.verdict == "stabilized_nonzero"

    def test_abelian_class_one(self):
        n = 2
        report = lower_central_series(coordinatize([pd("d1", n), pd("d2", n)]))
        assert report.verdict == "nilpotent" and report.length == 1

    def test_commuting_pair_class_one(self):
        n = 2
        report = lower_central_series(coordinatize([pd("d2", n), pd("(x1) d2", n)]))
        assert report.verdict == "nilpotent" and report.length == 1

    def test_default_cap_decides_nilpotent_closure(self):
        # un(3, 3) is nilpotent (Engel); its class 13 exceeds the 2n + 4 = 10
        # steps an n-based cap would allow
        closure = lie_closure(generators("un", 3, 3))
        assert closure.status == "closed"
        report = lower_central_series(closure.basis)
        assert report.verdict == "nilpotent" and report.length == 13
        assert report.dims[0] == 27 and report.dims[-2:] == (1, 0)
        assert all(a > b for a, b in zip(report.dims, report.dims[1:]))

    def test_derived_term_inside_lower_central_term(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d1", n), pd("(x1) d2", n),
                              pd("(x2) d2", n)])
        assert result.status == "closed"
        derived_term = result.basis
        lower_term = result.basis
        for _ in range(4):
            derived_term = SpanBasis(n, derived_term.pairwise_brackets())
            lower_term = SpanBasis(n, [a.bracket(b) for a in result.basis
                                       for b in lower_term.basis])
            assert all(lower_term.contains(d) for d in derived_term.basis)


class TestRandomSpans:
    def test_closure_idempotent_on_random_gens(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(1, 2)
            gens = [random_derivation(rng, n, 1, max_terms=2) for _ in range(2)]
            result = lie_closure(gens, degree_cap=6, dim_cap=64)
            if result.status != "closed":
                continue
            if not result.basis.dim:  # zero gens: nothing to re-close
                continue
            again = lie_closure(list(result.basis.basis), degree_cap=6, dim_cap=64)
            assert again.status == "closed"
            assert again.basis.same_span(result.basis)
