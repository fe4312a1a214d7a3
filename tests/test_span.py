import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from polylie.canonical import generators, random_subalgebra_element
from polylie.derivation import Derivation, format_derivation, row_support
from polylie.grammar import parse_derivation, parse_polynomial
import polylie.span as span_module
from polylie.span import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_DIM_CAP,
    LieClosureResult,
    SpanBasis,
    derived_series,
    lie_closure,
    lower_central_series,
)
from polylie import polyring
from polylie.polyring import Polynomial

from kernel_reference import graded_lex_key
from large_coefficients import big_derivation, big_rational
from samplers import random_derivation
import term_counts


def pd(text, n):
    return parse_derivation(text, n)


def pairwise_brackets(span):
    return [a.bracket(b) for a, b in itertools.combinations(span.basis, 2)]


def is_bracket_closed(span):
    return all(span.contains(b) for b in pairwise_brackets(span))


def generator_brackets(result):
    """The nonzero brackets [s, b] of each generator s of result with each
    basis element b of its span, made afresh: they span [S, L]."""
    fresh = (s.bracket(b) for s in result.generators for b in result.basis)
    return [f for f in fresh if not f.is_zero()]


def carried(result):
    """The [L, L] a result carries, as its reduced basis, or None."""
    return None if result._derived is None else result._derived.basis


def adjoin(span, d):
    """Adjoin d's row to span through the kernel, as the constructor does:
    True when it was new.  A span has no public call that changes it."""
    return span._add_row(d._terms) is not None


class TestCoordinatize:
    def test_scalar_dependence(self):
        n = 1
        d1 = Derivation.partial(n, 1)
        assert SpanBasis(n, [d1, 2 * d1]).dim == 1

    def test_distinct_supports(self):
        n = 1
        assert SpanBasis(n, [pd("d1", n), pd("(x1) d1", n)]).dim == 2

    def test_rank_three_vectors(self):
        n = 2
        gens = [pd("(x1) d1 + (x2) d2", n), pd("(x1) d1 - (x2) d2", n),
                pd("(x2) d2", n)]
        assert SpanBasis(n, gens).dim == 2

    def test_empty_needs_dimension(self):
        assert SpanBasis(2, []).dim == 0

    def test_containment_and_coordinates(self):
        n = 2
        basis = SpanBasis(n, [pd("(x1) d1 + (x2) d2", n), pd("(x2) d2", n)])
        inside = pd("(2 x1) d1 + (3 x2) d2", n)
        assert basis.contains(inside)
        assert not basis.contains(pd("(x1) d2", n))

    def test_non_derivation_rejected(self):
        # a span holds derivations: text or a polynomial is a TypeError that
        # names the value, not an AttributeError from inside the kernel, and
        # a derivation in another ring a ValueError, in the constructor and
        # in contains alike
        with pytest.raises(TypeError, match="not a Derivation: 'd1'"):
            SpanBasis(1, ["d1"])
        span = SpanBasis(1, [pd("d1", 1)])
        for call in (lambda d: SpanBasis(1, [pd("d1", 1), d]), span.contains):
            with pytest.raises(TypeError, match=r"not a Derivation: Polynomial\(1, 'x1'\)"):
                call(parse_polynomial("x1", 1))
            with pytest.raises(ValueError, match="ambient dimension mismatch: 2 vs 1"):
                call(pd("d1", 2))

    def test_deterministic_reduced_basis(self):
        n = 2
        a = SpanBasis(n, [pd("(x1) d1 + (x2) d2", n), pd("(x1) d1 - (x2) d2", n)])
        b = SpanBasis(n, [pd("(x1) d1", n), pd("(x2) d2", n)])
        # RREF is canonical for a fixed column order, so equal spans have
        # equal bases
        assert a.basis == b.basis


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
            gens = [random_derivation(rng, n, 2) for _ in range(3)]
            gens.append(gens[0] - rng.randint(1, 3) * gens[1])  # a dependent one
            span = SpanBasis(n, gens)
            assert all(span.contains(g) for g in gens)
            reference = span.basis
            pivots = [self._pivot(b) for b in reference]
            for (s1, m1), (s2, m2) in zip(pivots, pivots[1:]):
                assert s1 < s2 or (s1 == s2 and graded_lex_key(m1) > graded_lex_key(m2))
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
        assert adjoin(basis, pd("(x1) d1 + (x2) d2", n))
        assert adjoin(basis, pd("(x2) d2", n))
        rows = {p: dict(row) for p, row in basis._rows.items()}
        assert not adjoin(basis, pd("(3 x1) d1 - (x2) d2", n))
        assert not adjoin(basis, Derivation.zero(n))
        assert basis._rows == rows  # a row inside changes nothing
        assert basis.dim == 2
        assert basis.basis == SpanBasis(n, [pd("(x1) d1", n), pd("(x2) d2", n)]).basis

    def test_basis_elements_keep_their_values_after_later_adds(self):
        n = 2
        basis = SpanBasis(n, [pd("(x1) d1 + (x2) d2", n)])
        first = basis.basis
        # adding (x2) d2 back-eliminates the stored row behind first[0] in place
        assert adjoin(basis, pd("(x2) d2", n))
        assert adjoin(basis, pd("(x1) d2", n))
        assert first == (pd("(x1) d1 + (x2) d2", n),)
        assert str(first[0]) == "(x1) d1 + (x2) d2"

    def test_add_leaves_its_row_alone(self):
        # the kernel reduces and divides a copy of the row, also when the
        # row meets no pivot: here content 2 over denominator 1
        n = 2
        d = pd("2 d1 + (4 x1) d2", n)
        terms = dict(d._terms)
        span = SpanBasis(n, [])
        assert adjoin(span, d)
        assert d._terms == terms
        # (x1) d2 back-eliminates the stored row in its pivot column
        assert adjoin(span, pd("(x1) d2", n))
        assert d._terms == terms and d == pd("2 d1 + (4 x1) d2", n)
        assert span.basis == (pd("d1", n), pd("(x1) d2", n))


def reference_rref(n, gens):
    """Fraction Gauss-Jordan elimination on a dense matrix: the nonzero rows
    of the reduced row echelon form, pivots 1, as derivations in pivot order.
    Columns run slot ascending, then graded-lex descending within a slot."""
    vecs = [{(i, m): c for i, f in enumerate(g.coeffs, start=1) for m, c in f}
            for g in gens]
    cols = sorted({col for v in vecs for col in v},
                  key=lambda col: (col[0], -sum(col[1]), tuple(-e for e in col[1])))
    rows = [[v.get(col, Fraction(0)) for col in cols] for v in vecs]
    rank = 0
    for j in range(len(cols)):
        at = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        pivot = rows[rank][j]
        rows[rank] = [x / pivot for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[j] != 0:
                factor = row[j]
                rows[i] = [a - factor * b for a, b in zip(row, rows[rank])]
        rank += 1
    return [Derivation(n, [Polynomial(n, {m: x for (slot, m), x in zip(cols, row)
                                          if slot == i and x})
                           for i in range(1, n + 1)])
            for row in rows[:rank]]


class TestIntegerKernel:
    """SpanBasis against Fraction elimination, on coefficients up to 10^6."""

    @staticmethod
    def cases(seed, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 4)
            gens = [big_derivation(rng, n, 2) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 2)):  # large rational combinations
                a, b = rng.sample(gens, 2) if len(gens) > 1 else (gens[0], gens[0])
                gens.insert(rng.randrange(len(gens) + 1),
                            big_rational(rng) * a + big_rational(rng) * b)
            yield rng, n, gens

    def test_basis_is_fraction_rref(self):
        for _, n, gens in self.cases(61):
            span = SpanBasis(n, gens)
            check_span_invariants(span)
            assert span.basis == tuple(reference_rref(n, gens))

    def test_contains_and_add_agree_with_rank(self):
        for rng, n, gens in self.cases(62):
            span = SpanBasis(n, gens)
            rank = len(reference_rref(n, gens))
            assert span.dim == rank
            inside = Derivation.zero(n)
            for g in gens:
                inside = inside + big_rational(rng) * g
            for probe in (inside, big_derivation(rng, n, 2), big_derivation(rng, n, 1)):
                new = len(reference_rref(n, gens + [probe])) > rank
                assert span.contains(probe) is not new
                copy = SpanBasis(n, gens)
                assert adjoin(copy, probe) is new
                assert copy.basis == tuple(reference_rref(n, gens + [probe]))

    def test_scaling_generators_leaves_basis(self):
        for rng, n, gens in self.cases(63):
            scaled = [big_rational(rng) * g for g in gens]
            a, b = SpanBasis(n, gens), SpanBasis(n, scaled)
            assert a.basis == b.basis


def check_span_invariants(span):
    """The kernel's stored form: `_multi` holds exactly the pivots of the
    rows of more than one term, and each row is primitive, with a positive
    pivot entry, its first column, and a zero in every other pivot column."""
    rows = span._rows
    assert span._multi == {p for p, row in rows.items() if len(row) > 1}
    column_key = polyring.codec(span.n).column_key
    for p, row in rows.items():
        assert min(row, key=column_key) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert all(q == p or q not in row for q in rows)


class TestUnitRows:
    """A one-term row {p: 1} is cleared by deletion and decided by one
    lookup, and back-elimination walks only the rows of more than one term."""

    @staticmethod
    def added(n, gens):
        """The span of gens, its invariants checked after each add; and the
        number of adds that left a multi-term row with one term."""
        span, shrunk = SpanBasis(n, []), 0
        for g in gens:
            before = set(span._multi)
            adjoin(span, g)
            check_span_invariants(span)
            shrunk += len(before & set(span._rows) - span._multi)
        return span, shrunk

    @staticmethod
    def mixed_sets(seed, count=30):
        """Sets of one-term and multi-term derivations in n = 2 on the six
        columns of degree <= 1, so that terms collide often."""
        rng = random.Random(seed)
        monomials = [(slot, m) for slot in (1, 2) for m in ("", "x1", "x2")]
        for _ in range(count):
            gens = []
            for _ in range(rng.randint(3, 5)):
                terms = rng.sample(monomials, rng.choice((1, 1, 2, 3)))
                text = " + ".join(f"({rng.choice((-3, -2, -1, 1, 2, 3))} {m}) d{slot}"
                                  for slot, m in terms)
                gens.append(pd(text, 2))
            yield gens

    def test_mixed_rows_are_rref_under_every_shuffle(self):
        shrunk = 0
        for gens in self.mixed_sets(71):
            reference = tuple(reference_rref(2, gens))
            for perm in itertools.permutations(gens):
                span, k = self.added(2, perm)
                assert span.basis == reference
                shrunk += k
        # back-elimination left a multi-term row with one term in many adds
        assert shrunk > 100

    def test_back_elimination_leaves_a_unit_row(self):
        n = 2
        for first, entry in (("(x1) d1 + (x2) d2", 1), ("(2 x1) d1 + (3 x2) d2", 2)):
            span, _ = self.added(n, [pd(first, n)])
            (pivot,) = span._multi
            assert span._rows[pivot][pivot] == entry
            span, shrunk = self.added(n, [pd(first, n), pd("(x2) d2", n)])
            # the row of first is left with one term, stored as {pivot: 1}
            assert shrunk == 1 and not span._multi
            assert span._rows[pivot] == {pivot: 1}
            assert span.basis == (pd("(x1) d1", n), pd("(x2) d2", n))

    def test_one_term_rows_decided_by_lookup(self):
        n = 2
        span, _ = self.added(n, [pd("(x1) d1 + (x2) d2", n), pd("(x1) d2", n)])
        # inside: a unit pivot; new: a column that is no pivot; new or inside
        # by reduction: the pivot of a multi-term row
        assert not adjoin(span, pd("(-5 x1) d2", n))
        (key,) = pd("(7) d2", n)._terms
        assert adjoin(span, pd("(7) d2", n)) and span._rows[key] == {key: 1}
        check_span_invariants(span)
        assert adjoin(span, pd("(4 x1) d1", n))
        check_span_invariants(span)
        assert not span._multi and span.dim == 4
        assert not adjoin(span, pd("(x2) d2", n))


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

    @staticmethod
    def check_degree_capped(result, degree_cap):
        assert result.status == "degree_cap_exceeded"
        assert result.offending_bracket is not None
        a, b = result.offending_bracket
        assert a.bracket(b).max_coeff_degree() > degree_cap
        assert result.basis.contains(a) and result.basis.contains(b)

    @staticmethod
    def check_dim_capped(result, dim_cap):
        assert result.status == "dim_cap_exceeded"
        assert result.offending_bracket is None
        assert result.basis.dim > dim_cap

    @staticmethod
    def capped_cases(seed):
        """Closures of seeded generating sets under small caps: (result, caps)."""
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = [term_counts.random_derivation(rng, n, 2, 2)
                    for _ in range(rng.randint(1, 3))]
            caps = {"degree_cap": rng.randint(2, 4), "dim_cap": rng.randint(3, 12)}
            yield lie_closure(gens, **caps), caps

    def test_degree_cap(self):
        n = 2
        result = lie_closure([pd("(x1^2) d2", n), pd("(x2^2) d1", n)], degree_cap=3)
        self.check_degree_capped(result, 3)
        seen = 0
        for result, caps in self.capped_cases(141):
            if result.status == "degree_cap_exceeded":
                self.check_degree_capped(result, caps["degree_cap"])
                seen += 1
        assert seen >= 5

    def test_row_path_degree_stops_are_pinned(self):
        # (offending pair, the capped basis as printed), as the one walk
        # reaches them: an adjoined element of the pair is the primitive row
        # [L, L] stored for it, not its bracket as computed
        n = 2
        cases = [
            (("(-2/7) d2", "(-2/3) d2", "(2 x1 x2) d2"),
             ("(2 x1 x2) d2", "(x1^4) d2"),
             "(x1^4) d2, (x1^3) d2, (x1^2) d2, (x1 x2) d2, (x1) d2, d2"),
            (("(7/4 x1 + 6/5) d2", "(-2 x1 x2) d2"),
             ("(-2 x1 x2) d2", "(42875 x1^4 + 13824 x1) d2"),
             "(x1^4 - 331776/1500625) d2, (x1^3 + 13824/42875) d2, (x1^2 - 576/1225) d2, "
             "(x1 x2) d2, (x1 + 24/35) d2"),
        ]
        for texts, pair, basis in cases:
            result = lie_closure([pd(t, n) for t in texts], degree_cap=4)
            assert result.status == "degree_cap_exceeded"
            assert tuple(map(str, result.offending_bracket)) == pair
            assert ", ".join(map(str, result.basis)) == basis
            assert result._derived is None

    def test_dim_cap(self):
        n = 2
        result = lie_closure([pd("(x1^2) d2", n), pd("(x2^2) d1", n)], dim_cap=4)
        self.check_dim_capped(result, 4)
        seen = 0
        for result, caps in self.capped_cases(142):
            if result.status == "dim_cap_exceeded":
                self.check_dim_capped(result, caps["dim_cap"])
                seen += 1
        assert seen >= 5

    def test_generators_are_those_that_extend_the_span(self):
        # a generator inside the span of those before it is left out, and
        # the rest keep their input order; on the row path (a generator of
        # two terms) and on the key path (`un` monomials)
        n = 2
        gens = [pd("(x1) d1", n), pd("(2 x1) d2", n), pd("d1 + (x1) d2", n), pd("d1", n),
                pd("(-x1) d1", n)]
        result = lie_closure(gens)
        assert result.generators == (gens[0], gens[1], gens[2])
        assert result.basis.dim == 4
        n = 3
        gens = [pd(t, n) for t in ("(x1) d2", "d1", "(2) d1", "(x1^2) d3", "(x1 x2) d3")]
        result = lie_closure(gens)
        assert result.generators == (gens[0], gens[1], gens[3], gens[4])
        assert result.basis.dim == 8
        # a generator that a bracket reaches first stays a generator
        gens = [pd(t, n) for t in ("d1", "(x1) d2", "(x1^2) d3", "(x1) d3")]
        assert lie_closure(gens).generators == tuple(gens)

    def test_generators_and_kept_brackets_are_fresh(self):
        # the spans reduce copies: no generator that the closure hands out
        # is divided or back-eliminated in place later, and the rows of the
        # carried [L, L] are those of a span of fresh brackets, left as they
        # were by the join with the generators into L and by both series
        for gens in (generators("un", 3, 2), [pd(t, 4) for t in MULTI_ROW_GENERATORS]):
            texts = list(map(str, gens))
            result = lie_closure(gens)
            assert result.closed and result.generators == tuple(gens)
            derived_series(result), lower_central_series(result)
            assert list(map(str, result.generators)) == texts
            want = SpanBasis(result.basis.n, generator_brackets(result))
            assert result._derived._rows == want._rows
            assert carried(result) == want.basis
            assert result.basis.dim > len(result.generators)

    def test_mixed_dimensions_rejected(self):
        # generators in two different n fail at the intake, before either
        # path runs: rational generators and un monomials alike
        rational = [pd("d1 + (1/2 x1) d2", 2), pd("(x1) d2", 2), pd("(x1 x2) d3", 3)]
        monomials = [*generators("un", 2, 1), *generators("un", 3, 1)]
        for gens in (rational, monomials):
            with pytest.raises(ValueError, match="ambient dimension mismatch: 3 vs 2"):
                lie_closure(gens)

    def test_degree_bound_above_cap_still_closes(self):
        # a pair of degree 2 elements may bracket to degree 3, above the cap,
        # so its bracket's keys are scanned; [(x1^2) d1, d1] has degree 1
        n = 1
        result = lie_closure([pd("(x1^2) d1", n), pd("d1 + (x1^2) d1", n)], degree_cap=2)
        assert result.closed and result.basis.dim == 3
        assert result.basis.basis == (pd("(x1^2) d1", n), pd("(x1) d1", n), pd("d1", n))

    def test_generator_above_degree_cap_rejected(self):
        n = 1
        with pytest.raises(ValueError, match=r"generator \(x1\^20\) d1 .* degree 20"):
            lie_closure([pd("d1", n), pd("(x1^20) d1", n)], degree_cap=3)
        # a generator at the cap is accepted
        assert lie_closure([pd("(x1^3) d1", n)], degree_cap=3).status == "closed"

    def test_non_derivation_generator_rejected(self):
        # text, or a polynomial, is a TypeError that names the value
        with pytest.raises(TypeError, match="not a Derivation: 'd1'"):
            lie_closure(["d1"])
        with pytest.raises(TypeError, match=r"not a Derivation: Polynomial\(1, 'x1'\)"):
            lie_closure([parse_polynomial("x1", 1)])
        with pytest.raises(TypeError, match="not a Derivation: 'd1'"):
            lie_closure([pd("d1", 1), "d1"])

    def test_a_closed_result_cannot_grow(self):
        # a span has no public call that changes it (`texts` only prints
        # its rows), so the series report on
        # the span that lie_closure closed: one that grew [d1, (x1) d2] by
        # (x2) d2 read [4, 1, 0] nilpotent, for an algebra whose lower
        # central series is [4, 2, 2]
        n = 2
        gens = [pd("d1", n), pd("(x1) d2", n)]
        result = lie_closure(gens)
        assert not hasattr(result.basis, "add")
        assert [name for name in dir(SpanBasis) if not name.startswith("_")] == [
            "basis", "contains", "dim", "n", "texts"]
        for series in (derived_series, lower_central_series):
            assert series(result).dims == (3, 1, 0)
        report = lower_central_series(lie_closure([*gens, pd("(x2) d2", n)]))
        assert report.dims == (4, 2, 2) and report.verdict == "stabilized_nonzero"

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
            assert other.basis.basis == reference.basis.basis

    def test_closed_result_is_bracket_closed(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d2", n), pd("(x1) d1", n)])
        assert result.status == "closed"
        assert is_bracket_closed(result.basis)


class TestDerivedSeries:
    def test_affine_span_solvable(self):
        n = 1
        report = derived_series(lie_closure([pd("d1", n), pd("(x1) d1", n)]))
        assert report.dims == (2, 1, 0)
        assert report.verdict == "solvable" and report.length == 2

    def test_sl2_stabilizes(self):
        n = 1
        gens = [pd(t, n) for t in ("d1", "(x1) d1", "(x1^2) d1")]
        report = derived_series(lie_closure(gens))
        assert report.dims == (3, 3)
        assert report.verdict == "stabilized_nonzero"

    def test_monomial_sl2_is_not_nilpotent(self):
        # sl2 from d1 and (x1^2) d1 is a span of monomials with [L, L] = L:
        # (x1^2) d1 weighs above -1, so no weight proof of nilpotency holds,
        # and the series run on rows by the generators
        n = 1
        result = lie_closure([pd("d1", n), pd("(x1^2) d1", n)])
        assert result.basis.dim == 3 and not result.basis._multi
        for series in (derived_series, lower_central_series):
            report = series(result)
            assert report.dims == (3, 3)
            assert report.verdict == "stabilized_nonzero" and report.stabilized_at == 1

    def test_zero_span(self):
        report = derived_series(lie_closure([Derivation.zero(2)]))
        assert report.dims == (0,)
        assert report.verdict == "solvable" and report.length == 0

    def test_not_closed_rejected(self):
        n = 1
        result = lie_closure([pd("d1", n), pd("(x1^2) d1", n)], dim_cap=2)
        assert result.status == "dim_cap_exceeded"
        with pytest.raises(ValueError, match="dim_cap_exceeded"):
            derived_series(result)

    def test_span_rejected(self):
        n = 1
        basis = SpanBasis(n, [pd("d1", n), pd("(x1) d1", n)])
        for series in (derived_series, lower_central_series):
            with pytest.raises(TypeError, match="lie_closure"):
                series(basis)

    def test_dims_non_increasing_and_terms_closed(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d1", n), pd("(x1) d2", n),
                              pd("(x2) d2", n)])
        assert result.status == "closed"
        report = derived_series(result)
        assert all(a >= b for a, b in zip(report.dims, report.dims[1:]))
        # every derived term is itself bracket-closed
        current = result.basis
        for _ in range(len(report.dims) - 1):
            nxt = SpanBasis(n, pairwise_brackets(current))
            assert is_bracket_closed(nxt)
            current = nxt


class TestLowerCentralSeries:
    def test_affine_span_not_nilpotent(self):
        n = 1
        report = lower_central_series(lie_closure([pd("d1", n), pd("(x1) d1", n)]))
        assert report.verdict == "stabilized_nonzero"

    def test_abelian_class_one(self):
        n = 2
        report = lower_central_series(lie_closure([pd("d1", n), pd("d2", n)]))
        assert report.verdict == "nilpotent" and report.length == 1

    def test_commuting_pair_class_one(self):
        n = 2
        report = lower_central_series(lie_closure([pd("d2", n), pd("(x1) d2", n)]))
        assert report.verdict == "nilpotent" and report.length == 1

    def test_default_cap_decides_nilpotent_closure(self):
        # L(n, c), the closure of generators("un", n, c), is nilpotent
        # (Engel) of class w_n(c) = 1 + c + ... + c^(n-1): 13 for un(3, 3),
        # above the 2n + 4 = 10 steps an n-based cap would allow; 40 for
        # L(4, 3) and 31 for L(5, 2), from their closed results
        closure = lie_closure(generators("un", 3, 3))
        assert closure.status == "closed"
        reports = [(lower_central_series(closure), 27, 13)]
        for n, c, degree_cap, dim in ((4, 3, 40, 265), (5, 2, 16, 249)):
            closure = lie_closure(generators("un", n, c), degree_cap=degree_cap)
            assert closure.closed
            w = sum(c ** k for k in range(n))
            reports.append((lower_central_series(closure), dim, w))
        for report, dim, w in reports:
            assert report.verdict == "nilpotent" and report.length == w
            assert report.dims[0] == dim and report.dims[-2:] == (1, 0)
            assert all(a > b for a, b in zip(report.dims, report.dims[1:]))

    def test_derived_term_inside_lower_central_term(self):
        n = 2
        result = lie_closure([pd("d1", n), pd("(x1) d1", n), pd("(x1) d2", n),
                              pd("(x2) d2", n)])
        assert result.status == "closed"
        derived_term = result.basis
        lower_term = result.basis
        for _ in range(4):
            derived_term = SpanBasis(n, pairwise_brackets(derived_term))
            lower_term = SpanBasis(n, [a.bracket(b) for a in result.basis
                                       for b in lower_term.basis])
            assert all(lower_term.contains(d) for d in derived_term.basis)


FIVE_GENERATORS = ("d1", "(1/2 x1) d2 + d3", "(2/3 x1^2) d2", "(x1 x2) d3",
                   "(3/4 x2^2) d3")


# three un(4, 2) elements whose lower series keeps a pivot with a new row
STALE_PIVOT_GENERATORS = ("(-9/4 x1^2 + 1) d2 + (x1 x2) d3", "(2 x3^2 + 7/3 x2) d4",
                          "(9/8 x1 + 7/2 x2) d3")


# the three seeded un(4, 2) sets of the closure-un4 benchmark at seed 42, as
# its commands spell them: rational elements whose closures are a 20-dim span
# of monomials, and 44- and 38-dim spans keeping 8 and 4 rows of more than one
# term, so that their series run on keys, and on rows, by generating sets
# smaller than the generators (4 rows, 4 rows, and 6)
MONOMIAL_CLOSURE_GENERATORS = (
    "(2/5 x3^2) d4 + (4/3 x1 x3) d4 + (2/7 x2^2) d4",
    "(1/2 x2) d4 + (4/9) d3 + (1/9) d1 + (7/8 x1 x3) d4", "(5/3) d4",
    "(-7/5 x2) d4 + (3/6) d4",
    "(2/7 x1 x2) d4 + (-2/6) d2 + (5/8 x2^2) d4 + (9/7 x1 x2) d3",
    "(-2/6) d2 + (4 x2 x3) d4 + (-4/2 x3) d4")
MULTI_ROW_GENERATORS = (
    "(4/7) d2 + (-5/6 x1) d2 + (-3/6 x1^2) d4",
    "(-4/2 x1) d3 + (3/3 x1 x2) d4 + (-8/5 x2^2) d3 + (9/6 x1) d2",
    "(1 x3^2) d4 + (-6/5 x3) d4 + (2/6 x1) d3",
    "(-4/7) d4 + (8/5 x3^2) d4 + (3/9 x1 x3) d4 + (-9/7 x3) d4",
    "(-7/4 x1^2) d2 + (-3/2 x2^2) d4 + (1/3) d2 + (-3/2 x3^2) d4",
    "(-7/8 x1) d4 + (-9/9 x1^2) d4 + (1/9 x1 x2) d4 + (-5/2 x1) d3")
FEW_MULTI_ROW_GENERATORS = (
    "(-5/3 x1^2) d3 + (8/5 x1^2) d2", "(9/9) d4",
    "(-2/9 x1^2) d2 + (4/6 x1 x2) d4 + (3/6 x2) d4",
    "(8/2 x2) d3 + (-6/4 x1 x2) d3 + (1/2 x1^2) d2", "(-2/2 x3^2) d4 + (9/3 x2) d3",
    "(8/5 x2^2) d3 + (-9/4 x1 x2) d4 + (9/5 x3) d4")


def seeded_un4_closures():
    """The closures of the three seeded un(4, 2) sets, in order."""
    return [lie_closure([pd(t, 4) for t in texts]) for texts in (
        MONOMIAL_CLOSURE_GENERATORS, MULTI_ROW_GENERATORS, FEW_MULTI_ROW_GENERATORS)]


def closed_results():
    """Closed closures: un(3, 3); five generators; sl2, which stabilizes; a
    set that is not nilpotent; un closures whose rows keep several terms;
    a rational set whose closure is monomial; seeded sets with redundant
    generators."""
    yield lie_closure(generators("un", 3, 3))
    yield lie_closure([pd(t, 3) for t in FIVE_GENERATORS])
    yield lie_closure([pd("d1", 1), pd("(x1^2) d1", 1)])
    yield lie_closure([pd("d1", 2), pd("(x1) d1", 2), pd("(x1) d2", 2)])
    yield lie_closure([pd(t, 4) for t in STALE_PIVOT_GENERATORS])
    yield from seeded_un4_closures()
    rng = random.Random(14)
    for _ in range(12):
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            gens = [random_subalgebra_element(rng, "un", n, 2) for _ in range(3)]
        else:
            gens = [term_counts.random_derivation(rng, n, 1, 2) for _ in range(3)]
        # one generator inside the span so far, one inside the algebra
        gens += [Fraction(2, 3) * gens[0] - gens[1], gens[0].bracket(gens[2])]
        result = lie_closure(gens, degree_cap=6, dim_cap=64)
        assert result.closed
        yield result


def on_keys(result):
    """Whether the series of a closed result run on key sets: its
    generators' terms all weigh -1 or less (`KeyCodec.weight`, for c their
    largest degree) and its rows are monomials."""
    c = polyring.codec(result.basis.n)
    terms = [key for g in result.generators for key in g._terms]
    top = max(map(c.degree, terms), default=0)
    return all(c.weight(key, top) <= -1 for key in terms) and not result.basis._multi


def reference_terms(basis, lower_central=True):
    """The lower central (or derived) series terms from all pairs of
    Derivation brackets, stopping as the series does."""
    terms = [basis]
    while terms[-1].dim:
        left = basis if lower_central else terms[-1]
        nxt = SpanBasis(basis.n, [a.bracket(b) for a in left for b in terms[-1]])
        terms.append(nxt)
        if nxt.dim == terms[-2].dim:
            break
    return terms


class TestSeriesByGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_un_terms_are_the_terms_weighing_below_zero(self, n):
        # the nilpotency proof argues by weight, the path reads levels: for
        # generators of degree at most c, a term weighs -1 or less exactly
        # when it is a `un` term, of level 2 * slot - 1, in every slot
        c = polyring.codec(n)
        for top in (1, 2, 3):
            monomials = [m for m in itertools.product(range(top + 1), repeat=n)
                         if sum(m) <= top]
            un = 0
            for slot in range(1, n + 1):
                for m in monomials:
                    key = (slot << c.slot_shift) + c.pack(m)
                    is_un = c.level(key) == 2 * slot - 1
                    assert (c.weight(key, top) <= -1) == is_un == span_module._un_term(c, key)
                    un += is_un
            # un(n, top) has these terms: sum over slots of the monomials
            # of degree <= top in the variables before the slot
            assert un == sum(comb(i - 1 + top, top) for i in range(1, n + 1))

    def test_result_series_equal_reference_series(self):
        for result in closed_results():
            for series, lower_central in ((derived_series, False), (lower_central_series, True)):
                assert series(result).dims == \
                    tuple(t.dim for t in reference_terms(result.basis, lower_central))

    def test_generators_bracket_each_lower_term(self):
        # [L, L^k] = span [S, L^k] for the generators S
        for result in closed_results():
            gens = result.generators
            terms = reference_terms(result.basis)
            for term, nxt in zip(terms, terms[1:]):
                by_gens = SpanBasis(term.n, [s.bracket(b) for s in gens for b in term])
                assert by_gens.basis == nxt.basis

    def test_kept_brackets_are_the_nonzero_generator_brackets(self):
        # the carried [L, L] is the span of the nonzero generator brackets,
        # and equals the span of all brackets of L
        for result in closed_results():
            n = result.basis.n
            assert carried(result) == SpanBasis(n, generator_brackets(result)).basis
            assert carried(result) == SpanBasis(n, pairwise_brackets(result.basis)).basis

    def test_capped_results_carry_no_derived_algebra(self):
        seen = set()
        for gens, caps in monomial_inputs():
            result = lie_closure(gens, **caps)
            seen.add(result.status)
            assert (result._derived is None) == (not result.closed)
        assert seen == {"closed", "degree_cap_exceeded", "dim_cap_exceeded"}
        gens = [pd("(x1^2) d2", 2), pd("(x2^2) d1", 2)]  # on rows
        for caps, status in (({"degree_cap": 3}, "degree_cap_exceeded"),
                             ({"dim_cap": 4}, "dim_cap_exceeded")):
            result = lie_closure(gens, **caps)
            assert result.status == status and result._derived is None

    def test_first_series_term_reduces_no_row(self, monkeypatch):
        # [L, L] is the span lie_closure carries: no row is added to a span
        # before the series makes its second term, and a series that stops
        # at its first term adds none at all
        events = []
        add_row = SpanBasis._add_row
        step, bracket_span = span_module._generator_step, span_module._bracket_span

        def recorded(name, fn):
            def call(*args):
                events.append(name)
                return fn(*args)
            return call

        results = list(closed_results())
        monkeypatch.setattr(SpanBasis, "_add_row", recorded("add", add_row))
        monkeypatch.setattr(span_module, "_generator_step", recorded("step", step))
        monkeypatch.setattr(span_module, "_bracket_span", recorded("step", bracket_span))
        later = 0
        for result in results:
            for series in (derived_series, lower_central_series):
                events.clear()
                report = series(result)
                first = events.index("step") if "step" in events else len(events)
                assert "add" not in events[:first]
                later += "step" in events
                if len(report.dims) == 2:  # [L, L] is zero or L
                    assert not events
        assert later >= 20

    def test_kept_brackets_stay_out_of_repr(self):
        result = lie_closure([pd("d1", 1), pd("(x1) d1", 1)])
        assert result._derived.dim == 1
        by_hand = LieClosureResult(result.status, result.basis, result.generators)
        assert repr(result) == repr(by_hand) == (
            "LieClosureResult(status='closed', basis=SpanBasis(n=1, dim=2), "
            "generators=(Derivation(1, 'd1'), Derivation(1, '(x1) d1')), "
            "offending_bracket=None)")

    def test_bracket_counts(self, monkeypatch):
        count, nonzero = [0], [0]
        bracket_rows = span_module.bracket_rows

        def counted(*args):
            count[0] += 1
            out = bracket_rows(*args)
            nonzero[0] += bool(out)
            return out

        tests = [0]
        meet = span_module.signatures_meet

        def counted_meet(*args):
            tests[0] += 1
            return meet(*args)

        def brackets(call, *args):
            count[0] = tests[0] = adds[0] = 0
            call(*args)
            return count[0], tests[0], adds[0]

        add_row = SpanBasis._add_row
        adds = [0]

        def counted_add(self, row):
            adds[0] += 1
            return add_row(self, row)

        monkeypatch.setattr(span_module, "bracket_rows", counted)
        monkeypatch.setattr(span_module, "signatures_meet", counted_meet)
        monkeypatch.setattr(SpanBasis, "_add_row", counted_add)
        # a un closure keeping 8 rows of several terms: the row path (a
        # closure of monomials takes the key path, see TestMonomialPath)
        result = lie_closure([pd(t, 4) for t in MULTI_ROW_GENERATORS])
        g, dim = len(result.generators), result.basis.dim
        assert (g, dim, len(result.basis._multi)) == (6, 44, 8)
        # every generator pair is walked, and only the 114 whose signatures
        # meet are bracketed: here exactly the nonzero ones.  An adjoined
        # element is the reduced row that [L, L] stored for its bracket, and
        # its signature meets fewer generators than the bracket's: adjoining
        # the brackets themselves made 144
        assert tests[0] == comb(g, 2) + g * (dim - g) == 243
        assert count[0] == nonzero[0] == 114
        # _add_row calls: one per generator into quot, one per bracket into
        # [L, L], 12 that put back the rows of quot a new pivot of [L, L]
        # cleared, and the 4 rows of quot joined into L
        assert result._derived.dim == dim - 4 == 40
        assert adds[0] == g + 114 + 12 + 4 == 136
        # (brackets made, signatures_meet tests, _add_row calls).  The first
        # series step is the carried [L, L], so it brackets and adds nothing.
        # [L, L] has dim 40, so the lower series brackets by the 44 - 40 = 4
        # rows of L outside it, not by the 6 generators: 4 * 40 tests, since
        # every row of a later term is one of [L, L] unchanged, and reuses its
        # brackets.  The derived series finds its meeting pairs by slot and
        # variable lists, so tests none, and adds each bracket it makes
        assert brackets(lower_central_series, result) == (85, 4 * 40, 276)
        assert brackets(derived_series, result) == (63, 0, 63)
        # sn input has no weight proof of nilpotency: its 9 generators
        # bracket with the 6 rows of [L, L]
        sn = lie_closure(generators("sn", 3, 1))
        assert (len(sn.generators), sn.basis.dim) == (9, 9)
        assert brackets(lower_central_series, sn) == (17, 9 * 6, 17)
        assert lower_central_series(sn).dims == (9, 6, 6)
        # nor, forced, has the un closure: then its 6 generators bracket
        monkeypatch.setattr(span_module, "_un_term", lambda c, key: False)
        assert brackets(lower_central_series, result) == (105, 6 * 40, 312)

    def test_derived_series_brackets_exactly_the_meeting_pairs(self, monkeypatch):
        # each step after the first brackets the pairs of its term's rows
        # whose signatures meet, each once, in itertools.combinations order
        steps = []  # per step: (pairs expected, pairs bracketed)
        bracket_rows, meeting_pairs = span_module.bracket_rows, span_module._meeting_pairs

        def recorded(a, pa, b, pb):
            steps[-1][1].append((frozenset(a.items()), frozenset(b.items())))
            return bracket_rows(a, pa, b, pb)

        def listed(n, ops):
            steps.append(([(frozenset(a.items()), frozenset(b.items()))
                           for (a, _, sa), (b, _, sb) in itertools.combinations(ops, 2)
                           if span_module.signatures_meet(n, sa, sb)], []))
            return meeting_pairs(n, ops)

        # closures of monomials take the key path and make no steps here
        results = list(closed_results())
        monkeypatch.setattr(span_module, "bracket_rows", recorded)
        monkeypatch.setattr(span_module, "_meeting_pairs", listed)
        skipped = 0
        on_rows = 0
        for result in results:
            steps.clear()
            report = derived_series(result)
            if on_keys(result):
                assert not steps
                continue
            on_rows += 1
            assert len(steps) == max(len(report.dims) - 2, 0)
            for (expected, made), dim in zip(steps, report.dims[1:]):
                assert made == expected
                skipped += comb(dim, 2) - len(made)
        assert on_rows > 10 and skipped > 1000

    def test_lower_series_brackets_each_generator_and_row_once(self, monkeypatch):
        calls = []
        bracket_rows = span_module.bracket_rows

        def recorded(a, pa, b, pb):
            calls.append((frozenset(a.items()), frozenset(b.items())))
            return bracket_rows(a, pa, b, pb)

        monkeypatch.setattr(span_module, "bracket_rows", recorded)
        # un closures that keep rows of several terms, which bracket the rows
        # of L outside [L, L], and sn input, which brackets its generators
        for result in (*seeded_un4_closures()[1:],
                       lie_closure([pd(t, 4) for t in STALE_PIVOT_GENERATORS]),
                       lie_closure(generators("sn", 3, 1))):
            assert not on_keys(result)
            calls.clear()
            lower_central_series(result)
            assert calls and len(set(calls)) == len(calls)

    def test_rows_outside_the_derived_algebra_generate(self, monkeypatch):
        # a un closure on rows brackets by the rows of L whose pivots [L, L]
        # lacks: dim L - dim [L, L] of them, and the closure of those alone
        # is L again
        generating = []
        step = span_module._generator_step

        def recorded(n, gens, term, kept):
            generating.append([row for row, _, _ in gens])
            return step(n, gens, term, kept)

        monkeypatch.setattr(span_module, "_generator_step", recorded)
        for result, want in zip(
                (*seeded_un4_closures()[1:],
                 lie_closure([pd(t, 4) for t in STALE_PIVOT_GENERATORS])), (4, 6, 3)):
            generating.clear()
            dims = lower_central_series(result).dims
            n, rows = result.basis.n, generating[0]
            assert len(rows) == dims[0] - dims[1] == want
            assert all(row in result.basis._rows.values() for row in rows)
            again = lie_closure([Derivation._from_terms(n, row, 1) for row in rows])
            assert again.basis.basis == result.basis.basis

    def test_rational_set_with_monomial_closure_runs_on_keys(self, monkeypatch):
        # rational elements of several terms whose closure is 20 monomials:
        # [L, L] is the span of the brackets [s, b] of the generators with
        # L's basis, 16 of which hold more than one term, yet a span of
        # monomials; and no row is bracketed
        result = seeded_un4_closures()[0]
        assert (len(result.generators), result.basis.dim) == (6, 20)
        assert on_keys(result)
        assert sum(len(f._terms) > 1 for f in generator_brackets(result)) == 16
        assert not result._derived._multi
        monkeypatch.setattr(span_module, "bracket_rows",
                            lambda *args: pytest.fail("a row was bracketed"))
        lower, derived = lower_central_series(result), derived_series(result)
        assert lower.dims == (20, 16, 13, 9, 6, 3, 1, 0) and lower.length == 7
        assert derived.dims == (20, 16, 8, 0) and derived.length == 3
        for report, lower_central in ((lower, True), (derived, False)):
            assert report.dims == \
                tuple(t.dim for t in reference_terms(result.basis, lower_central))

    def test_kept_brackets_are_matched_by_row_content(self):
        # a row of L^k changes in L^(k+1) while its pivot stays, for a k >= 1
        # whose L^(k+1) is bracketed: the brackets kept for that pivot are
        # those of the old row, and reusing them gives (17, 14, 11, 8, 4, 2, 2)
        result = lie_closure([pd(t, 4) for t in STALE_PIVOT_GENERATORS])
        terms = reference_terms(result.basis)
        assert any(pivot in term._rows and term._rows[pivot] != row
                   for term, nxt in zip(terms[1:-2], terms[2:-1])
                   for pivot, row in nxt._rows.items())
        assert lower_central_series(result).dims == tuple(t.dim for t in terms) == \
            (17, 14, 11, 7, 3, 0)

    def test_skipped_closure_pairs_bracket_to_zero(self):
        # each generator with each basis element of L: a pair whose
        # signatures do not meet brackets to zero; here 303 of the 15 * 27
        # pairs are skipped, which are all the pairs whose bracket is zero
        result = lie_closure(generators("un", 3, 3))
        skipped = 0
        for a in result.generators:
            for b in result.basis:
                sa, sb = (row_support(3, d._terms)[1] for d in (a, b))
                if not span_module.signatures_meet(3, sa, sb):
                    skipped += 1
                    assert a.bracket(b).is_zero()
        assert skipped == 303

    def test_capped_result_rejected(self):
        n = 2
        result = lie_closure([pd("(x1^2) d2", n), pd("(x2^2) d1", n)], degree_cap=3)
        assert result.status == "degree_cap_exceeded"
        for series in (derived_series, lower_central_series):
            with pytest.raises(ValueError, match="degree_cap_exceeded"):
                series(result)

    def test_result_not_closed_under_generators_rejected(self):
        # a result built by hand keeps no brackets, so it is refused whether
        # or not its span is bracket-closed
        n = 1
        gens = (pd("d1", n), pd("(x1^2) d1", n))
        result = LieClosureResult("closed", SpanBasis(n, gens), gens)
        assert result._derived is None
        for series in (derived_series, lower_central_series):
            with pytest.raises(ValueError, match="built by hand"):
                series(result)


def fixpoint_closure(gens, degree_cap, dim_cap):
    """(L, [L, L]) for the algebra L that gens generate, by brackets of all
    pairs of a basis until the span stops growing, or None when L leaves a
    cap: a bracket of coefficient degree above degree_cap, or a span
    of dimension above dim_cap."""
    n = gens[0].n
    span = SpanBasis(n, gens)
    while span.dim <= dim_cap:
        brackets = [a.bracket(b) for a, b in itertools.combinations(span.basis, 2)]
        if any(d.max_coeff_degree() > degree_cap for d in brackets if d):
            return None
        grown = SpanBasis(n, [*span.basis, *brackets])
        if grown.dim == span.dim:
            return span, SpanBasis(n, brackets)
        span = grown
    return None


def random_closure_inputs(rng):
    """Small rational generating sets in n <= 3 variables: W_n elements,
    un and sn combinations (the row path), and rational multiples of `un`
    monomials, repeats among them (the key path), each with caps."""
    kind = rng.choice(("W", "un", "sn", "monomials"))
    n = rng.randint(1 if kind == "W" else 2, 3)  # un(1) is d1 alone
    size = rng.randint(1, 4)
    if kind == "W":
        gens = [term_counts.random_derivation(rng, n, 2, 2) for _ in range(size)]
    elif kind == "monomials":
        pool = generators("un", n, 2)
        gens = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) * rng.choice(pool)
                for _ in range(2 * size)]
    else:
        gens = [random_subalgebra_element(rng, kind, n, 2) for _ in range(size)]
    return gens, {"degree_cap": rng.randint(2, 5), "dim_cap": rng.randint(4, 40)}


class TestRandomSpans:
    def test_closure_equals_fixpoint_closure(self):
        # whichever walk closes, L, [L, L] and the generators kept are those
        # of the algebra itself; a cap stop is exactly an L that leaves a cap
        rng = random.Random(4407)
        statuses, closed = set(), {True: 0, False: 0}
        pruned = 0  # key path closures with a generator inside [L, L]
        for _ in range(200):
            gens, caps = random_closure_inputs(rng)
            result = lie_closure(gens, **caps)
            statuses.add(result.status)
            want = fixpoint_closure(gens, **caps)
            if want is None:
                assert not result.closed and result._derived is None
                continue
            span, derived = want
            kept = tuple(g for i, g in enumerate(gens)
                         if SpanBasis(g.n, gens[:i + 1]).dim > SpanBasis(g.n, gens[:i]).dim)
            assert result.status == "closed"
            assert result.basis.basis == span.basis
            assert result._derived._rows == derived._rows
            assert result.generators == kept
            on_keys = span_module._un_monomials(span.n, gens) is not None
            closed[on_keys] += 1
            pruned += on_keys and len(kept) > span.dim - derived.dim
        assert statuses == {"closed", "degree_cap_exceeded", "dim_cap_exceeded"}
        assert closed[False] >= 50 and closed[True] >= 50 and pruned >= 20

    def test_closure_idempotent_on_random_gens(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(1, 2)
            gens = [term_counts.random_derivation(rng, n, 1, 2) for _ in range(2)]
            result = lie_closure(gens, degree_cap=6, dim_cap=64)
            if result.status != "closed":
                continue
            if not result.basis.dim:  # zero gens: nothing to re-close
                continue
            again = lie_closure(list(result.basis.basis), degree_cap=6, dim_cap=64)
            assert again.status == "closed"
            assert again.basis.basis == result.basis.basis


def monomial_inputs():
    """(gens, caps) for every monomial un input of the tests and of the CLI
    corpus: the un(n, c) sets, rational multiples with repeats, capped
    closures, and a set whose adjoined generators alone are monomials."""
    for n, c, caps in ((1, 2, {}), (2, 2, {}), (3, 2, {}), (3, 3, {}), (4, 2, {}),
                       (4, 3, {"degree_cap": 40}), (5, 2, {"degree_cap": 16}),
                       (3, 3, {"dim_cap": 20}), (4, 2, {"dim_cap": 30}),
                       (3, 3, {"degree_cap": 4}), (4, 2, {"degree_cap": 3})):
        yield generators("un", n, c), caps
    yield list(reversed(generators("un", 3, 2))), {}
    for n, texts, caps in (
            (2, ("d1", "(1/2 x1) d2", "(2/3 x1^2) d2"), {}),  # the CLI corpus
            (3, ("d1", "(x1) d2", "(x1^2) d3"), {}),
            (2, ("(x1) d2",), {}),
            (2, ("d2",), {"degree_cap": 1}),
            (3, ("d1", "(2) d1", "(x1) d2", "(-x1) d2", "(x1 x2) d3"), {}),
            (3, ("(-7/2 x1^2) d2", "(3/5 x1 x2^2) d3", "(2/3) d1", "(4) d2"), {}),
            (3, ("(1/2 x1^2) d2", "(3 x2^2) d3", "(2/3) d1"), {"degree_cap": 3}),
            # a closure on rows, since one generator has two terms, but that
            # generator is not adjoined: the lower series runs on keys
            (3, ("d1", "(x1) d2", "d1 + (x1) d2", "(x1^2) d3"), {})):
        yield [pd(t, n) for t in texts], caps


class TestTexts:
    def test_texts_print_the_basis(self):
        # each text, read from a stored row over its pivot entry, is the text
        # of the matching basis element: on keys and on rows, closed and capped,
        # for L and for the [L, L] a closed result carries
        rng = random.Random(4646)
        inputs = [*monomial_inputs(), *(random_closure_inputs(rng) for _ in range(60))]
        spans = multi = 0
        statuses = set()
        for gens, caps in inputs:
            result = lie_closure(gens, **caps)
            statuses.add(result.status)
            for span in (result.basis, result._derived):
                if span is None:
                    continue
                assert span.texts() == [format_derivation(b) for b in span.basis]
                spans += 1
                multi += len(span._multi)
        assert statuses == {"closed", "degree_cap_exceeded", "dim_cap_exceeded"}
        assert spans >= 100 and multi >= 50  # rows of several terms


# the derived series of L(n, c), the closure of generators("un", n, c)
FULL_SET_DERIVED_DIMS = {(4, 4): (1136, 1132, 1112, 958, 0),
                         (6, 2): (2076, 2070, 2052, 1928, 1311, 132, 0),
                         (5, 3): (6092, 6087, 6066, 5854, 4562, 0)}


class TestMonomialPath:
    """Monomial un input runs on key sets; every other input on rows."""

    @staticmethod
    def fields(result):
        return (result.status, result.basis.basis, result.generators, result.offending_bracket,
                carried(result))

    def test_key_path_equals_row_path_and_reference(self, monkeypatch):
        # closures and both series against the row path, forced by refusing
        # the `un` rule, which gates both the key path and the weight proof
        # that prunes the generators; the series against all pairs too.  A
        # capped closure stops where its own walk does, so the two paths
        # agree on the status, and each stop is checked on its own
        inputs = list(monomial_inputs())
        results = [lie_closure(gens, **caps) for gens, caps in inputs]
        series = [(lower_central_series(r), derived_series(r)) if r.closed else None
                  for r in results]
        monkeypatch.setattr(span_module, "_un_term", lambda c, key: False)
        for (gens, caps), result, both in zip(inputs, results, series):
            row = lie_closure(gens, **caps)
            if both is None:
                assert row.status == result.status
                for capped in (row, result):
                    if capped.status == "degree_cap_exceeded":
                        TestLieClosure.check_degree_capped(
                            capped, caps.get("degree_cap", DEFAULT_DEGREE_CAP))
                    else:
                        TestLieClosure.check_dim_capped(
                            capped, caps.get("dim_cap", DEFAULT_DIM_CAP))
                continue
            assert self.fields(row) == self.fields(result)
            assert both == (lower_central_series(row), derived_series(row))
            if result.basis.dim <= 48:
                for report, lower in zip(both, (True, False)):
                    assert report.dims == \
                        tuple(t.dim for t in reference_terms(result.basis, lower))
        assert {r.status for r in results} == \
            {"closed", "degree_cap_exceeded", "dim_cap_exceeded"}
        assert sum(both is not None for both in series) == 15

    def test_capped_stops_are_pinned(self):
        # (status, offending pair, the capped basis as printed), as the one
        # walk reaches them: its pair order shows in both, and an adjoined
        # element of a pair is the row [L, L] stored for it (on keys, the
        # unit monomial), not its bracket as computed.  All on the key path;
        # the row path's stops are in TestLieClosure
        cases = [
            (generators("un", 4, 2), {"degree_cap": 3},
             ("degree_cap_exceeded", ("(x3^2) d4", "(x1^3) d3"),
              "d1, (x1^2) d2, (x1) d2, d2, (x1^3) d3, (x1^2 x2) d3, (x1^2) d3, (x1 x2) d3, "
              "(x2^2) d3, (x1) d3, (x2) d3, d3, (x1^3) d4, (x1^2 x2) d4, (x1^2 x3) d4, "
              "(x1 x2^2) d4, (x1 x2 x3) d4, (x2^3) d4, (x2^2 x3) d4, (x1^2) d4, (x1 x2) d4, "
              "(x1 x3) d4, (x2^2) d4, (x2 x3) d4, (x3^2) d4, (x1) d4, (x2) d4, (x3) d4, d4")),
            (generators("un", 3, 3), {"degree_cap": 4},
             ("degree_cap_exceeded", ("(x1^3) d2", "(x1^2 x2) d3"),
              "d1, (x1^3) d2, (x1^2) d2, (x1) d2, d2, (x1^4) d3, (x1^3 x2) d3, (x1^3) d3, "
              "(x1^2 x2) d3, (x1 x2^2) d3, (x2^3) d3, (x1^2) d3, (x1 x2) d3, (x2^2) d3, "
              "(x1) d3, (x2) d3, d3")),
            (generators("un", 3, 3), {"dim_cap": 20},
             ("dim_cap_exceeded", None,
              "d1, (x1^3) d2, (x1^2) d2, (x1) d2, d2, (x1^5) d3, (x1^4 x2) d3, "
              "(x1^3 x2^2) d3, (x1^4) d3, (x1^3 x2) d3, (x1^2 x2^2) d3, (x1^3) d3, "
              "(x1^2 x2) d3, (x1 x2^2) d3, (x2^3) d3, (x1^2) d3, (x1 x2) d3, (x2^2) d3, "
              "(x1) d3, (x2) d3, d3")),
            (generators("un", 4, 2), {"dim_cap": 30},
             ("dim_cap_exceeded", None,
              "d1, (x1^2) d2, (x1) d2, d2, (x1^4) d3, (x1^3) d3, (x1^2 x2) d3, (x1^2) d3, "
              "(x1 x2) d3, (x2^2) d3, (x1) d3, (x2) d3, d3, (x1^3 x3) d4, (x1^3) d4, "
              "(x1^2 x2) d4, (x1^2 x3) d4, (x1 x2^2) d4, (x1 x2 x3) d4, (x2^3) d4, "
              "(x2^2 x3) d4, (x1^2) d4, (x1 x2) d4, (x1 x3) d4, (x2^2) d4, (x2 x3) d4, "
              "(x3^2) d4, (x1) d4, (x2) d4, (x3) d4, d4")),
            ([pd(t, 3) for t in ("(1/2 x1^2) d2", "(3 x2^2) d3", "(2/3) d1")],
             {"degree_cap": 3},
             ("degree_cap_exceeded", ("(1/2 x1^2) d2", "(x1^2 x2) d3"),
              "d1, (x1^2) d2, (x1) d2, (x1^2 x2) d3, (x2^2) d3")),
        ]
        for gens, caps, want in cases:
            result = lie_closure(gens, **caps)
            pair = result.offending_bracket
            assert (result.status, pair and tuple(map(str, pair)),
                    ", ".join(map(str, result.basis))) == want
            assert result._derived is None

    def test_capped_closure_walks_once(self, monkeypatch):
        # a stop returns what the walk reached, and no second walk starts
        # from the generators: one that brackets by every generator, to pin
        # the pair order, would add 209 pairs of keys here and 4 rows
        counts = {"keys": 0, "rows": 0}
        monomial_bracket, bracket_rows = span_module._monomial_bracket, span_module.bracket_rows

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(span_module, "_monomial_bracket", counted("keys", monomial_bracket))
        monkeypatch.setattr(span_module, "bracket_rows", counted("rows", bracket_rows))
        result = lie_closure(generators("un", 4, 2), dim_cap=30)
        assert (result.status, result.basis.dim) == ("dim_cap_exceeded", 31)
        assert counts == {"keys": 158, "rows": 0}
        counts.update(keys=0)
        result = lie_closure([pd(t, 2) for t in ("(7/4 x1 + 6/5) d2", "(-2 x1 x2) d2")],
                             degree_cap=4)
        assert (result.status, result.basis.dim) == ("degree_cap_exceeded", 5)
        assert counts == {"keys": 0, "rows": 4}

    def test_key_path_counts(self, monkeypatch):
        counts = {"rows": 0, "meet": 0, "add": 0, "elim": 0, "keys": 0, "nonzero": 0}
        bracket_rows, meet = span_module.bracket_rows, span_module.signatures_meet
        eliminate = span_module._eliminate
        add_row, monomial_bracket = SpanBasis._add_row, span_module._monomial_bracket

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        def counted_keys(*args):
            counts["keys"] += 1
            key, e = monomial_bracket(*args)
            counts["nonzero"] += bool(e)
            return key, e

        def take():
            out = dict(counts)
            counts.update(dict.fromkeys(counts, 0))
            return out

        monkeypatch.setattr(span_module, "bracket_rows", counted("rows", bracket_rows))
        monkeypatch.setattr(span_module, "signatures_meet", counted("meet", meet))
        monkeypatch.setattr(SpanBasis, "_add_row", counted("add", add_row))
        monkeypatch.setattr(span_module, "_eliminate", counted("elim", eliminate))
        monkeypatch.setattr(span_module, "_monomial_bracket", counted_keys)
        result = lie_closure(generators("un", 3, 3))
        g, dim = len(result.generators), result.basis.dim
        assert (g, dim) == (15, 27)
        # a generator whose key a bracket reaches lies in [L, L] and stops
        # bracketing: 83 of the C(15, 2) = 105 generator pairs hold one
        # still in quot, and each of the 12 brackets adjoined meets only the
        # 3 generators left, 119 pairs on keys where the row path walks all
        # 285; 48 brackets are nonzero; no row is bracketed or reduced: the
        # 3 generator keys outside [L, L] join its 24 in L through _add_row,
        # which stores each as it is
        assert take() == {"rows": 0, "meet": 0, "add": 3, "elim": 0, "keys": 83 + 12 * 3,
                          "nonzero": 48}
        assert result._derived.dim == 24
        assert comb(g, 2) + g * (dim - g) == 285
        # [L, L] is the 24 keys of the brackets, so the 3 keys outside
        # it generate L; the lower series brackets each key with each of them
        # once, in one pass: dim * 3 pairs, not dim * g
        assert lower_central_series(result).dims[:2] == (27, 24)
        assert take() == {"rows": 0, "meet": 0, "add": 0, "elim": 0, "keys": 27 * 3,
                          "nonzero": 38}
        # the derived series brackets on keys too: the 33 pairs of [L, L]
        # that meet, found from slot and variable lists, all nonzero
        assert derived_series(result).dims == (27, 24, 15, 0)
        assert take() == {"rows": 0, "meet": 0, "add": 0, "elim": 0, "keys": 33,
                          "nonzero": 33}

    @pytest.mark.parametrize("texts, n", [
        (("d1", "(x1) d2 + d3", "(x1^2) d3"), 3),  # two terms in one generator
        (("d1", "(x1) d1", "(x1) d2"), 2),  # (x1) d1 lies outside un
        (("0", "d1", "(x1) d2", "(x1^2) d3"), 3),  # a zero generator
    ])
    def test_other_input_takes_the_row_path(self, monkeypatch, texts, n):
        calls = []
        monkeypatch.setattr(span_module, "_monomial_bracket",
                            lambda *args: calls.append(args))
        result = lie_closure([pd(t, n) for t in texts])
        assert result.closed and result._derived.dim
        assert not calls

    def test_series_check_their_input_before_the_path(self, monkeypatch):
        monkeypatch.setattr(span_module, "_monomial_lower_series",
                            lambda *args: pytest.fail("the key path ran"))
        gens = generators("un", 3, 3)
        with pytest.raises(TypeError, match="lie_closure"):
            lower_central_series(SpanBasis(3, gens))
        result = lie_closure(gens, dim_cap=20)
        with pytest.raises(ValueError, match="dim_cap_exceeded"):
            lower_central_series(result)
        by_hand = LieClosureResult("closed", SpanBasis(3, gens), tuple(gens))
        with pytest.raises(ValueError, match="built by hand"):
            lower_central_series(by_hand)

    @pytest.mark.parametrize("n, c, degree_cap, dim", [
        (4, 4, 90, 1136), (6, 2, 40, 2076), (5, 3, 120, 6092)])
    def test_full_set_class_is_w_n(self, monkeypatch, n, c, degree_cap, dim):
        # L(n, c) is nilpotent of class w_n(c) = 1 + c + ... + c^(n-1), and
        # L^k holds exactly the monomials of L of weight <= -k
        result = lie_closure(generators("un", n, c), degree_cap=degree_cap, dim_cap=8000)
        assert result.closed and result.basis.dim == dim
        assert derived_series(result).dims == FULL_SET_DERIVED_DIMS[n, c]
        lower_series = span_module._monomial_lower_series
        pruned = []

        def recorded(n, gens, keys):
            pruned.extend(gens)
            return lower_series(n, gens, keys)

        monkeypatch.setattr(span_module, "_monomial_lower_series", recorded)
        report = lower_central_series(result)
        # the n monomials outside [L, L], d1 and x_(i-1)^c d_i, generate L
        tops = [pd("d1", n), *(pd(f"(x{i - 1}^{c}) d{i}", n) for i in range(2, n + 1))]
        assert sorted(pruned) == sorted(next(iter(d._terms)) for d in tops)
        w_n = sum(c ** k for k in range(n))
        assert report.verdict == "nilpotent" and report.length == w_n
        codec = polyring.codec(n)
        weights = [codec.weight(key, c) for key in result.basis._rows]
        assert report.dims == tuple(sum(w <= -k for w in weights) for k in range(1, w_n + 2))
