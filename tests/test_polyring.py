import random
from fractions import Fraction

import pytest

from polylie.polyring import Polynomial
from polylie.sampling import random_polynomial


def var(n, i):
    return Polynomial.variable(n, i)


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = var(2, 1)
        assert (x1 + (-x1)).is_zero()

    def test_product_distributes(self):
        # (x1+1)(x1-1) expanded by hand: x1^2 - 1
        x1 = var(1, 1)
        assert (x1 + 1) * (x1 - 1) == x1 * x1 - 1

    def test_scalar_action(self):
        n = 2
        f = var(n, 1) * var(n, 2)
        g = f * Fraction(3, 2)
        assert g.coefficient((1, 1)) == Fraction(3, 2)

    def test_zero_has_empty_terms(self):
        assert Polynomial.zero(3).terms == {}
        assert (var(2, 1) - var(2, 1)).terms == {}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            var(2, 1) + var(3, 1)
        with pytest.raises(ValueError):
            var(2, 1) * var(3, 1)

    def test_canonical_equality(self):
        n = 2
        a = (var(n, 1) + var(n, 2)) ** 2
        b = var(n, 1) ** 2 + 2 * var(n, 1) * var(n, 2) + var(n, 2) ** 2
        assert a == b and hash(a) == hash(b)


class TestCoefficientTypes:
    """Only int and Fraction coefficients come in through the public API."""

    BAD = [0.5, 0.1, "1/3", None, 1j]

    @pytest.mark.parametrize("coeff", BAD)
    def test_constructor_rejects(self, coeff):
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): coeff})

    @pytest.mark.parametrize("coeff", BAD)
    def test_constant_rejects(self, coeff):
        with pytest.raises(TypeError):
            Polynomial.constant(1, coeff)

    @pytest.mark.parametrize("coeff", BAD)
    def test_monomial_rejects(self, coeff):
        with pytest.raises(TypeError):
            Polynomial.monomial(2, (1, 0), coeff)

    def test_int_and_fraction_accepted(self):
        f = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 3), (0, 0): 0})
        assert f.terms == {(1, 0): Fraction(3), (0, 1): Fraction(1, 3)}
        assert all(type(c) is Fraction for _, c in f)
        assert Polynomial.constant(1, Fraction(1, 2)).constant_value() == Fraction(1, 2)
        assert Polynomial.monomial(2, (1, 0), -2) == -2 * var(2, 1)


class TestPower:
    def test_matches_repeated_multiplication(self):
        n = 2
        f = Fraction(2, 3) * var(n, 1) - var(n, 2) ** 2 + Fraction(-1, 5)
        expected = Polynomial.one(n)
        for k in range(13):
            assert f ** k == expected, k
            expected = expected * f

    def test_huge_exponent_of_a_variable(self):
        assert var(1, 1) ** 100_000 == Polynomial.monomial(1, (100_000,))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            var(1, 1) ** -1


class TestDifferentiation:
    def test_power_rule(self):
        n = 2
        f = var(n, 1) ** 2 * var(n, 2)
        assert f.partial(1) == 2 * var(n, 1) * var(n, 2)

    def test_absent_variable(self):
        n = 3
        f = var(n, 1) ** 2 * var(n, 2)
        assert f.partial(3).is_zero()

    def test_termwise(self):
        n = 2
        f = var(n, 1) * var(n, 2) ** 2 + var(n, 2) + var(n, 1)
        assert f.partial(2) == 2 * var(n, 1) * var(n, 2) + 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            var(2, 1).partial(3)

    def test_diff_multi_iterated(self):
        n = 2
        f = var(n, 1) ** 2 * var(n, 2)
        assert f.diff_multi((2, 1)) == Polynomial.constant(n, 2)

    def test_diff_multi_identity_and_overkill(self):
        n = 2
        f = var(n, 1) + var(n, 2) ** 3
        assert f.diff_multi((0, 0)) == f
        assert f.diff_multi((2, 0)).is_zero()

    def test_leibniz_exact_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, 4)
            g = random_polynomial(rng, n, 4)
            i = rng.randint(1, n)
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)

    def test_partials_commute_random(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 3)
            f = random_polynomial(rng, n, 5)
            i, j = rng.randint(1, n), rng.randint(1, n)
            assert f.partial(i).partial(j) == f.partial(j).partial(i)

    def test_diff_multi_order_independent(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, 5)
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            sequential = f
            order = [i for i in range(1, n + 1) for _ in range(alpha[i - 1])]
            rng.shuffle(order)
            for i in order:
                sequential = sequential.partial(i)
            assert f.diff_multi(alpha) == sequential


class TestDegreeAndIndex:
    def test_degree_in(self):
        n = 2
        f = var(n, 1) * var(n, 2) ** 2 + var(n, 1)
        assert f.degree_in(2) == 2
        assert Polynomial.constant(n, 5).degree_in(1) == 0
        assert Polynomial.zero(n).degree_in(1) is None

    def test_index(self):
        n = 3
        assert (var(n, 1) + var(n, 2) ** 3).index() == 2
        assert Polynomial.constant(n, 7).index() is None
        assert var(n, 3).index() == 3
        assert Polynomial.zero(n).index() is None

    def test_index_none_iff_constant(self):
        rng = random.Random(10)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, 3)
            deg = f.total_degree()
            assert (f.index() is None) == (deg is None or deg == 0)


class TestExpansion:
    def test_collect_powers(self):
        n = 2
        f = var(n, 1) * var(n, 2) ** 2 + var(n, 2) + var(n, 1)
        h = f.expand_in(2)
        assert h == (var(n, 1), Polynomial.one(n), var(n, 1))

    def test_no_dependence(self):
        n = 2
        assert var(n, 1).expand_in(2) == (var(n, 1),)

    def test_zero_expands_empty(self):
        assert Polynomial.zero(2).expand_in(1) == ()

    def test_reassembly_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, 5)
            j = rng.randint(1, n)
            parts = f.expand_in(j)
            rebuilt = Polynomial.zero(n)
            xj = var(n, j)
            for k, h in enumerate(parts):
                assert h.degree_in(j) in (None, 0)
                rebuilt = rebuilt + h * xj ** k
            assert rebuilt == f
            if parts:
                assert not parts[-1].is_zero()
