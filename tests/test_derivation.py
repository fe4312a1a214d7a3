import random
from fractions import Fraction

import pytest

from polylie.derivation import Derivation, LinearDerivation, iterated_bracket
from polylie.grammar import parse_derivation
from polylie.polyring import Polynomial
from polylie.sampling import random_derivation, random_polynomial


def pd(text, n):
    return parse_derivation(text, n)


class TestApply:
    def test_coordinate_function(self):
        n = 1
        assert Derivation.partial(n, 1).apply(Polynomial.variable(n, 1)) == 1

    def test_leibniz_expansion(self):
        n = 2
        d = pd("(x2) d1 + d2", n)
        f = Polynomial.variable(n, 1) * Polynomial.variable(n, 2)
        x1, x2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
        assert d.apply(f) == x2 * x2 + x1

    def test_zero_derivation(self):
        n = 2
        f = Polynomial.variable(n, 1) ** 3
        assert Derivation.zero(n).apply(f).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Derivation.partial(2, 1).apply(Polynomial.variable(3, 1))


class TestBracket:
    def test_weight_computation(self):
        n = 1
        d1 = Derivation.partial(n, 1)
        assert d1.bracket(pd("(x1) d1", n)) == d1

    def test_squared_coefficient_identity(self):
        # [x1^2 d2, x2 d1] over n=2, worked coefficient-by-coefficient
        n = 2
        got = pd("(x1^2) d2", n).bracket(pd("(x2) d1", n))
        assert got == pd("(x1^2) d1 + (-2 x1 x2) d2", n)

    def test_euler_eigenvalue(self):
        n = 2
        euler = Derivation.euler(n)
        e = pd("(x1^2) d2", n)
        assert euler.bracket(e) == e

    def test_composition_oracle_random(self):
        # independent check: apply([D,E], f) = D(E(f)) - E(D(f))
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 3)
            e = random_derivation(rng, n, 3)
            f = random_polynomial(rng, n, 3)
            br = d.bracket(e)
            assert br.apply(f) == d.apply(e.apply(f)) - e.apply(d.apply(f))

    def test_anticommutativity_random(self):
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 3)
            e = random_derivation(rng, n, 3)
            assert d.bracket(e) == -(e.bracket(d))

    def test_jacobi_random(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 2)
            e = random_derivation(rng, n, 2)
            f = random_derivation(rng, n, 2)
            total = (d.bracket(e.bracket(f)) + e.bracket(f.bracket(d))
                     + f.bracket(d.bracket(e)))
            assert total.is_zero()

    def test_scaled_bracket_identity_random(self):
        # [aD1, bD2] = ab[D1,D2] + a D1(b) D2 - b D2(a) D1
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randint(1, 3)
            a = random_polynomial(rng, n, 3)
            b = random_polynomial(rng, n, 3)
            d1 = random_derivation(rng, n, 3)
            d2 = random_derivation(rng, n, 3)
            lhs = (a * d1).bracket(b * d2)
            rhs = ((a * b) * d1.bracket(d2)
                   + (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1)
            assert lhs == rhs

    def test_scaled_bracket_commuting_case(self):
        # with [D1, D2] = 0 the first summand drops
        rng = random.Random(25)
        for _ in range(100):
            n = rng.randint(1, 3)
            d1 = Derivation.partial(n, rng.randint(1, n))
            d2 = Derivation.partial(n, rng.randint(1, n))
            a = random_polynomial(rng, n, 3)
            b = random_polynomial(rng, n, 3)
            assert d1.bracket(d2).is_zero()
            lhs = (a * d1).bracket(b * d2)
            rhs = (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
            assert lhs == rhs

    def test_double_bracket_observed_scalar(self):
        # [[x1 d2, x2 d1], x1 d2] computed directly comes out as 2 x1 d2
        n = 2
        e = pd("(x1) d2", n)
        d = pd("(x2) d1", n)
        assert e.bracket(d).bracket(e) == 2 * e


class TestIteratedBracket:
    def test_two_steps(self):
        n = 2
        got = iterated_bracket(Derivation.partial(n, 1), 2, pd("(x1^2) d2", n))
        assert got == pd("(2) d2", n)

    def test_three_steps_vanish(self):
        n = 2
        got = iterated_bracket(Derivation.partial(n, 1), 3, pd("(x1^2) d2", n))
        assert got.is_zero()

    def test_base_case(self):
        rng = random.Random(26)
        n = 2
        d = random_derivation(rng, n, 2)
        e = random_derivation(rng, n, 2)
        assert iterated_bracket(d, 1, e) == d.bracket(e)

    def test_rejects_zero_count(self):
        n = 1
        with pytest.raises(ValueError):
            iterated_bracket(Derivation.partial(n, 1), 0, Derivation.partial(n, 1))


class TestIndex:
    def test_reads_coefficients(self):
        n = 3
        assert pd("(x3) d1 + (x1) d2", n).index() == 2
        assert Derivation.partial(n, 3).index() == 3
        assert Derivation.zero(n).index() is None


class TestLinearClassification:
    def test_single_superdiagonal_entry(self):
        n = 2
        lin = pd("(x2) d1", n).as_linear()
        assert lin is not None
        assert lin.rows == ((0, 1), (0, 0))

    def test_euler_is_identity_multiple(self):
        lin = Derivation.euler(2).as_linear()
        assert lin is not None
        assert lin.rows == ((1, 0), (0, 1))

    def test_affine_rejected(self):
        n = 1
        assert pd("(x1 + 1) d1", n).as_linear() is None

    def test_quadratic_rejected(self):
        assert pd("(x1^2) d1", 1).as_linear() is None

    def test_round_trip(self):
        n = 3
        d = pd("(x2 + 2 x3) d1 + (1/2 x2) d2", n)
        lin = d.as_linear()
        assert lin is not None and lin.to_derivation() == d

    def test_matrix_bracket_convention(self):
        # documents the sign forced by the composition oracle: with row i
        # holding the coefficients of f_i, matrix([D,E]) = B*A - A*B
        rng = random.Random(27)
        for _ in range(50):
            n = rng.randint(2, 3)
            rows_a = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                           for _ in range(n))
            rows_b = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                           for _ in range(n))
            a = LinearDerivation(n, rows_a)
            b = LinearDerivation(n, rows_b)
            br = a.to_derivation().bracket(b.to_derivation())
            lin = br.as_linear()
            assert lin is not None
            expected = [
                [b.matmul(a).rows[i][j] - a.matmul(b).rows[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert [list(r) for r in lin.rows] == expected

    def test_nilpotency_exact(self):
        n = 2
        strictly_upper = pd("(x2) d1", n).as_linear()
        assert strictly_upper.is_nilpotent()
        assert not Derivation.euler(n).as_linear().is_nilpotent()


class TestScaling:
    def test_polynomial_scaling(self):
        n = 2
        p = Polynomial.variable(n, 1)
        d = pd("(x2) d1 + d2", n)
        scaled = p * d
        assert scaled.coeff(1) == p * Polynomial.variable(n, 2)
        assert scaled.coeff(2) == p
