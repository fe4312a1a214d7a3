import random
from fractions import Fraction

import pytest

from polylie.canonical import lnd_check
from polylie.derivation import Derivation, iterated_bracket
from polylie.grammar import parse_derivation
from polylie.polyring import Polynomial

from large_coefficients import big_derivation, big_polynomial
from matrices import from_rows, is_zero, matmul, power
from samplers import random_derivation, random_polynomial


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


def ref_apply(d, f):
    """sum_j f_j * df/dx_j from public Polynomial partial, * and + only."""
    out = Polynomial.zero(d.n)
    for j, c in enumerate(d.coeffs, start=1):
        out = out + c * f.partial(j)
    return out


def ref_bracket(d, e):
    """[D, E]_i = D(g_i) - E(f_i), coefficient by coefficient."""
    return [ref_apply(d, g) + ref_apply(e, f) * -1
            for f, g in zip(d.coeffs, e.coeffs)]


def assert_canonical(p):
    """No stored zero, Fraction coefficients, same value and hash as rebuilt."""
    assert all(type(c) is Fraction and c != 0 for _, c in p)
    rebuilt = Polynomial(p.n, dict(p))
    assert rebuilt == p and hash(rebuilt) == hash(p)


class TestKernelAgainstReference:
    """bracket and apply against a rebuild from public polynomial arithmetic."""

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 4)
            d = random_derivation(rng, n, 3)
            e = random_derivation(rng, n, 3)
            if rng.random() < 0.3:  # force zero slots
                zeroed = rng.randrange(n)
                d = Derivation(n, [Polynomial.zero(n) if i == zeroed else c
                                   for i, c in enumerate(d.coeffs)])
            yield d, e, random_polynomial(rng, n, 4)

    def test_apply_random(self):
        for d, _, f in self.cases(51):
            got = d.apply(f)
            assert got == ref_apply(d, f)
            assert_canonical(got)

    def test_bracket_random(self):
        for d, e, _ in self.cases(52):
            got = d.bracket(e)
            assert list(got.coeffs) == ref_bracket(d, e)
            for c in got.coeffs:
                assert_canonical(c)

    def test_large_denominators(self):
        # operands whose coefficients have numerators and denominators up to
        # 10^6, so the kernel divides by large products of cleared denominators
        rng = random.Random(54)
        for _ in range(60):
            n = rng.randint(1, 4)
            d, e = big_derivation(rng, n, 3), big_derivation(rng, n, 3)
            f = big_polynomial(rng, n, 4)
            got = d.apply(f)
            assert got == ref_apply(d, f)
            assert_canonical(got)
            got = d.bracket(e)
            assert list(got.coeffs) == ref_bracket(d, e)
            for c in got.coeffs:
                assert_canonical(c)
            # a large rational multiple of one operand scales the bracket by it
            c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert (d * c).bracket(e) == got * c

    def test_brackets_that_cancel(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 4)
            d = random_derivation(rng, n, 3)
            pairs = [(d, d), (d, d * Fraction(-7, 3)),
                     (Derivation.partial(n, 1), Derivation.partial(n, n))]
            for a, b in pairs:
                got = a.bracket(b)
                assert got.is_zero()
                assert list(got.coeffs) == ref_bracket(a, b)

    def test_cancellation_between_the_two_halves(self):
        # [x1 d1 + x2 d2 + d1, x1 d2]: in slot 2, D(g_2) = x1 + 1 and
        # E(f_2) = x1, so the x1 terms cancel and only 1 survives
        n = 2
        got = pd("(x1 + 1) d1 + (x2) d2", n).bracket(pd("(x1) d2", n))
        assert got == Derivation.partial(n, 2)
        for c in got.coeffs:
            assert_canonical(c)


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
        assert pd("(x2) d1", n).as_linear() == ((0, 1), (0, 0))

    def test_euler_is_identity_multiple(self):
        assert Derivation.euler(2).as_linear() == ((1, 0), (0, 1))

    def test_affine_rejected(self):
        n = 1
        assert pd("(x1 + 1) d1", n).as_linear() is None

    def test_quadratic_rejected(self):
        assert pd("(x1^2) d1", 1).as_linear() is None

    def test_round_trip(self):
        n = 3
        d = pd("(x2 + 2 x3) d1 + (1/2 x2) d2", n)
        rows = d.as_linear()
        assert rows is not None and from_rows(rows) == d

    def test_matrix_bracket_convention(self):
        # documents the sign forced by the composition oracle: with row i
        # holding the coefficients of f_i, matrix([D,E]) = B*A - A*B
        rng = random.Random(27)
        for _ in range(50):
            n = rng.randint(2, 3)
            a = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                      for _ in range(n))
            b = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                      for _ in range(n))
            rows = from_rows(a).bracket(from_rows(b)).as_linear()
            assert rows is not None
            ba, ab = matmul(b, a), matmul(a, b)
            assert rows == tuple(tuple(ba[i][j] - ab[i][j] for j in range(n))
                                 for i in range(n))

    def test_nilpotency_exact(self):
        # the matrix of (x2) d1 squares to zero, Euler's is the identity
        n = 2
        strictly_upper = pd("(x2) d1", n)
        assert is_zero(power(strictly_upper.as_linear(), 2))
        assert lnd_check(strictly_upper, 2).status == "witness"
        # one chain step is too few to prove it, and a nilpotent matrix refutes nothing
        assert lnd_check(strictly_upper, 1).status == "inconclusive"
        assert lnd_check(Derivation.euler(n), 32).status == "not_nilpotent"


class TestScaling:
    def test_polynomial_scaling(self):
        n = 2
        p = Polynomial.variable(n, 1)
        d = pd("(x2) d1 + d2", n)
        scaled = p * d
        assert scaled.coeff(1) == p * Polynomial.variable(n, 2)
        assert scaled.coeff(2) == p

    @staticmethod
    def ref_scale(p, d):
        """p * D through the public constructor, one polynomial product per slot."""
        return Derivation(d.n, [f * p for f in d.coeffs])

    def test_row_product_matches_coefficientwise(self):
        rng = random.Random(61)
        for _ in range(150):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, 3)
            d = random_derivation(rng, n, 3)
            want = self.ref_scale(p, d)
            for got in (p * d, d * p):
                assert got == want
                for c in got.coeffs:
                    assert_canonical(c)

    def test_zero_constant_and_rational_operands(self):
        rng = random.Random(62)
        for _ in range(40):
            n = rng.randint(1, 4)
            d = random_derivation(rng, n, 3)
            p = big_polynomial(rng, n, 3)
            for q, e in [(Polynomial.zero(n), d), (p, Derivation.zero(n)),
                         (Polynomial.constant(n, Fraction(-7, 3)), d),
                         (Polynomial.one(n), d), (p, big_derivation(rng, n, 3))]:
                want = self.ref_scale(q, e)
                assert q * e == want and e * q == want
        assert (Polynomial.zero(2) * pd("(x1) d2", 2)).is_zero()
        assert Polynomial.constant(2, Fraction(1, 2)) * pd("(2 x1) d2", 2) == pd("(x1) d2", 2)

    def test_ring_mismatch_rejected(self):
        p = Polynomial.variable(2, 1)
        d = Derivation.partial(3, 1)
        with pytest.raises(ValueError):
            p * d
        with pytest.raises(ValueError):
            d * p
