import random
from fractions import Fraction

import pytest

from polylie.canonical import derived_chain_witness, generators
from polylie.derivation import Derivation
from polylie.grammar import parse_derivation
from polylie.polyring import MAX_VARIABLES, POWER_BITS_LIMIT, KeyCodec, Polynomial, codec
from polylie.sampling import random_derivation, random_polynomial


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
    """Only int and Fraction coefficients come in through the public API; a
    bool is an int, but no coefficient."""

    BAD = [0.5, 0.1, "1/3", None, 1j, True]

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


class TestOperandTypes:
    """`*`, `+`, `-` and `==` with every operand type: an int or a Fraction
    scales or counts as a constant (a bool scales, but is no constant), a
    Polynomial takes the polynomial path, and any other type is left to
    Python (NotImplemented)."""

    OTHERS = [0, 3, -2**70, Fraction(-6, 4), True, False, 1.5, "1", None, 2j, [1]]

    def test_polynomial_operands(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 2): -3})
        q = var(2, 2) + 1
        assert p * q == q * p == Polynomial(2, {(1, 1): Fraction(1, 2), (0, 3): -3,
                                                (1, 0): Fraction(1, 2), (0, 2): -3})
        assert p + q - q == p and (p == q) is False and (p == p * 1) is True
        for s in self.OTHERS:
            if isinstance(s, (int, Fraction)):
                assert p * s == s * p == Polynomial(2, {m: c * s for m, c in p.terms.items()})
            else:
                for op in (lambda: p * s, lambda: s * p):
                    with pytest.raises(TypeError):
                        op()
            if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
                c = Polynomial.constant(2, s)
                assert p + s == s + p == p + c and p - s == p - c and s - p == c - p
                assert (c == s) is True and (p == s) is False
            else:
                ops = [lambda: p + s, lambda: s + p, lambda: p - s, lambda: s - p]
                if isinstance(s, bool):
                    ops.append(lambda: p == s)
                else:
                    assert (p == s) is False and (p != s) is True
                for op in ops:
                    with pytest.raises(TypeError):
                        op()

    def test_derivation_operands(self):
        d = Derivation(2, [var(2, 2), Polynomial.constant(2, Fraction(2, 3))])
        q = var(2, 1) - 2
        assert d * q == q * d == Derivation(2, [f * q for f in d.coeffs])
        for s in self.OTHERS:
            if isinstance(s, (int, Fraction)):
                assert d * s == s * d == Derivation(2, [f * s for f in d.coeffs])
            else:
                for op in (lambda: d * s, lambda: s * d):
                    with pytest.raises(TypeError):
                        op()


class TestMonomialChecks:
    """Exponent tuples from outside must have length n and nonnegative int
    entries whose sum stays below 2^63; a bool is an int, but no exponent."""

    BAD = [(1,), (-1, 0), (1.0, 0), (True, 0), (2**63, 0), (2**62, 2**62)]
    IDS = ["wrong_length", "negative", "float", "bool", "exponent_limit", "degree_limit"]

    @pytest.mark.parametrize("mono", BAD, ids=IDS)
    def test_constructor_rejects(self, mono):
        with pytest.raises(ValueError):
            Polynomial(2, {mono: 3})

    @pytest.mark.parametrize("mono", BAD, ids=IDS)
    def test_monomial_rejects(self, mono):
        with pytest.raises(ValueError):
            Polynomial.monomial(2, mono)

    def test_checked_under_a_zero_coefficient(self):
        # a zero term is dropped, but its monomial is still outside input
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 2, 3): 0, (-1,): 0})
        with pytest.raises(ValueError):
            Polynomial.monomial(2, (True, 5, "x"), 0)
        with pytest.raises(ValueError):
            Derivation.monomial_term(2, (1, -1), 1, 0)


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

    def test_power_above_the_bits_limit_raises_before_multiplying(self):
        f = var(1, 1) + 1
        with pytest.raises(ValueError, match="POWER_BITS_LIMIT"):
            f ** 100_000
        with pytest.raises(ValueError, match="POWER_BITS_LIMIT"):
            (3 * var(1, 1)) ** 10_000_000
        assert f._power_bits(2_000) <= POWER_BITS_LIMIT < f._power_bits(2_100)

    def test_power_bits_bound_the_power(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, 3, max_terms=rng.randint(1, 4))
            if f.is_zero():
                continue
            k = rng.randint(0, 6)
            p = f ** k
            bits = max(c.bit_length() for c in p._terms.values())
            assert len(p._terms) * bits <= f._power_bits(k)
            assert p._den.bit_length() <= 1 + k * (f._den - 1).bit_length()

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


class TestConstants:
    """`zero`, `one`, `constant`, `variable` and `Derivation.zero` build their
    terms directly; here they meet the validating `__init__` path they
    replace, in value, hash, term order and denominator, or in error."""

    @staticmethod
    def outcome(build, *args):
        try:
            v = build(*args)
        except (TypeError, ValueError) as e:
            return type(e), str(e)
        return type(v), v, hash(v), list(v._terms.items()), v._den

    @staticmethod
    def ref_variable(n, i):
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return Polynomial(n, {tuple(exps): 1})

    NS = [-3, -1, 0, 1, 2, 3, 4]
    SCALARS = [0, 1, -3, 2**70, Fraction(0), Fraction(5), Fraction(-6, 4),
               1.5, 0.0, True, False, "1", None, 2j]

    def test_zero_one_and_derivation_zero(self):
        for n in self.NS:
            assert (self.outcome(Polynomial.zero, n)
                    == self.outcome(lambda n: Polynomial(n), n))
            assert (self.outcome(Polynomial.one, n)
                    == self.outcome(lambda n: Polynomial(n, {(0,) * n: 1}), n))
            assert (self.outcome(Derivation.zero, n)
                    == self.outcome(lambda n: Derivation(n, (Polynomial(n),) * n), n))

    def test_constant(self):
        for n in self.NS:
            for c in self.SCALARS:
                assert (self.outcome(Polynomial.constant, n, c)
                        == self.outcome(lambda n, c: Polynomial(n, {(0,) * n: c}), n, c))

    def test_variable(self):
        for n in self.NS:
            for i in range(-1, max(n, 0) + 3):
                assert (self.outcome(Polynomial.variable, n, i)
                        == self.outcome(self.ref_variable, n, i))

    def test_count_must_be_an_int(self):
        builds = [Polynomial, Polynomial.zero, Polynomial.one,
                  lambda n: Polynomial.constant(n, 1), lambda n: Polynomial.variable(n, 1),
                  Derivation.zero, lambda n: Derivation(n, []),
                  lambda n: Derivation.partial(n, 1),
                  lambda n: Derivation.monomial_term(n, (1, 0), 1)]
        # a bool is an int to isinstance, but no count
        for bad in (2.0, True):
            for build in builds:
                with pytest.raises(TypeError, match=f"^variable count {bad} is not an int$"):
                    build(bad)
        # a bad index is named before a bad count, as by Polynomial.variable
        with pytest.raises(ValueError, match=r"variable index 1 out of range 1\.\.0"):
            Derivation.partial(0, 1)

    def test_index_must_be_an_int(self):
        f = Polynomial.variable(2, 1)
        d = Derivation.partial(2, 1)
        uses = [lambda i: Polynomial.variable(2, i), lambda i: Derivation.partial(2, i),
                f.degree_in, f.partial, f.expand_in, d.coeff]
        # True would otherwise read as index 1, and 1.0 fail later on a tuple
        for bad in (True, 1.0):
            for use in uses:
                with pytest.raises(TypeError, match=f"^variable index {bad} is not an int$"):
                    use(bad)


class TestVariableCount:
    """A KeyCodec's memory grows with n^2, so every way to a codec stops at
    MAX_VARIABLES."""

    def test_count_above_the_limit_is_a_value_error(self):
        assert MAX_VARIABLES == 1000
        builds = [KeyCodec, Polynomial.zero, lambda n: parse_derivation("d1", n),
                  lambda n: random_derivation(random.Random(0), n, 2),
                  lambda n: generators("sn", n, 1), derived_chain_witness]
        for build in builds:
            with pytest.raises(ValueError, match="^variable count must be <= 1000, got 1001$"):
                build(MAX_VARIABLES + 1)

    def test_count_at_the_limit_works(self):
        d = Derivation.partial(MAX_VARIABLES, MAX_VARIABLES)
        assert d.index() == MAX_VARIABLES
        assert KeyCodec(MAX_VARIABLES).n == MAX_VARIABLES

    def test_codecs_kept_are_bounded(self):
        # codecs for many counts stay within the cache's bound, and a codec
        # built again after its eviction gives the same values
        def values():
            rng = random.Random(7)
            ds = [random_derivation(rng, n, 3) for n in (1, 2, 3) for _ in range(2)]
            return [str(d.bracket(e)) for d, e in zip(ds[::2], ds[1::2])]

        before = values()
        for n in range(1, 301):
            assert Polynomial.variable(n, n).index() == n
        assert codec.cache_info().currsize <= codec.cache_info().maxsize == 64
        assert values() == before
