import itertools
import random

import pytest

from polylie.canonical import generators, lnd_check, membership, strip_canonical_part
from polylie.derivation import Derivation
from polylie.grammar import parse_derivation, parse_polynomial
from polylie.polyring import Polynomial
from polylie.reductions import (
    Sl2Certificate,
    Sl2Mismatch,
    constant_extraction,
    eigenvector_certificate,
    flatten_in_variable,
    linear_extraction,
    sl2_check,
)
from polylie.span import derived_series, lie_closure

from samplers import random_nonconstant_polynomial, random_derivation
import term_counts


def pp(text, n):
    return parse_polynomial(text, n)


def pd(text, n):
    return parse_derivation(text, n)


class TestConstantExtraction:
    def test_mixed_terms(self):
        alpha, gamma = constant_extraction(pp("x1^2 x2 + x1", 2))
        assert alpha == (2, 1) and gamma == 2

    def test_linear_monomial(self):
        alpha, gamma = constant_extraction(pp("x1", 3))
        assert alpha == (1, 0, 0) and gamma == 1

    def test_factorial_scaling(self):
        alpha, gamma = constant_extraction(pp("3 x2^3", 2))
        assert alpha == (0, 3) and gamma == 18

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            constant_extraction(pp("7", 2))
        with pytest.raises(ValueError):
            constant_extraction(Polynomial.zero(2))

    def test_random_rediff_oracle(self):
        rng = random.Random(51)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = random_nonconstant_polynomial(rng, n, 5)
            alpha, gamma = constant_extraction(f)
            assert gamma != 0
            assert f.diff_multi(alpha) == Polynomial.constant(n, gamma)
            # one step further in any direction annihilates everything
            for i in range(1, n + 1):
                bumped = list(alpha)
                bumped[i - 1] += 1
                assert f.diff_multi(bumped).is_zero()


class TestLinearExtraction:
    def test_quadratic_in_target(self):
        beta, lam, g = linear_extraction(pp("x1 x2^2 + x2 + x1", 2), 2)
        assert beta == (1, 1) and lam == 2 and g.is_zero()

    def test_already_linear(self):
        beta, lam, g = linear_extraction(pp("x1", 2), 1)
        assert beta == (0, 0) and lam == 1 and g.is_zero()

    def test_leading_coefficient_nonconstant(self):
        beta, lam, g = linear_extraction(pp("x1^2 x2 + x1", 2), 1)
        assert beta == (1, 1) and lam == 2 and g.is_zero()

    def test_independent_variable_rejected(self):
        with pytest.raises(ValueError):
            linear_extraction(pp("x1", 2), 2)

    def test_random_shape_oracle(self):
        rng = random.Random(52)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = random_nonconstant_polynomial(rng, n, 5)
            for i in range(1, n + 1):
                if (f.degree_in(i) or 0) < 1:
                    continue
                beta, lam, g = linear_extraction(f, i)
                assert lam != 0
                assert g.degree_in(i) in (None, 0)
                expected = lam * Polynomial.variable(n, i) + g
                assert f.diff_multi(beta) == expected
                # the partial in x_i of the result is the constant lambda
                assert expected.partial(i) == Polynomial.constant(n, lam)


class TestFlatten:
    def test_cubic_to_linear(self):
        n = 2
        got = flatten_in_variable(pd("(x2^3) d1", n), 2, 1)
        assert got == pd("(6 x2) d1", n)

    def test_cubic_to_quadratic(self):
        n = 1
        got = flatten_in_variable(pd("(x1^3) d1", n), 1, 2)
        assert got == pd("(3 x1^2) d1", n)

    def test_already_at_target(self):
        n = 2
        d = pd("(x2) d1", n)
        assert flatten_in_variable(d, 2, 1) == d

    def test_below_target_rejected(self):
        n = 2
        with pytest.raises(ValueError):
            flatten_in_variable(pd("(x2) d1", n), 2, 2)
        with pytest.raises(ValueError):
            flatten_in_variable(Derivation.zero(n), 1, 1)

    def test_index_and_degree_postconditions(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 4)
            k = d.index()
            if k is None:
                continue
            for s in range(1, n + 1):
                l = d.coeff(k).degree_in(s)
                for target in (1, 2):
                    if l is None or l < target:
                        continue
                    flat = flatten_in_variable(d, s, target)
                    assert flat.index() == k
                    assert flat.coeff(k).degree_in(s) == target
                    top = flat.coeff(k).expand_in(s)[-1]
                    assert not top.is_zero()


class TestStrip:
    def test_un_split(self):
        n = 2
        remainder, stripped = strip_canonical_part(pd("(x2) d1 + (x1) d2", n), "un")
        assert remainder == pd("(x2) d1", n)
        assert stripped == pd("(x1) d2", n)

    def test_full_absorption(self):
        n = 2
        d = pd("(x1) d2 + d1", n)
        remainder, stripped = strip_canonical_part(d, "un")
        assert remainder.is_zero() and stripped == d

    def test_sn_degree_criterion(self):
        n = 2
        remainder, stripped = strip_canonical_part(pd("(x1 x2 + x2^2) d2", n), "sn")
        assert remainder == pd("(x2^2) d2", n)
        assert stripped == pd("(x1 x2) d2", n)

    def test_exact_decomposition_and_idempotence(self):
        rng = random.Random(54)
        for _ in range(60):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 3)
            for which in ("un", "sn"):
                remainder, stripped = strip_canonical_part(d, which)
                assert remainder + stripped == d
                verdict = membership(stripped)
                assert verdict.in_un if which == "un" else verdict.in_sn
                again, nothing = strip_canonical_part(remainder, which)
                assert again == remainder and nothing.is_zero()


class TestEigenvectorCertificate:
    def test_diagonal_difference(self):
        n = 2
        cert = eigenvector_certificate(pd("(2 x1) d1 + (5 x2) d2", n), pd("(x1) d2", n))
        assert cert is not None
        assert cert.relation == "single" and cert.scalar == -3
        assert cert.verify()

    def test_euler_on_quadratic(self):
        n = 2
        cert = eigenvector_certificate(Derivation.euler(n), pd("(x1^2) d2", n))
        assert cert is not None
        assert cert.relation == "single" and cert.scalar == 1
        assert cert.verify()

    def test_double_bracket_route(self):
        n = 2
        d = pd("(x2) d1", n)
        cert = eigenvector_certificate(d, pd("(x1) d2", n))
        assert cert is not None
        assert cert.relation == "double" and cert.scalar == 2
        assert cert.verify()
        # a double relation shows only that <d, e> is not a nilpotent Lie
        # algebra: this d is locally nilpotent
        assert lnd_check(d, 32).status == "witness"

    @pytest.mark.parametrize("n, doubles", [(2, 3), (3, 6)])
    def test_no_single_relation_on_un(self, n, doubles):
        # every un element is locally nilpotent, which a single relation
        # [d, e] = c e with c != 0 refutes; e runs over the monomial
        # derivations of degree <= 2
        xs = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        monomials = [Polynomial.one(n), *xs,
                     *(a * b for a, b in itertools.combinations_with_replacement(xs, 2))]
        es = [m * Derivation.partial(n, j) for m in monomials for j in range(1, n + 1)]
        relations = [cert.relation for d in generators("un", n, 2) for e in es
                     if (cert := eigenvector_certificate(d, e)) is not None]
        assert relations == ["double"] * doubles

    def test_no_certificate(self):
        n = 2
        assert eigenvector_certificate(pd("d1", n), pd("d2", n)) is None

    def test_zero_eigenvector_rejected(self):
        n = 1
        with pytest.raises(ValueError):
            eigenvector_certificate(pd("d1", n), Derivation.zero(n))

    def test_round_trip_from_stored_values(self):
        rng = random.Random(55)
        found = 0
        for _ in range(200):
            n = rng.randint(1, 2)
            d = term_counts.random_derivation(rng, n, 2, 1)
            e = term_counts.random_derivation(rng, n, 2, 1)
            if e.is_zero():
                continue
            cert = eigenvector_certificate(d, e)
            if cert is not None:
                found += 1
                assert cert.verify()
        assert found > 0


class TestSl2Check:
    def test_pure_triple(self):
        n = 1
        result = sl2_check(pd("d1", n), pd("(-1 x1^2) d1", n), pd("(-2 x1) d1", n), 1)
        assert isinstance(result, Sl2Certificate)
        assert result.to_dict() == {"t1": "d1", "t2": "(-x1^2) d1", "t3": "(-2 x1) d1",
                                    "k": 1}
        t1, t2, t3 = result.t1, result.t2, result.t3
        x1 = Polynomial.variable(n, 1)
        assert (t1.bracket(t2).coeff(1), t3.bracket(t1).coeff(1), t3.bracket(t2).coeff(1)) \
            == (-2 * x1, Polynomial.constant(n, 2), 2 * x1 * x1)
        report = derived_series(lie_closure([t1, t2, t3]))
        assert report.verdict == "stabilized_nonzero" and report.dims == (3, 3)

    def test_lower_slot_terms_keep_the_bracket_table(self):
        # why the shape alone certifies: with nothing above slot k and slot-k
        # coefficients in K[x_k], slot k of a bracket ignores the lower slots
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(2, 3)
            k = rng.randint(2, n)
            x_k = Polynomial.variable(n, k)
            d_k = Derivation.partial(n, k)
            lower = [random_derivation(rng, n, 3) for _ in range(3)]
            t1, t2, t3 = (Derivation(n, [*low.coeffs[:k - 1], *top.coeffs[k - 1:]])
                          for low, top in zip(lower, (d_k, -x_k * x_k * d_k, -2 * x_k * d_k)))
            assert isinstance(sl2_check(t1, t2, t3, k), Sl2Certificate)
            brackets = (t1.bracket(t2), t3.bracket(t1), t3.bracket(t2))
            assert all(b.coeff(j).is_zero() for b in brackets for j in range(k + 1, n + 1))
            assert tuple(b.coeff(k) for b in brackets) \
                == (-2 * x_k, Polynomial.constant(n, 2), 2 * x_k * x_k)

    def test_lower_terms_ignored(self):
        n = 2
        t1 = pd("(x1) d1 + d2", n)
        t2 = pd("(-1 x2^2) d2", n)
        t3 = pd("(-2 x2) d2", n)
        result = sl2_check(t1, t2, t3, 2)
        assert isinstance(result, Sl2Certificate)

    def test_shape_violation(self):
        n = 1
        # the wrong degree, then x1^2 d1 not normalized before negating
        for t2, got in (("(-1 x1) d1", "-x1"), ("(-3 x1^2) d1", "-3 x1^2")):
            result = sl2_check(pd("d1", n), pd(t2, n), pd("(-2 x1) d1", n), 1)
            assert result == Sl2Mismatch(f"t2 slot-1 coefficient is {got}, expected -x1^2")

    def test_upper_slot_violation(self):
        n = 2
        result = sl2_check(pd("d1 + (x1) d2", n), pd("(-1 x1^2) d1", n),
                           pd("(-2 x1) d1", n), 1)
        assert isinstance(result, Sl2Mismatch)

    @pytest.mark.parametrize("k", [0, 2])
    def test_slot_out_of_range_is_a_precondition_error(self, k):
        n = 1
        triple = (pd("d1", n), pd("(-1 x1^2) d1", n), pd("(-2 x1) d1", n))
        with pytest.raises(ValueError, match=rf"^slot {k} out of range 1\.\.1$"):
            sl2_check(*triple, k)

    def test_mixed_rings_are_a_precondition_error(self):
        with pytest.raises(ValueError, match="ambient dimension mismatch: 1 vs 2"):
            sl2_check(pd("d1", 1), pd("(-1 x1^2) d1", 2), pd("(-2 x1) d1", 1), 1)

    def test_certificate_implies_nonsolvable_closure(self):
        n = 1
        t1, t2, t3 = (pd("d1", n), pd("(-1 x1^2) d1", n), pd("(-2 x1) d1", n))
        assert isinstance(sl2_check(t1, t2, t3, 1), Sl2Certificate)
        closure = lie_closure([t1, t2, t3])
        assert closure.status == "closed"
        report = derived_series(closure)
        assert report.verdict == "stabilized_nonzero"
