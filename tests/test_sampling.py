"""The integer-pair samplers against the Fraction path they replaced.

The reference below draws through `randint`, `randrange` and `choice`,
each monomial as an exponent tuple, builds each coefficient as a Fraction
and each value through the public constructors, as the samplers once did.
A twin random.Random drives it, so equal values and equal generator states
after the call pin both the samples and the sequence of draws.
"""

import random
from fractions import Fraction

import pytest

from polylie.canonical import generators, random_subalgebra_element
from polylie.derivation import Derivation
from polylie.polyring import Polynomial

from kernel_reference import random_exponents
from samplers import (DERIVATION_TERMS, POLYNOMIAL_TERMS, random_derivation,
                      random_nonconstant_polynomial, random_polynomial)


def ref_coefficient(rng, bound=9):
    num = rng.randint(1, bound) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, bound))


def ref_polynomial(rng, n, max_degree, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        # the right-hand side is evaluated first: coefficient, then monomial
        terms[random_exponents(rng, n, max_degree)] = ref_coefficient(rng)
    return Polynomial(n, terms)


def ref_derivation(rng, n, max_degree, max_terms=3):
    return Derivation(n, [ref_polynomial(rng, n, max_degree, max_terms)
                          for _ in range(n)])


def ref_nonconstant_polynomial(rng, n, max_degree):
    while True:
        f = ref_polynomial(rng, n, max_degree)
        if not f.is_constant():
            return f


def ref_subalgebra_element(rng, which, n, degree_cap):
    gens = generators(which, n, degree_cap)
    out = Derivation.zero(n)
    for _ in range(rng.randint(1, 4)):
        out = out + ref_coefficient(rng) * rng.choice(gens)
    return out


CASES = [(seed, n) for seed in range(40) for n in range(1, 5)]


def assert_same_value(got, want):
    assert got == want
    # term order too: the fast path stores the terms in the order the
    # reference draws them, not only the same value
    assert list(got._terms) == list(want._terms)


# max_terms is the samplers' own term count, which the reference takes
@pytest.mark.parametrize("max_degree,max_terms", [(4, POLYNOMIAL_TERMS), (5, POLYNOMIAL_TERMS)])
def test_random_polynomial_matches_fraction_path(max_degree, max_terms):
    for seed, n in CASES:
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got = random_polynomial(rng, n, max_degree)
            assert_same_value(got, ref_polynomial(twin, n, max_degree, max_terms))
            assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("max_degree,max_terms", [(3, DERIVATION_TERMS), (4, DERIVATION_TERMS)])
def test_random_derivation_matches_fraction_path(max_degree, max_terms):
    for seed, n in CASES:
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got = random_derivation(rng, n, max_degree)
            assert_same_value(got, ref_derivation(twin, n, max_degree, max_terms))
            assert rng.getstate() == twin.getstate()


def test_repeated_monomial_keeps_last_draw():
    # degree 0 draws the constant monomial every time, so every term after
    # the first overwrites the one before
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        got = random_polynomial(rng, 2, 0)
        assert_same_value(got, ref_polynomial(twin, 2, 0, POLYNOMIAL_TERMS))
        assert len(dict(got)) <= 1


def test_random_nonconstant_polynomial_matches_fraction_path():
    for seed, n in CASES:
        rng, twin = random.Random(seed), random.Random(seed)
        for max_degree in (1, 3, 5):
            got = random_nonconstant_polynomial(rng, n, max_degree)
            assert_same_value(got, ref_nonconstant_polynomial(twin, n, max_degree))
            assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("which", ["un", "sn"])
def test_random_subalgebra_element_matches_fraction_path(which):
    for seed in range(30):
        for n, degree_cap in ((1, 3), (2, 2), (3, 2)):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = random_subalgebra_element(rng, which, n, degree_cap)
                assert_same_value(got, ref_subalgebra_element(twin, which, n, degree_cap))
                assert rng.getstate() == twin.getstate()
