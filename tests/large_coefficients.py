"""Seeded random values whose rational coefficients have numerators and
denominators up to 10^6, so that clearing denominators and fraction-free
elimination meet large, mostly coprime integers."""

from fractions import Fraction

from polylie.derivation import Derivation
from polylie.polyring import Polynomial

from kernel_reference import random_exponents

BOUND = 10**6


def big_rational(rng):
    """A nonzero rational with numerator and denominator up to BOUND."""
    return Fraction(rng.randint(1, BOUND) * rng.choice((1, -1)), rng.randint(1, BOUND))


def big_polynomial(rng, n, max_degree, max_terms=4):
    return Polynomial(n, {random_exponents(rng, n, max_degree): big_rational(rng)
                          for _ in range(rng.randint(0, max_terms))})


def big_derivation(rng, n, max_degree, max_terms=3):
    return Derivation(n, [big_polynomial(rng, n, max_degree, max_terms)
                          for _ in range(n)])
