"""Seeded random polynomials and derivations for identity checking.

Everything takes an explicit random.Random so that identical seeds rebuild
identical samples; coefficients are small rationals to keep the exact
arithmetic in the identity suites fast.

A random polynomial draws its term count, then for each term a coefficient
and then the term's monomial.  The coefficient is an integer pair: a
numerator in 1..9, its sign, then a denominator in 1..9.  A sample scales
its numerators to the lcm of its denominators and reduces once, so no
Fraction is made on the way; the draws are the ones a Fraction per
coefficient would take, in the same order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Iterator

from .canonical import Which, generators
from .derivation import Derivation
from .polyring import Monomial, Polynomial, _LowestTerms


def random_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_pair(rng: random.Random, bound: int = 9) -> tuple[int, int]:
    """A nonzero coefficient as (numerator, denominator), not reduced."""
    num = rng.randint(1, bound) * rng.choice((1, -1))
    return num, rng.randint(1, bound)


def random_coefficient(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(*_random_pair(rng, bound))


def _random_terms(rng: random.Random, n: int, max_degree: int,
                  max_terms: int) -> Iterator[tuple[Monomial, tuple[int, int]]]:
    """The draws of one random polynomial: a term count, then per term a
    coefficient pair and then its monomial."""
    for _ in range(rng.randint(0, max_terms)):
        pair = _random_pair(rng)
        yield random_monomial(rng, n, max_degree), pair


def _from_pairs(cls: type[_LowestTerms], n: int, pairs: dict) -> _LowestTerms:
    """The value sum(num / den * key) over pairs {key: (num, den)}."""
    den = lcm(*(d for _, d in pairs.values()))
    return cls._from_terms(n, {key: num * (den // d) for key, (num, d) in pairs.items()}, den)


def random_polynomial(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 4) -> Polynomial:
    # a monomial drawn twice keeps its last coefficient
    return _from_pairs(Polynomial, n, dict(_random_terms(rng, n, max_degree, max_terms)))


def random_nonconstant_polynomial(rng: random.Random, n: int, max_degree: int,
                                  max_terms: int = 4) -> Polynomial:
    while True:
        f = random_polynomial(rng, n, max_degree, max_terms)
        if not f.is_constant():
            return f


def random_derivation(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 3) -> Derivation:
    """One random polynomial's draws per slot 1..n, filled into one row."""
    return _from_pairs(Derivation, n, {
        (slot, m): pair for slot in range(1, n + 1)
        for m, pair in _random_terms(rng, n, max_degree, max_terms)})


def random_subalgebra_element(rng: random.Random, which: Which, n: int,
                              degree_cap: int, max_terms: int = 4) -> Derivation:
    """Random rational combination of monomial generators of un or sn."""
    gens = generators(which, n, degree_cap)
    out = Derivation.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        out = out + random_coefficient(rng) * rng.choice(gens)
    return out
