"""Seeded random polynomials and derivations for identity checking.

Everything takes an explicit random.Random so that identical seeds rebuild
identical samples; coefficients are small rationals to keep the exact
arithmetic in the identity suites fast.

A random polynomial draws its term count, then for each term a coefficient
and then the term's monomial.  The coefficient is an integer pair: a
numerator in 1..9, its sign, then a denominator in 1..9.  A sample hands its
pairs to `polyring._over_lcm` and reduces once, so no Fraction is made on
the way; the draws are the ones a Fraction per coefficient would take, in
the same order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .canonical import Which, generators
from .derivation import Derivation
from .polyring import Polynomial, _over_lcm, codec


def random_monomial(rng: random.Random, n: int, max_degree: int) -> int:
    """The packed key (see `polyring.KeyCodec`) of a random monomial: a
    degree in 0..max_degree, then a variable per degree unit."""
    units = codec(n).var_units
    key = 0
    for _ in range(rng.randint(0, max_degree)):
        key += units[rng.randrange(n)]
    return key


def _random_pair(rng: random.Random) -> tuple[int, int]:
    """A nonzero coefficient as (numerator, denominator), not reduced."""
    num = rng.randint(1, 9) * rng.choice((1, -1))
    return num, rng.randint(1, 9)


def random_coefficient(rng: random.Random) -> Fraction:
    return Fraction(*_random_pair(rng))


def _random_terms(rng: random.Random, n: int, max_degree: int,
                  max_terms: int) -> Iterator[tuple[int, tuple[int, int]]]:
    """The draws of one random polynomial: a term count, then per term a
    coefficient pair and then its monomial."""
    for _ in range(rng.randint(0, max_terms)):
        pair = _random_pair(rng)
        yield random_monomial(rng, n, max_degree), pair


def random_polynomial(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 4) -> Polynomial:
    # a monomial drawn twice keeps its last coefficient
    return Polynomial._from_terms(
        n, *_over_lcm(dict(_random_terms(rng, n, max_degree, max_terms))))


def random_nonconstant_polynomial(rng: random.Random, n: int, max_degree: int) -> Polynomial:
    while True:
        f = random_polynomial(rng, n, max_degree)
        if not f.is_constant():
            return f


def random_derivation(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 3) -> Derivation:
    """One random polynomial's draws per slot 1..n, filled into one row."""
    shift = codec(n).slot_shift
    return Derivation._from_terms(n, *_over_lcm({
        (slot << shift) + m: pair for slot in range(1, n + 1)
        for m, pair in _random_terms(rng, n, max_degree, max_terms)}))


def random_subalgebra_element(rng: random.Random, which: Which, n: int,
                              degree_cap: int) -> Derivation:
    """Random rational combination of one to four monomial generators of un
    or sn."""
    gens = generators(which, n, degree_cap)
    out = Derivation.zero(n)
    for _ in range(rng.randint(1, 4)):
        out = out + random_coefficient(rng) * rng.choice(gens)
    return out
