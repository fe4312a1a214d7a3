"""Seeded random polynomials and derivations for identity checking.

Everything takes an explicit random.Random so that identical seeds rebuild
identical samples; coefficients are small rationals to keep the exact
arithmetic in the identity suites fast.

A random polynomial draws its term count, then for each term a coefficient
and then the term's monomial.  The coefficient is an integer pair: a
numerator in 1..9, its sign, then a denominator in 1..9.  The monomial is a
degree in 0..max_degree, then a variable per degree unit.  The draws go in
one loop straight into a map {key: (num, den)}, which `polyring._over_lcm`
puts over one denominator, so no Fraction is made on the way.

Every draw is one call of `_below(bits, n)`, with bits the generator's
`getrandbits`.  It reads words exactly as `Random.randrange(n)` does on
CPython 3.10 to 3.13: k = n.bit_length() bits, again while the draw is
n or more.  `randint(a, b)` is a + `randrange(b - a + 1)` and `choice(seq)`
is seq[`randrange(len(seq))`], so a seed gives the same samples as it
did through those methods, and leaves the generator in the same state.
In `verify-paper` that generator is a sample's own, re-seeded per sample.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .canonical import Which, generators
from .derivation import Derivation
from .polyring import Polynomial, _check_int, _over_lcm, codec

# the most terms a random polynomial draws, and a random derivation per slot
POLYNOMIAL_TERMS = 4
DERIVATION_TERMS = 3


def _below(bits, n: int) -> int:
    """A random int in 0..n-1 for n >= 1, from bits = rng.getrandbits."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw_terms(pairs: dict, bits, base: int, units: tuple, max_degree: int,
                max_terms: int) -> None:
    """Draw one random polynomial's terms into pairs {key: (num, den)},
    each key offset by base; a monomial drawn twice keeps its last pair."""
    n = len(units)
    for _ in range(_below(bits, max_terms + 1)):
        num = _below(bits, 9) + 1
        if _below(bits, 2):
            num = -num
        den = _below(bits, 9) + 1
        key = base
        for _ in range(_below(bits, max_degree + 1)):
            key += units[_below(bits, n)]
        pairs[key] = num, den


def random_polynomial(rng: random.Random, n: int, max_degree: int) -> Polynomial:
    _check_int(max_degree, "max degree", 0)
    pairs: dict[int, tuple[int, int]] = {}
    _draw_terms(pairs, rng.getrandbits, 0, codec(n).var_units, max_degree, POLYNOMIAL_TERMS)
    return Polynomial._from_terms(n, *_over_lcm(pairs.items()))


def random_nonconstant_polynomial(rng: random.Random, n: int, max_degree: int) -> Polynomial:
    while True:
        f = random_polynomial(rng, n, max_degree)
        if not f.is_constant():
            return f


def random_derivation(rng: random.Random, n: int, max_degree: int) -> Derivation:
    """One random polynomial's draws per slot 1..n, filled into one row."""
    _check_int(max_degree, "max degree", 0)
    c = codec(n)
    bits = rng.getrandbits
    pairs: dict[int, tuple[int, int]] = {}
    for slot in range(1, n + 1):
        _draw_terms(pairs, bits, slot << c.slot_shift, c.var_units, max_degree,
                    DERIVATION_TERMS)
    return Derivation._from_terms(n, *_over_lcm(pairs.items()))


def random_subalgebra_element(rng: random.Random, which: Which, n: int,
                              degree_cap: int) -> Derivation:
    """Random rational combination of one to four monomial generators of un
    or sn: per term a coefficient pair, as for a polynomial, then a
    generator."""
    gens = generators(which, n, degree_cap)
    bits = rng.getrandbits
    out = Derivation.zero(n)
    for _ in range(_below(bits, 4) + 1):
        num = _below(bits, 9) + 1
        if _below(bits, 2):
            num = -num
        coeff = Fraction(num, _below(bits, 9) + 1)
        out = out + coeff * gens[_below(bits, len(gens))]
    return out
