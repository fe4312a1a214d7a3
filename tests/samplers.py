"""Seeded random polynomials and derivations for the identity suites.

Everything takes an explicit random.Random so that identical seeds rebuild
identical samples; coefficients are small rationals to keep the exact
arithmetic in the identity suites fast.

A random polynomial draws its term count, then for each term a coefficient
and then the term's monomial.  The coefficient is an integer pair: a
numerator in 1..9, its sign, then a denominator in 1..9.  The monomial is a
degree in 0..max_degree, then a variable per degree unit.  The draws go in
one loop straight into a map {key: (num, den)}, which `polyring._over_lcm`
puts over one denominator, so no Fraction is made on the way.  Every draw
is one call of `rng.randrange`, as in `canonical.random_subalgebra_element`,
whose docstring says why.
"""

from polylie.derivation import Derivation
from polylie.polyring import Polynomial, _check_int, _over_lcm, codec

# the most terms a random polynomial draws, and a random derivation per slot
POLYNOMIAL_TERMS = 4
DERIVATION_TERMS = 3


def _draw_terms(pairs, rng, base, units, max_degree, max_terms):
    """Draw one random polynomial's terms into pairs {key: (num, den)},
    each key offset by base; a monomial drawn twice keeps its last pair."""
    n = len(units)
    randrange = rng.randrange
    for _ in range(randrange(max_terms + 1)):
        num = randrange(9) + 1
        if randrange(2):
            num = -num
        den = randrange(9) + 1
        key = base
        for _ in range(randrange(max_degree + 1)):
            key += units[randrange(n)]
        pairs[key] = num, den


def random_polynomial(rng, n, max_degree):
    _check_int(max_degree, "max degree", 0)
    pairs = {}
    _draw_terms(pairs, rng, 0, codec(n).var_units, max_degree, POLYNOMIAL_TERMS)
    return Polynomial._from_terms(n, *_over_lcm(pairs.items()))


def random_nonconstant_polynomial(rng, n, max_degree):
    while True:
        f = random_polynomial(rng, n, max_degree)
        if not f.is_constant():
            return f


def random_derivation(rng, n, max_degree):
    """One random polynomial's draws per slot 1..n, filled into one row."""
    _check_int(max_degree, "max degree", 0)
    c = codec(n)
    pairs = {}
    for slot in range(1, n + 1):
        _draw_terms(pairs, rng, slot << c.slot_shift, c.var_units, max_degree,
                    DERIVATION_TERMS)
    return Derivation._from_terms(n, *_over_lcm(pairs.items()))
