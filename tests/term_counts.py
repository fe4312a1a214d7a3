"""`random_polynomial` and `random_derivation` with another term count.

The samplers draw at most `sampling.POLYNOMIAL_TERMS` terms per polynomial
and `sampling.DERIVATION_TERMS` per slot of a derivation.  These run the
sampler itself with that constant set to max_terms for the one call, so
the draws are the sampler's own, from the same generator.
"""

from unittest import mock

from polylie import sampling


def random_polynomial(rng, n, max_degree, max_terms):
    with mock.patch.object(sampling, "POLYNOMIAL_TERMS", max_terms):
        return sampling.random_polynomial(rng, n, max_degree)


def random_derivation(rng, n, max_degree, max_terms):
    with mock.patch.object(sampling, "DERIVATION_TERMS", max_terms):
        return sampling.random_derivation(rng, n, max_degree)
