"""`random_polynomial` and `random_derivation` with another term count.

The samplers draw at most `samplers.POLYNOMIAL_TERMS` terms per polynomial
and `samplers.DERIVATION_TERMS` per slot of a derivation.  These run the
sampler itself with that constant set to max_terms for the one call, so
the draws are the sampler's own, from the same generator.
"""

from unittest import mock

import samplers


def random_polynomial(rng, n, max_degree, max_terms):
    with mock.patch.object(samplers, "POLYNOMIAL_TERMS", max_terms):
        return samplers.random_polynomial(rng, n, max_degree)


def random_derivation(rng, n, max_degree, max_terms):
    with mock.patch.object(samplers, "DERIVATION_TERMS", max_terms):
        return samplers.random_derivation(rng, n, max_degree)
