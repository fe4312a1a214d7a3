"""A reference for the arithmetic kernel, for tests only.

Polynomials here are plain dicts {exponent tuple: Fraction} and derivations
lists of n of them, one per slot.  Everything is written from the textbook
formulas on exponent tuples, with no packed keys, no common denominator and
nothing shared with `polylie`, so the library's kernels can be checked
against it.
"""


def random_exponents(rng, n, max_degree):
    """An exponent tuple drawn as `sampling.random_monomial` draws its key:
    a degree in 0..max_degree, then a variable per degree unit."""
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def graded_lex_key(m):
    """Graded-lex order with x1 > x2 > ...: total degree first, then the
    exponents from x1 on."""
    return (sum(m), m)


def add(f, g, k=1):
    """f + k * g, without zero terms."""
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + k * c
    return {m: c for m, c in out.items() if c}


def mul(f, g):
    """x^a * x^b = x^(a+b), summed over all pairs of terms."""
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def partial(f, pos):
    """d/dx_{pos+1} x^m = m_pos x^(m - e_pos)."""
    out = {}
    for m, c in f.items():
        if m[pos]:
            lowered = list(m)
            lowered[pos] -= 1
            out[tuple(lowered)] = c * m[pos]
    return out


def apply(d, f):
    """D(f) = sum_i f_i * df/dx_i for the coefficients f_i of D."""
    out = {}
    for pos, coeff in enumerate(d):
        out = add(out, mul(coeff, partial(f, pos)))
    return out


def bracket(d, e):
    """[D, E](x_i) = D(E(x_i)) - E(D(x_i)): slot i is D(g_i) - E(f_i)."""
    return [add(apply(d, g), apply(e, f), -1) for f, g in zip(d, e)]
