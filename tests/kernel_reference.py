"""A reference for the arithmetic kernel, for tests only.

Polynomials here are plain dicts {exponent tuple: Fraction} and derivations
lists of n of them, one per slot.  Everything is written from the textbook
formulas on exponent tuples, with no packed keys, no common denominator and
nothing shared with `polylie`, so the library's kernels can be checked
against it.

The printers at the end format polylie's own `Polynomial` and `Derivation`
values, reading them through the public API alone (`coeffs`, iteration and
`Fraction` coefficients), so the library's printers can be checked against
them byte for byte.
"""

from fractions import Fraction


def random_exponents(rng, n, max_degree):
    """An exponent tuple drawn as `sampling` draws a monomial's key: a
    degree in 0..max_degree, then a variable per degree unit."""
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


def format_monomial(m):
    """x_i for exponent 1, x_i^e above, the factors in variable order."""
    return " ".join(f"x{pos + 1}" if e == 1 else f"x{pos + 1}^{e}"
                    for pos, e in enumerate(m) if e)


def format_polynomial(f):
    """Terms in descending graded-lex order, each coefficient a Fraction: its
    magnitude p or p/q in front, left out before a monomial when it is 1; a
    bare "-" on a negative first term, "+ " or "- " on each later one."""
    pieces = []
    for m, coeff in sorted(f, key=lambda term: graded_lex_key(term[0]), reverse=True):
        mono = format_monomial(m)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} {mono}"
        if pieces:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            pieces.append(body if coeff > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def format_derivation(d):
    """The nonzero coefficients in slot order: a bare d<i> for the constant
    1, "(f) d<i>" otherwise; "0" when there are none."""
    parts = []
    for pos, f in enumerate(d.coeffs, start=1):
        terms = dict(f)
        if not terms:
            continue
        if terms == {(0,) * d.n: Fraction(1)}:
            parts.append(f"d{pos}")
        else:
            parts.append(f"({format_polynomial(f)}) d{pos}")
    return " + ".join(parts) or "0"
