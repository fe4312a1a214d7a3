"""A reference for the arithmetic kernel, for tests only.

Polynomials here are plain dicts {exponent tuple: Fraction} and derivations
lists of n of them, one per slot.  Everything is written from the textbook
formulas on exponent tuples, with no packed keys, no common denominator and
nothing shared with `polylie`, so the library's kernels can be checked
against it.

The triangular subalgebras `un` and `sn` are decided here by scanning
exponent tuples, the rule `canonical` stated before it read levels off
packed keys, so that `membership`, `strip_canonical_part` and `generators`
can be checked against it.

The printers at the end format polylie's own `Polynomial` and `Derivation`
values, reading them through the public API alone (`coeffs`, iteration and
`Fraction` coefficients), so the library's printers can be checked against
them byte for byte.
"""

import itertools
from fractions import Fraction


def random_exponents(rng, n, max_degree):
    """An exponent tuple drawn as `samplers` draws a monomial's key: a
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


UN_REASON_DEPENDS_HIGHER = "depends_on_xj_with_j_gt_i"
SN_REASON_DEGREE = "xi_degree_exceeds_1"
UN_REASON_DEGREE = "xi_degree_exceeds_0_for_un"

# the slot violations (see slot_violation) each subalgebra admits
ADMITTED = {"un": (None,), "sn": (None, UN_REASON_DEGREE)}


def slot_violation(i, mono):
    """Why monomial * d_i lies outside un, or None if it lies inside."""
    if any(mono[pos] > 0 for pos in range(i, len(mono))):
        return UN_REASON_DEPENDS_HIGHER
    if mono[i - 1] >= 2:
        return SN_REASON_DEGREE
    if mono[i - 1] == 1:
        return UN_REASON_DEGREE
    return None


def membership(d):
    """(in_un, in_sn, violations) of a derivation, its terms read slot by
    slot and each slot's monomials in descending graded-lex order: the
    distinct (slot, reason) pairs in the order first met."""
    seen = {}
    for i, f in enumerate(d, start=1):
        for m in sorted(f, key=graded_lex_key, reverse=True):
            why = slot_violation(i, m)
            if why:
                seen[i, why] = None
    violations = tuple(seen)
    return not violations, all(r in ADMITTED["sn"] for _, r in violations), violations


def strip(d, which):
    """(remainder, stripped): the terms of d that the subalgebra does not
    admit, and those it does."""
    halves = ([], [])
    for i, f in enumerate(d, start=1):
        for half in halves:
            half.append({})
        for m, c in f.items():
            halves[slot_violation(i, m) in ADMITTED[which]][-1][m] = c
    return halves


def generators(which, n, degree_cap):
    """(slot, exponent tuple) of each monomial generator m * x_i^e * d_i of
    degree at most degree_cap, m in x_1 ... x_(i-1): slot-major, then by the
    degree of m and the order its variables are drawn in, then by e, while
    the subalgebra admits the term."""
    out = []
    for i in range(1, n + 1):
        for total in range(degree_cap + 1):
            for combo in itertools.combinations_with_replacement(range(i - 1), total):
                mono = [0] * n
                for pos in combo:
                    mono[pos] += 1
                for e in range(degree_cap - total + 1):
                    mono[i - 1] = e
                    if slot_violation(i, mono) not in ADMITTED[which]:
                        break
                    out.append((i, tuple(mono)))
    return out


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
