"""The packed monomial keys: the codec, the kernel against a reference that
knows nothing of them, and the exponent limit.

A monomial is stored as one int, 64-bit fields slot | degree | e_1 | ... |
e_n (see `polyring.KeyCodec`).  The codec tests pin the round trip and the
two orders the library reads off the ints: graded-lex within a slot and the
column order across slots (`KeyCodec.column_key`).  The grading tests pin
`KeyCodec.weight` against a reference and `KeyCodec.level` on edge keys
(`test_canonical.TestTupleRule` checks the level's users against the
tuple-scanning rule).  The kernel tests check
products, partials, `apply` and brackets of `Polynomial` and `Derivation`
against `kernel_reference`, on exponent tuples, including exponents near
the limit 2^63; `row_partials` is checked the same way, and from a cleared,
a warm and an overfilled per-key table.  The limit tests check that a key
never wraps: reaching 2^63 is a ValueError, and a CLI exit code 2
(`test_polyring.TestMonomialChecks` has the constructor cases).
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import kernel_reference as ref
from polylie.canonical import generators
from polylie.derivation import Derivation, _key_partials, row_partials
from polylie.grammar import parse_derivation, parse_polynomial
from polylie.polyring import EXPONENT_LIMIT, Polynomial, codec

TOP = EXPONENT_LIMIT - 1  # the largest exponent and degree supported


def random_map(rng, n, max_degree, max_terms, shift=()):
    """A reference term map with small rational coefficients; shift, if
    given, is added to every exponent tuple."""
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        m = ref.random_exponents(rng, n, max_degree)
        if shift:
            m = tuple(a + b for a, b in zip(m, shift))
        out[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return {m: c for m, c in out.items() if c}


def row_key(n, slot, m):
    return (slot << codec(n).slot_shift) + codec(n).pack(m)


class TestCodec:
    def test_round_trip(self):
        rng = random.Random(1)
        for n in range(1, 15):
            c = codec(n)
            assert codec(n) is c  # one codec per n
            cases = [(0,) * n, (TOP,) + (0,) * (n - 1), (0,) * (n - 1) + (TOP,)]
            cases += [ref.random_exponents(rng, n, 12) for _ in range(50)]
            # large exponents whose total stays below the limit
            cases += [tuple(rng.randrange(EXPONENT_LIMIT // n) for _ in range(n))
                      for _ in range(50)]
            for m in cases:
                key = c.pack(m)
                assert c.unpack(key) == m
                assert c.degree(key) == sum(m)
                assert [c.exponent(key, pos) for pos in range(n)] == list(m)
                for slot in (1, n):
                    assert c.unpack(row_key(n, slot, m)) == m
                    assert row_key(n, slot, m) >> c.slot_shift == slot

    def test_variable_keys(self):
        for n in range(1, 8):
            c = codec(n)
            for pos in range(n):
                unit = [0] * n
                unit[pos] = 1
                assert c.var_units[pos] == c.pack(tuple(unit))

    def test_sorted_keys_are_graded_lex(self):
        rng = random.Random(2)
        for n in range(1, 7):
            c = codec(n)
            # every monomial of degree <= 3 gives many degree ties
            monos = {tuple(sum(1 for p in combo if p == pos) for pos in range(n))
                     for total in range(4)
                     for combo in itertools.combinations_with_replacement(range(n), total)}
            monos |= {ref.random_exponents(rng, n, 40) for _ in range(100)}
            monos |= {(TOP - n,) + (1,) * (n - 1), (0,) * (n - 1) + (TOP,)}
            monos = list(monos)
            rng.shuffle(monos)
            by_key = [c.unpack(k) for k in sorted(map(c.pack, monos))]
            assert by_key == sorted(monos, key=ref.graded_lex_key)

    def test_column_key_is_the_old_column_order(self):
        def old_key(slot, m):
            return (slot, -sum(m), tuple(-e for e in m))

        rng = random.Random(3)
        for n in range(1, 7):
            coords = {(slot, ref.random_exponents(rng, n, 5))
                      for slot in range(1, n + 1) for _ in range(15)}
            # slot boundaries: the top and the bottom monomial of every slot
            coords |= {(slot, m) for slot in range(1, n + 1)
                       for m in ((0,) * n, (TOP,) + (0,) * (n - 1),
                                 (0,) * (n - 1) + (TOP,))}
            coords = list(coords)
            rng.shuffle(coords)
            got = sorted((row_key(n, slot, m) for slot, m in coords), key=codec(n).column_key)
            want = [row_key(n, slot, m) for slot, m in sorted(coords, key=lambda t: old_key(*t))]
            assert got == want


def reference_weight(n, c, slot, m):
    """sum a_l w(x_l) - w(x_slot) with w(x_l) = 1 + c + ... + c^(l-1), and no
    w(x_slot) for slot 0."""
    w = [sum(c ** k for k in range(l)) for l in range(1, n + 1)]
    return sum(e * wl for e, wl in zip(m, w)) - (w[slot - 1] if slot else 0)


class TestGrading:
    def test_weight_against_reference(self):
        rng = random.Random(4)
        for n in range(1, 7):
            c = codec(n)
            for _ in range(60):
                m = ref.random_exponents(rng, n, 9)
                slot, cap = rng.randint(0, n), rng.randint(0, 5)
                assert c.weight(row_key(n, slot, m), cap) == reference_weight(n, cap, slot, m)

    def test_un_generators_weigh_minus_w_n_to_minus_one(self):
        # d_1 weighs -1 and x_(n-1)^c d_n weighs -w_n(c): both ends are met,
        # which a w(x_1) other than 1 would move
        for n in range(1, 6):
            for cap in range(1, 5):
                c = codec(n)
                weights = {c.weight(key, cap)
                           for g in generators("un", n, cap) for key in g._terms}
                w_n = sum(cap ** k for k in range(n))
                assert min(weights) == -w_n and max(weights) == -1
                assert c.weight(c.var_units[n - 1], cap) == w_n
        assert codec(2).weight(row_key(2, 2, (1, 0)), 2) == 1 - 3

    def test_brackets_add_weights(self):
        # [x^a d_i, x^b d_j] = b_i x^(a+b-e_i) d_j - a_j x^(a+b-e_j) d_i,
        # monomials of any shape: each term weighs w(a d_i) + w(b d_j)
        rng = random.Random(5)
        checked = 0
        for n in range(1, 5):
            c = codec(n)
            for _ in range(80):
                cap = rng.randint(0, 4)
                a, b = (parse_derivation(f"({mono(rng, n)}) d{rng.randint(1, n)}", n)
                        for _ in range(2))
                (ka,), (kb,) = a._terms, b._terms
                for key in a.bracket(b)._terms:
                    assert c.weight(key, cap) == c.weight(ka, cap) + c.weight(kb, cap)
                    checked += 1
        assert checked > 100

    def test_level_on_edge_keys(self):
        # each slot's un term, its sn term, and both ways out of sn
        c = codec(3)
        want = {"d1": 1, "(x1) d1": 0, "(x1^2) d1": -1, "(x2) d1": -1,
                "(x1) d2": 3, "(x1 x2) d2": 2, "(x2^2) d2": -1, "(x3) d2": -1,
                "(x1^3 x2^3) d3": 5, "(x2 x3) d3": 4}
        for text, level in want.items():
            (key,) = parse_derivation(text, 3)._terms
            assert c.level(key) == level, text
        # a slot-0 key is a polynomial's, no term of a derivation
        assert c.level(c.pack((0, 0, 0))) == c.level(c.pack((0, 2, 1))) == -1


def mono(rng, n):
    """A monomial text x1^e1 ... xn^en with exponents 0..3."""
    return " ".join(f"x{i}^{rng.randint(0, 3)}" for i in range(1, n + 1))


def kernel_cases(seed, count=80):
    """(n, f, g, d, e) with f, g reference polynomials and d, e reference
    derivations: n 1 to 5, degree at most 6."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        f, g = (random_map(rng, n, 6, 4) for _ in range(2))
        d, e = ([random_map(rng, n, 6, 2) for _ in range(n)] for _ in range(2))
        yield n, f, g, d, e


def near_limit_cases(seed, count=40):
    """The same, but the exponents of f and d are raised by a split of
    2^63 - 20 over the variables and g and e stay small: every product of a
    term of f or d with one of g or e lands just below 2^63."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        cuts = [0] + sorted(rng.randrange(TOP - 19) for _ in range(n - 1)) + [TOP - 19]
        shift = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        f = random_map(rng, n, 6, 4, shift)
        g = random_map(rng, n, 6, 4)
        d = [random_map(rng, n, 6, 2, shift) for _ in range(n)]
        e = [random_map(rng, n, 6, 2) for _ in range(n)]
        yield n, f, g, d, e


def lib_derivation(n, d):
    return Derivation(n, [Polynomial(n, t) for t in d])


def terms(d):
    """A Derivation's coefficients as reference term maps."""
    return [dict(f) for f in d.coeffs]


@pytest.mark.parametrize("cases,seed", [(kernel_cases, 11), (near_limit_cases, 12)],
                         ids=["small", "near_limit"])
def test_kernel_against_reference(cases, seed):
    for n, f, g, d, e in cases(seed):
        pf, pg = Polynomial(n, f), Polynomial(n, g)
        dd, de = lib_derivation(n, d), lib_derivation(n, e)
        assert dict(pf) == f and terms(dd) == d
        assert dict(pf * pg) == ref.mul(f, g)
        for pos in range(n):
            assert dict(pf.partial(pos + 1)) == ref.partial(f, pos)
        assert dict(dd.apply(pg)) == ref.apply(d, g)
        assert dict(de.apply(pf)) == ref.apply(e, f)
        assert terms(dd * pg) == [ref.mul(t, g) for t in d]
        assert terms(dd.bracket(de)) == ref.bracket(d, e)
        assert terms(de.bracket(dd)) == ref.bracket(e, d)


def reference_partials(n, slot_maps, den):
    """row_partials of the row of numerators over den of the reference term
    maps slot_maps {slot: map}, each entry sorted by key."""
    return [sorted((row_key(n, slot, m), c * den)
                   for slot, t in slot_maps.items()
                   for m, c in ref.partial(t, pos).items())
            for pos in range(n)]


def partial_cases(cases, seed):
    """(n, row, reference partials) for each polynomial, in slot 0, and each
    derivation of cases(seed)."""
    for n, f, g, d, e in cases(seed):
        for t in (f, g):
            p = Polynomial(n, t)
            yield n, p._terms, reference_partials(n, {0: t}, p._den)
        for ts in (d, e):
            v = lib_derivation(n, ts)
            yield n, v._terms, reference_partials(n, dict(enumerate(ts, start=1)), v._den)


@pytest.mark.parametrize("cases,seed", [(kernel_cases, 14), (near_limit_cases, 15)],
                         ids=["small", "near_limit"])
def test_row_partials_against_reference(cases, seed):
    for n, row, want in partial_cases(cases, seed):
        assert [sorted(df) for df in row_partials(n, row)] == want


def test_row_partials_do_not_depend_on_the_table():
    # row_partials reads each key's entries from the bounded _key_partials
    # table: a cleared, a warm and an overfilled table give the same lists
    rows = [(n, row) for cases, seed in ((kernel_cases, 16), (near_limit_cases, 17))
            for n, row, _ in partial_cases(cases, seed)]
    maxsize = _key_partials.cache_info().maxsize
    x1 = codec(1).var_units[0]
    try:
        _key_partials.cache_clear()
        cold = [row_partials(n, row) for n, row in rows]
        hits = _key_partials.cache_info().hits
        assert [row_partials(n, row) for n, row in rows] == cold
        assert _key_partials.cache_info().hits > hits
        for e in range(maxsize + 1000):
            _key_partials(1, e * x1)
        assert _key_partials.cache_info().currsize <= maxsize
        assert [row_partials(n, row) for n, row in rows] == cold
        assert _key_partials.cache_info().currsize <= maxsize
    finally:
        _key_partials.cache_clear()


def test_reference_bracket_is_the_composition_identity():
    # [D, E](x_i) = D(E(x_i)) - E(D(x_i)), and E(x_i) is E's i-th coefficient
    for n, _, _, d, e in kernel_cases(13, count=40):
        for pos in range(n):
            x = {tuple(int(p == pos) for p in range(n)): Fraction(1)}
            want = ref.add(ref.apply(d, ref.apply(e, x)), ref.apply(e, ref.apply(d, x)), -1)
            assert ref.bracket(d, e)[pos] == want


class TestExponentLimit:
    def test_top_exponent_round_trips(self):
        for n in (1, 3):
            for text in (f"x{n}^{TOP}", f"3/4 x1^{TOP - 1} - x{n}^{TOP}"):
                p = parse_polynomial(text, n)
                assert parse_polynomial(str(p), n) == p
            d = parse_derivation(f"(x{n}^{TOP}) d1", n)
            assert str(d) == f"(x{n}^{TOP}) d1"
            assert parse_derivation(str(d), n) == d
        p = Polynomial(2, {(TOP - 1, 1): 5})
        assert dict(p) == {(TOP - 1, 1): 5}
        assert p.leading_monomial() == (TOP - 1, 1)
        assert p.total_degree() == TOP and p.degree_in(1) == TOP - 1

    def test_products_that_cross_the_limit(self):
        half = EXPONENT_LIMIT // 2
        x1 = Polynomial.variable(1, 1)
        with pytest.raises(ValueError):
            x1 ** half * x1 ** half
        with pytest.raises(ValueError):
            x1 ** EXPONENT_LIMIT
        assert x1 ** TOP == Polynomial(1, {(TOP,): 1})
        assert (x1 ** (half - 1)) * (x1 ** half) == x1 ** TOP
        # the degree crosses, though no exponent does
        x = [Polynomial.variable(2, i) for i in (1, 2)]
        with pytest.raises(ValueError):
            x[0] ** half * x[1] ** half
        d = Derivation.partial(2, 2) * x[0] ** half
        with pytest.raises(ValueError):
            d * x[1] ** half
        assert d * x[1] ** (half - 1) == Derivation.partial(2, 2) * (
            x[0] ** half * x[1] ** (half - 1))

    def test_brackets_and_apply_that_cross_the_limit(self):
        half = EXPONENT_LIMIT // 2
        x1 = Polynomial.variable(1, 1)
        d1 = Derivation.partial(1, 1)
        big, bigger = d1 * x1 ** half, d1 * x1 ** (half + 1)
        # [x^a d, x^b d] = (b - a) x^(a+b-1) d: degree 2^63
        with pytest.raises(ValueError):
            big.bracket(bigger)
        with pytest.raises(ValueError):
            big.apply(x1 ** (half + 1))
        assert big.bracket(d1 * x1 ** half) == Derivation.zero(1)
        assert big.bracket(d1 * x1 ** (half - 1)).coeff(1) == -x1 ** (2 * half - 2)
        assert big.apply(x1 ** half) == half * x1 ** TOP

    def test_cli_exits_2_without_traceback(self, module_env):
        argv = [sys.executable, "-m", "polylie", "member",
                f"(x1^{EXPONENT_LIMIT}) d1", "--n", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=module_env,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        argv[4] = f"(x1^{TOP}) d1"
        proc = subprocess.run(argv, capture_output=True, text=True, env=module_env,
                              timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
