"""Polynomial arithmetic on integer numerators over one denominator, against
plain Fraction arithmetic on term maps written here.

Every operation below is recomputed on dict[Monomial, Fraction] maps, with
numerators and denominators up to 10^6 (see large_coefficients.py), n 1 to 4,
and each result's stored form is checked to be in lowest terms.  Equality and
hashing compare the stored numerators and denominator, so values reached along
different paths compare and hash equal only if every result is reduced; the
second class checks that.  A Derivation keeps its integer row in the same
stored form (`polyring._LowestTerms`), and the same checks run on it; the
second class also checks that the two types never mix and that neither
changes after it is built.  The stored slots are written in one place,
`_LowestTerms._store`, and the single-slot derivations built straight from
one row equal the ones built from n polynomials.
"""

import ast
import operator
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import polylie
from polylie.canonical import strip_canonical_part
from polylie.derivation import Derivation
from polylie.grammar import ParseError, parse_derivation, parse_polynomial
from polylie.polyring import Polynomial, format_monomial
from polylie.span import SpanBasis

from kernel_reference import add as ref_add
from kernel_reference import apply as ref_apply
from kernel_reference import bracket as ref_bracket
from kernel_reference import mul as ref_mul
from kernel_reference import partial as ref_partial
from kernel_reference import random_exponents
from large_coefficients import BOUND, big_derivation, big_polynomial, big_rational


def nonzero(t):
    return {m: c for m, c in t.items() if c}


def ref_scale(a, k):
    return nonzero({m: c * k for m, c in a.items()})


def ref_expand(a, pos):
    if not a:
        return []
    out = [{} for _ in range(max(m[pos] for m in a) + 1)]
    for m, c in a.items():
        out[m[pos]][m[:pos] + (0,) + m[pos + 1:]] = c
    return out


def assert_lowest_terms(v):
    """v, a Polynomial or a Derivation, is stored in lowest terms."""
    assert v._den > 0
    assert all(type(c) is int and c for c in v._terms.values())
    # also makes the zero value's denominator 1
    assert gcd(v._den, *v._terms.values()) == 1


def check(p, want):
    assert dict(p) == want
    assert_lowest_terms(p)


def check_derivation(d, want):
    """d's coefficients are the Fraction term maps want, and every stored
    form involved is in lowest terms."""
    assert_lowest_terms(d)
    assert [dict(f) for f in d.coeffs] == want
    assert [dict(d.coeff(i)) for i in range(1, d.n + 1)] == want
    for f in d.coeffs:
        assert_lowest_terms(f)


def fraction_maps(rng, n):
    """n Fraction term maps, some empty, and the derivation they define."""
    maps = [nonzero({random_exponents(rng, n, 3): big_rational(rng)
                     for _ in range(rng.randint(0, 3))}) for _ in range(n)]
    return Derivation(n, [Polynomial(n, t) for t in maps]), maps


def derivation_cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        d, td = fraction_maps(rng, n)
        e, te = fraction_maps(rng, n)
        if rng.random() < 0.3:  # shared terms, some cancelling
            k = rng.choice((-1, big_rational(rng)))
            e = e + d * k
            te = [ref_add(b, ref_scale(a, k)) for a, b in zip(td, te)]
        yield rng, n, d, td, e, te


def cases(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        a = big_polynomial(rng, n, 3)
        b = big_polynomial(rng, n, 3)
        if rng.random() < 0.3:  # shared terms, some cancelling
            b = b + a * rng.choice((-1, big_rational(rng)))
        yield rng, n, a, b


class TestAgainstFractionMaps:
    def test_sums_and_negation(self):
        for _, _, a, b in cases(71):
            ta, tb = dict(a), dict(b)
            check(a + b, ref_add(ta, tb))
            check(a - b, ref_add(ta, tb, -1))
            check(-a, ref_scale(ta, -1))

    def test_products(self):
        for rng, _, a, b in cases(72):
            ta = dict(a)
            check(a * b, ref_mul(ta, dict(b)))
            k = big_rational(rng)
            check(a * k, ref_scale(ta, k))
            m = rng.randint(-BOUND, BOUND)
            check(a * m, ref_scale(ta, m))
            q = Fraction(1, rng.randint(1, BOUND))
            check(a * q, ref_scale(ta, q))

    def test_partial_and_expand_in(self):
        for _, n, a, _ in cases(73):
            ta = dict(a)
            for i in range(1, n + 1):
                check(a.partial(i), ref_partial(ta, i - 1))
                parts = a.expand_in(i)
                assert [dict(h) for h in parts] == ref_expand(ta, i - 1)
                for h in parts:
                    assert_lowest_terms(h)

    def test_apply_and_bracket(self):
        rng = random.Random(74)
        for _ in range(40):
            n = rng.randint(1, 4)
            d, e = big_derivation(rng, n, 3), big_derivation(rng, n, 3)
            f = big_polynomial(rng, n, 3)
            td = [dict(g) for g in d.coeffs]
            te = [dict(g) for g in e.coeffs]
            check(d.apply(f), ref_apply(td, dict(f)))
            for got, want in zip(d.bracket(e).coeffs, ref_bracket(td, te)):
                check(got, want)

    def test_derivation_arithmetic(self):
        for rng, n, d, td, e, te in derivation_cases(78):
            k = big_rational(rng)
            p = big_polynomial(rng, n, 2)
            check_derivation(d, td)
            check_derivation(d + e, [ref_add(a, b) for a, b in zip(td, te)])
            check_derivation(d - e, [ref_add(a, b, -1) for a, b in zip(td, te)])
            check_derivation(-d, [ref_scale(a, -1) for a in td])
            for c in (k, k.numerator, 0):
                check_derivation(d * c, [ref_scale(a, c) for a in td])
                check_derivation(c * d, [ref_scale(a, c) for a in td])
            check_derivation(d * p, [ref_mul(a, dict(p)) for a in td])
            check_derivation(d.bracket(e), ref_bracket(td, te))

    def test_derivations_built_from_rows(self):
        for _, n, d, _, e, _ in derivation_cases(79):
            for b in SpanBasis(n, [d, e, d.bracket(e)]).basis:
                assert_lowest_terms(b)
            for which in ("un", "sn"):
                remainder, stripped = strip_canonical_part(d, which)
                assert_lowest_terms(remainder)
                assert_lowest_terms(stripped)
                assert remainder + stripped == d


class TestEqualValuesHashEqual:
    def test_scaling_round_trip(self):
        for rng, _, a, _ in cases(75):
            q = rng.randint(1, BOUND)
            back = (a * Fraction(1, q)) * q
            assert back == a and hash(back) == hash(a)
            k = big_rational(rng)
            back = (a * k) * (1 / k)
            assert back == a and hash(back) == hash(a)

    def test_cancellation(self):
        for _, n, a, b in cases(76):
            zero = Polynomial.zero(n)
            assert a - a == zero and hash(a - a) == hash(zero)
            back = (a + b) - b
            assert back == a and hash(back) == hash(a)

    def test_bracket_after_round_trip_through_terms(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 4)
            got = big_derivation(rng, n, 3).bracket(big_derivation(rng, n, 3))
            rebuilt = Derivation(n, [Polynomial(n, dict(g)) for g in got.coeffs])
            assert rebuilt == got and hash(rebuilt) == hash(got)

    def test_derivation_paths(self):
        for rng, n, d, _, e, _ in derivation_cases(80):
            q = rng.randint(1, BOUND)
            for got, want in (((d * Fraction(1, q)) * q, d),
                              (d - d, Derivation.zero(n)),
                              ((d + e) - e, d),
                              (Derivation(n, d.coeffs), d)):
                assert got == want and hash(got) == hash(want)
                assert_lowest_terms(got)

    def test_equal_values_collapse_in_a_set(self):
        for rng, n, d, _, e, _ in derivation_cases(82):
            a = big_polynomial(rng, n, 3)
            b = big_polynomial(rng, n, 3)
            k = big_rational(rng)
            assert len({a, (a * k) * (1 / k), (a + b) - b, -(-a)}) == 1
            assert len({d, (d * k) * (1 / k), (d + e) - e, -(-d),
                        Derivation(n, d.coeffs)}) == 1

    def test_the_two_types_never_mix(self):
        assert Polynomial.zero(2) != Derivation.zero(2)
        for rng, n, d, _, _, _ in derivation_cases(83, count=20):
            p = big_polynomial(rng, n, 3)
            assert p != d and d != p
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(p, d)
                with pytest.raises(TypeError):
                    op(d, p)

    def test_values_are_immutable_and_have_no_dict(self):
        for rng, n, d, _, _, _ in derivation_cases(84, count=20):
            for v in (big_polynomial(rng, n, 3), d):
                assert not hasattr(v, "__dict__")
                for name in ("n", "_terms", "_den", "other"):
                    with pytest.raises(AttributeError, match=f"{type(v).__name__} is immutable"):
                        setattr(v, name, 1)


STORED_SLOTS = {"n", "_terms", "_den"}


def slot_setter(node):
    """Whether node is a slot descriptor's `__set__`: `X.<slot>.__set__` for a
    slot in STORED_SLOTS, or the `__set__` of a descriptor not named by an
    attribute (say `vars(X)[name].__set__`)."""
    return (isinstance(node, ast.Attribute) and node.attr == "__set__"
            and not (isinstance(node.value, ast.Attribute)
                     and node.value.attr not in STORED_SLOTS))


def setter_names(tree):
    """The names bound anywhere in tree to a value built from a slot setter
    or from a name already found, up to a fixed point."""
    names = set()
    while True:
        found = {target.id
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                 and node.value is not None
                 and any(slot_setter(v) or isinstance(v, ast.Name) and v.id in names
                         for v in ast.walk(node.value))
                 for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for target in ast.walk(t) if isinstance(target, ast.Name)}
        if found <= names:
            return names
        names |= found


def slot_writers(source):
    """The top-level class or function around each call that may write a
    stored slot: `object.__setattr__` whose name argument is one of
    STORED_SLOTS or not a constant, a slot setter, or a name (or an
    attribute of that name) bound to one."""
    tree = ast.parse(source)
    names = setter_names(tree)
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (ast.unparse(func) == "object.__setattr__"
                    and not (len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                             and node.args[1].value not in STORED_SLOTS)
                    or slot_setter(func)
                    or isinstance(func, ast.Name) and func.id in names
                    or isinstance(func, ast.Attribute) and func.attr in names):
                out.append(getattr(top, "name", "<module>"))
    return out


class TestOneStoreMethod:
    def test_finder_sees_slot_writes(self):
        source = ("class A:\n    def f(self):\n        object.__setattr__(self, '_den', 1)\n"
                  "        object.__setattr__(self, 'other', 1)\n"
                  "def g(v, name):\n    object.__setattr__(v, name, 1)\n"
                  "object.__setattr__(v, 'n', 1)\n")
        assert slot_writers(source) == ["A", "g", "<module>"]
        # a descriptor's __set__, called directly or through a name bound to it
        source = ("class B:\n    def f(self):\n        B._terms.__set__(self, {})\n"
                  "        B.other.__set__(self, 1)\n"
                  "def g(v, d):\n    d.__set__(v, 1)\n"
                  "set_n = B.n.__set__\nalias = set_n\n"
                  "def h(v):\n    set_n(v, 1)\n"
                  "def k(v):\n    alias(v, 1)\n"
                  "class C:\n    _set = B._den.__set__\n"
                  "    def f(self):\n        self._set(self, 1)\n"
                  "def quiet(v):\n    other = B.other.__set__\n    other(v, 1)\n"
                  "    set_n\n")
        assert slot_writers(source) == ["B", "g", "h", "k", "C"]

    def test_slots_are_written_only_inside_lowest_terms(self):
        package = Path(polylie.__file__).resolve().parent
        writers = {f"{p.stem}.{name}" for p in package.glob("*.py")
                   for name in slot_writers(p.read_text())}
        assert writers == {"polyring._LowestTerms"}


def from_polynomials(n, i, make_coeff):
    """The single-slot derivation built from n polynomials, all zero but
    make_coeff() in slot i."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    coeffs = [Polynomial.zero(n)] * n
    coeffs[i - 1] = make_coeff()
    return Derivation(n, coeffs)


def outcome(build):
    """The value build() returns with its stored key order and denominator,
    or the type and message of the error it raises."""
    try:
        d = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return d, hash(d), list(d._terms), d._den


def unordered_text(rng, n):
    """Polynomial text whose terms come in no canonical order, some of them
    sharing a monomial."""
    monos = [random_exponents(rng, n, 3) for _ in range(rng.randint(1, 3))]
    terms = [(rng.choice(monos), big_rational(rng)) for _ in range(rng.randint(0, 5))]
    return " + ".join(f"({c}) {format_monomial(m)}" for m, c in terms) or "0"


class TestSingleSlotBuilds:
    def test_partial(self):
        for n in range(1, 5):
            for i in range(-1, n + 3):
                assert (outcome(lambda: Derivation.partial(n, i))
                        == outcome(lambda: from_polynomials(n, i, lambda: Polynomial.one(n))))

    def test_monomial_term(self):
        rng = random.Random(85)
        bad_exponents = [(-1,), (True,), ("x",), (1.0,), ()]
        coefficients = [1, -3, 0, Fraction(0), Fraction(4, 6), Fraction(-7, 3), 1.5, "2"]
        for _ in range(100):
            n = rng.randint(1, 4)
            i = rng.choice((0, n + 1)) if rng.random() < 0.2 else rng.randint(1, n)
            coeff = rng.choice(coefficients + [big_rational(rng)])
            exps = random_exponents(rng, n, 4)
            if rng.random() < 0.3:
                exps = rng.choice(bad_exponents) + exps[1:]
            got = outcome(lambda: Derivation.partial(n, i) * Polynomial(n, {exps: coeff}))
            want = outcome(lambda: from_polynomials(n, i, lambda: Polynomial(n, {exps: coeff})))
            assert got == want

    def test_parsed_directional_term(self):
        rng = random.Random(86)
        for _ in range(60):
            n = rng.randint(1, 4)
            i = rng.randint(1, n)
            text = unordered_text(rng, n)
            got = outcome(lambda: parse_derivation(f"({text}) d{i}", n))
            want = outcome(lambda: from_polynomials(n, i, lambda: parse_polynomial(text, n)))
            assert got == want
            assert outcome(lambda: parse_derivation(f"d{i}", n)) == outcome(
                lambda: from_polynomials(n, i, lambda: Polynomial.one(n)))
            for bad in (0, n + 1):
                with pytest.raises(ParseError, match=f"derivation index d{bad} out of range"):
                    parse_derivation(f"({text}) d{bad}", n)
