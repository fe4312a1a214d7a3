import random
from fractions import Fraction

import pytest

import kernel_reference as ref
from polylie.derivation import Derivation, format_row
from polylie.grammar import (
    ParseError,
    format_derivation,
    format_polynomial,
    parse_derivation,
    parse_polynomial,
)
from polylie.polyring import Polynomial

from samplers import random_derivation, random_polynomial


class TestPolynomialParsing:
    def test_basic_sum(self):
        n = 2
        f = parse_polynomial("x1^2 + 2 x1 x2 - 3", n)
        assert f.coefficient((2, 0)) == 1
        assert f.coefficient((1, 1)) == 2
        assert f.coefficient((0, 0)) == -3

    def test_rational_literals(self):
        f = parse_polynomial("1/2 x1 - x2^3", 2)
        assert f.coefficient((1, 0)) == Fraction(1, 2)
        assert f.coefficient((0, 3)) == -1

    def test_explicit_star_and_juxtaposition_agree(self):
        n = 2
        assert parse_polynomial("2*x1*x2", n) == parse_polynomial("2 x1 x2", n)
        assert parse_polynomial("2x1x2", n) == parse_polynomial("2 x1 x2", n)

    def test_parenthesized_power(self):
        n = 1
        assert parse_polynomial("(x1+1)^2", n) == parse_polynomial("x1^2 + 2 x1 + 1", n)

    def test_exponent_binds_tightest(self):
        n = 1
        assert parse_polynomial("2 x1^3", n) == 2 * Polynomial.variable(n, 1) ** 3

    def test_whitespace_insensitive(self):
        n = 2
        assert parse_polynomial(" x1 ^2+ x2 ", n) == parse_polynomial("x1^2+x2", n)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_polynomial("x3", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1^-2", 2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + %", 2)
        assert err.value.line == 1 and err.value.column == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 )", 2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0", 1)

    @pytest.mark.parametrize("text, message, column", [
        # str.isdigit() holds for both; int() rejects "²" and reads "١" as 1
        ("(x1^²) d1", "unexpected character '²'", 5),
        ("(x١) d1", "expected an index after 'x'", 2),
    ])
    def test_non_ascii_digits_rejected(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_derivation(text, 1)
        assert str(err.value) == f"{message} (line 1, column {column})"
        assert (err.value.line, err.value.column) == (1, column)


class TestDerivationParsing:
    def test_two_terms(self):
        n = 2
        d = parse_derivation("(x1^2) d2 + (x1+1) d1", n)
        assert d.coeff(1) == parse_polynomial("x1 + 1", n)
        assert d.coeff(2) == parse_polynomial("x1^2", n)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_derivation("d3", 2)

    def test_rational_coefficients(self):
        d = parse_derivation("(1/2 x1 - x2^3) d1", 2)
        assert d.coeff(1) == parse_polynomial("1/2 x1 - x2^3", 2)

    def test_bare_and_signed_terms(self):
        n = 2
        d = parse_derivation("d1 - (x1) d2", n)
        assert d.coeff(1) == Polynomial.one(n)
        assert d.coeff(2) == -Polynomial.variable(n, 1)

    def test_leading_minus(self):
        n = 1
        assert parse_derivation("-d1", n) == -Derivation.partial(n, 1)

    def test_zero_derivation(self):
        assert parse_derivation("0", 2).is_zero()

    def test_repeated_slot_accumulates(self):
        n = 1
        d = parse_derivation("(x1) d1 + (x1) d1", n)
        assert d.coeff(1) == 2 * Polynomial.variable(n, 1)

    def test_missing_direction_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation("x1 + 1", 2)


class TestFormatting:
    def test_canonical_examples(self):
        n = 2
        assert format_derivation(Derivation.partial(n, 1)) == "d1"
        d = parse_derivation("(x1^2) d1 + (-2 x1 x2) d2", n)
        assert format_derivation(d) == "(x1^2) d1 + (-2 x1 x2) d2"
        assert format_derivation(Derivation.zero(n)) == "0"

    def test_one_term_rows(self):
        # one term equal to the denominator prints at once; any other one
        # term keeps its coefficient, through the sum printer; a row and
        # its denominator scaled alike print the same
        for text, n in (("d1", 1), ("(x1 x3^2) d3", 3), ("(2 x1) d2", 2), ("(-x1) d2", 2),
                        ("(1/2) d3", 3), ("(2) d1", 1)):
            d = parse_derivation(text, n)
            assert format_derivation(d) == text
            for scale in (1, 3):
                row = {key: scale * c for key, c in d._terms.items()}
                assert format_row(n, row, scale * d._den) == text

    def test_polynomial_term_order(self):
        n = 2
        f = parse_polynomial("x2 + x1 + x1^2", n)
        assert format_polynomial(f) == "x1^2 + x1 + x2"

    def test_negative_leading_term(self):
        assert format_polynomial(parse_polynomial("-x1 + 1", 1)) == "-x1 + 1"

    def test_roundtrip_corpus(self):
        rng = random.Random(61)
        for _ in range(50):
            n = rng.randint(1, 3)
            d = random_derivation(rng, n, 4)
            assert parse_derivation(format_derivation(d), n) == d
            f = random_polynomial(rng, n, 5)
            assert parse_polynomial(format_polynomial(f), n) == f
        for text, n in [("(x1^2) d2 + (x1+1) d1", 2), ("(1/2 x1 - x2^3) d1", 2),
                        ("d1", 3), ("0", 2), ("(-2 x1 x2) d2 + (x1^2) d1", 2)]:
            d = parse_derivation(text, n)
            assert parse_derivation(format_derivation(d), n) == d


# coefficients of every sign and shape: +-1, integers and rationals
COEFFS = [Fraction(c) for c in (1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-2, 3),
                                                 Fraction(5, 4), Fraction(-7, 6)]


def random_coefficient_polynomial(rng, n):
    """A polynomial that is zero, a constant from COEFFS, or up to 4 terms."""
    kind = rng.randrange(3)
    if kind == 0:
        return Polynomial(n)
    if kind == 1:
        return Polynomial.constant(n, rng.choice(COEFFS))
    return Polynomial(n, {ref.random_exponents(rng, n, 3): rng.choice(COEFFS)
                          for _ in range(rng.randint(1, 4))})


def cases_of(d):
    """The cases of the derivation d that the printers treat apart."""
    cases = {"zero derivation"} if d.is_zero() else set()
    for f in d.coeffs:
        if f.is_zero():
            cases.add("empty slot")
        elif f.is_constant():
            cases.add(f"constant {f.constant_value()}")
        else:
            cases.update("negative rational" if c < 0 else "positive rational"
                         for _, c in f if c.denominator > 1)
    return cases


class TestFormatterOracle:
    """The printers, which work on the packed row, print byte for byte what
    the Fraction printers of kernel_reference print."""

    def test_matches_fraction_reference(self):
        rng = random.Random(18)
        seen = set()
        for n in range(1, 5):
            for _ in range(300):
                coeffs = [random_coefficient_polynomial(rng, n) for _ in range(n)]
                for f in coeffs:
                    assert format_polynomial(f) == ref.format_polynomial(f)
                d = Derivation(n, coeffs)
                assert format_derivation(d) == ref.format_derivation(d)
                seen |= cases_of(d)
        assert seen >= {"zero derivation", "empty slot", "constant 1", "constant -1",
                        "constant 1/2", "constant -7/6", "negative rational",
                        "positive rational"}
