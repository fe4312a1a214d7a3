"""The one-pass parser of `polylie.grammar` against a copy of the
token-list parser it replaced, kept here as the reference.

Valid texts must give the same value, term map and denominator; invalid
ones the same error, message, line and column.  The two errors the
reference never raised are pinned apart: parentheses nested past
`_MAX_NESTING` (a RecursionError there) and a number longer than int()
reads (a bare ValueError there).
"""

import importlib.util
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polylie.canonical import DerivedChainCertificate, derived_chain_witness
from polylie.derivation import Derivation
from polylie.grammar import (_MAX_NESTING, ParseError, format_derivation, format_polynomial,
                             parse_derivation, parse_polynomial)
from polylie.polyring import Polynomial, _check_n, codec

from samplers import random_derivation, random_polynomial

# -- the reference: the token-list parser, as it was ---------------------------

_INT = "int"
_VAR = "var"
_DERIV = "deriv"
_OP = "op"
_EOF = "eof"

# ASCII digits only: str.isdigit() also holds for "²", which int() rejects,
# and for "١", which int() reads as 1
_DIGITS = frozenset("0123456789")


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token(_INT, int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in ("x", "d"):
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError(f"expected an index after '{ch}'", line, start_col)
            kind = _VAR if ch == "x" else _DERIV
            tokens.append(_Token(kind, int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(_OP, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token(_EOF, None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        _check_n(n)
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != _OP or tok.value != op:
            raise self.fail(f"expected {op!r}")
        self.advance()

    def parse_signed_sum(self, parse_term):
        """[+-] term ([+-] term)*, each term read by parse_term."""
        sign = 1
        tok = self.peek()
        if tok.kind == _OP and tok.value in "+-":
            self.advance()
            sign = -1 if tok.value == "-" else 1
        result = parse_term() * sign
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.value in "+-":
                self.advance()
                term = parse_term()
                result = result - term if tok.value == "-" else result + term
            else:
                return result

    # polynomial grammar: sum of products of exponentiated atoms

    def parse_sum(self) -> Polynomial:
        return self.parse_signed_sum(self.parse_product)

    def _at_atom_start(self) -> bool:
        tok = self.peek()
        return tok.kind in (_INT, _VAR) or (tok.kind == _OP and tok.value == "(")

    def parse_product(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.value == "*":
                self.advance()
                result = result * self.parse_factor()
            elif self._at_atom_start():
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        atom = self.parse_atom()
        tok = self.peek()
        if tok.kind == _OP and tok.value == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != _INT:
                raise self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            return atom ** etok.value
        return atom

    def parse_atom(self) -> Polynomial:
        """A literal or a variable, stored straight: the tokenizer reads
        literals as nonnegative ints and this method checks the denominator
        and the variable's range, so the public constructors would only
        check them again."""
        tok = self.peek()
        if tok.kind == _INT:
            self.advance()
            den = 1
            nxt = self.peek()
            if nxt.kind == _OP and nxt.value == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != _INT:
                    raise self.fail("expected an integer denominator")
                if dtok.value == 0:
                    raise self.fail("zero denominator")
                self.advance()
                den = dtok.value
            return Polynomial._from_terms(self.n, {0: tok.value}, den)
        if tok.kind == _VAR:
            if not 1 <= tok.value <= self.n:
                raise self.fail(
                    f"variable x{tok.value} out of range for {self.n} variable(s)")
            self.advance()
            return Polynomial._from_terms(self.n, {codec(self.n).var_units[tok.value - 1]: 1}, 1)
        if tok.kind == _OP and tok.value == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise self.fail("expected a number, variable, or parenthesized expression")

    # derivation grammar: signed sum of coefficient-times-d<i> terms

    def parse_dterm(self) -> Derivation:
        tok = self.peek()
        if tok.kind == _DERIV:
            return self._directional(Polynomial.one(self.n))
        coeff = self.parse_sum()
        if self.peek().kind == _DERIV:
            return self._directional(coeff)
        if coeff.is_zero():
            return Derivation.zero(self.n)
        raise self.fail("expected d<i> after coefficient polynomial")

    def _directional(self, coeff: Polynomial) -> Derivation:
        tok = self.advance()
        if not 1 <= tok.value <= self.n:
            raise ParseError(
                f"derivation index d{tok.value} out of range for {self.n} variable(s)",
                tok.line, tok.column)
        return Derivation.partial(self.n, tok.value) * coeff

    def expect_eof(self) -> None:
        if self.peek().kind != _EOF:
            raise self.fail("unexpected trailing input")


def reference_polynomial(text: str, n: int) -> Polynomial:
    parser = _Parser(text, n)
    result = parser.parse_sum()
    parser.expect_eof()
    return result


def reference_derivation(text: str, n: int) -> Derivation:
    parser = _Parser(text, n)
    result = parser.parse_signed_sum(parser.parse_dterm)
    parser.expect_eof()
    return result


# -- corpora ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def bench_workloads():
    """bench/workloads.py, loaded by path: it imports nothing of polylie."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def random_poly_text(rng, n, depth=0):
    """A polynomial text of every form the grammar reads: literals,
    rationals, x<i>, powers, parentheses, "*" and juxtaposition, signs."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(6 if depth < 2 else 4)
            if kind == 0:
                f = str(rng.randrange(10))
            elif kind == 1:
                f = f"{rng.randrange(10)}/{rng.randint(1, 9)}"
            elif kind < 4:
                f = f"x{rng.randint(1, n)}"
            else:
                f = f"({random_poly_text(rng, n, depth + 1)})"
            if rng.random() < 0.3:
                f += f"^{rng.randrange(4)}"
            factors.append(f)
        terms.append(rng.choice((" ", "*", " * ")).join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", " - ", "+", "-")) + t
    return rng.choice(("", "-", "+ ")) + text


def random_derivation_text(rng, n):
    terms = []
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(1, n)
        kind = rng.randrange(3)
        terms.append(f"d{i}" if kind == 0 else f"({random_poly_text(rng, n)}) d{i}"
                     if kind == 1 else f"{random_poly_text(rng, n)} d{i}")
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", " - ")) + t
    return rng.choice(("", "-")) + text


# characters a mutation inserts: no digit, so no exponent grows past one digit
# but by a deleted separator (texts with a two-digit exponent are skipped)
MUTATION_CHARS = "()+-*/^xd %\n\t\xa0 ²١"


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    c = rng.choice(MUTATION_CHARS)
    return text[:i] + c + text[i + (kind == 1):]


def outcome(parse, text, n):
    """The value's type, term map and denominator, or the error raised."""
    try:
        v = parse(text, n)
    except ParseError as err:
        return "ParseError", str(err), err.line, err.column
    except (ValueError, TypeError) as err:
        return type(err).__name__, str(err)
    return type(v), v.n, v._terms, v._den


def assert_same(text, n, derivation=True):
    new, ref = ((parse_derivation, reference_derivation) if derivation
                else (parse_polynomial, reference_polynomial))
    got = outcome(new, text, n)
    assert got == outcome(ref, text, n), (text, n)
    return got


# -- valid texts --------------------------------------------------------------

class TestSameValues:
    def test_closure_generating_sets(self):
        w = bench_workloads()
        for seed in (42, 977):
            texts = [t for gens in w.closure_sets(seed) for t in gens]
            assert len(texts) == 38
            for text in texts:
                got = assert_same(text, w.CLOSURE_N)
                assert got[0] is Derivation, text
                # the term order too, which every later row walk follows
                assert list(got[2].items()) == list(
                    reference_derivation(text, w.CLOSURE_N)._terms.items())

    def test_certificate_nodes(self):
        for n in range(1, 7):
            cert = derived_chain_witness(n)
            assert isinstance(cert, DerivedChainCertificate)
            for node in cert.nodes:
                assert assert_same(format_derivation(node[0]), n)[0] is Derivation

    def test_printed_random_values(self):
        rng = random.Random(2024)
        for k in range(2000):
            n = k % 4 + 1
            d = random_derivation(rng, n, 4)
            assert assert_same(format_derivation(d), n)[2] == d._terms
            f = random_polynomial(rng, n, 5)
            assert assert_same(format_polynomial(f), n, derivation=False)[2] == f._terms

    def test_random_grammar_texts(self):
        rng = random.Random(7)
        kinds = set()
        for k in range(500):
            n = k % 4 + 1
            kinds.add(assert_same(random_poly_text(rng, n), n, derivation=False)[0])
            kinds.add(assert_same(random_derivation_text(rng, n), n)[0])
        assert kinds == {Polynomial, Derivation}

    @pytest.mark.parametrize("text, derivation", [
        ("(x1+1)^2", False),
        ("(x1)(x1+1) d1", True),
        ("2^3 x1^0 d1", True),
        ("-(x1^2) d1 + d1", True),
        ("- 1/2 x1 + x1", False),
        ("0", True),
        ("0", False),
        ("x1 - x1", True),
        ("x1 - x1", False),
        ("(x1 - x1) d1", True),
        ("x1\xa0+　x1 d1", True),
        ("(x1^2)\n  d1\n+ (2/4 x1)\r\n d1\n", True),
        ("0 x1^9223372036854775807 x1", False),
        ("(x1 - x1) x1^9223372036854775807 x1", False),
        ("x1^9223372036854775807", False),
        ("0^100000000", False),
        ("(-1)^100000001 x1", False),
        ("1/2^3", False),
        ("2*x1*3/4 x1^2 (x1 + 1) x1", False),
        ("(" * _MAX_NESTING + "x1" + ")" * _MAX_NESTING + " d1", True),
    ], ids=lambda v: f"{v[:24]}..." if isinstance(v, str) and len(v) > 32 else None)
    def test_hand_cases(self, text, derivation):
        assert assert_same(text, 1, derivation)[0] in (Polynomial, Derivation)

    def test_regex_whitespace_is_isspace(self):
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = [c for c in chars if c.isspace()]
        assert re.findall(r"\s", chars) == spaces
        for c in spaces:
            assert_same(f"{c}(x1{c}+{c}1){c}d1{c}-{c}x1{c}d1{c}", 1)


# -- invalid texts ------------------------------------------------------------

class TestSameErrors:
    @pytest.mark.parametrize("text, n, derivation", [
        ("x1 + %", 2, False),
        ("(x1^²) d1", 1, True),
        ("x + 1", 2, False),
        ("(x1) d", 2, True),
        ("(x١) d1", 1, True),
        ("(x1 + 1", 2, False),
        ("x1^-2", 2, False),
        ("x1^x2", 2, False),
        ("1/x1", 2, False),
        ("1/0", 1, False),
        ("1/0 d1", 1, True),
        ("x3", 2, False),
        ("x0 d1", 2, True),
        ("x1 + ", 2, False),
        ("()", 2, False),
        ("x1 + - x2", 2, False),
        ("x1 + 1", 2, True),
        ("d3", 2, True),
        ("(x1) d0", 2, True),
        ("x1 )", 2, False),
        ("d1 d2", 2, True),
        ("x1 +\n  %", 1, False),
        ("(x1\n\n d1", 1, True),
        ("x1\r\n)", 1, False),
        ("d1\n", 1, False),
        ("x1^9223372036854775808", 1, False),
        ("x1^18446744073709551616", 1, False),
        ("x2^18446744073709551617 d1", 2, True),
        ("x1^9223372036854775807 x1", 1, False),
        ("(x1^4611686018427387904)(x1^4611686018427387904) d1", 1, True),
        ("x1^4611686018427387904 (x1 + x1^4611686018427387904)", 1, False),
        ("2^5000000", 1, False),
        ("(x1 + 1)^100000 d1", 1, True),
        ("(1/3)^5000000", 1, False),
        ("x1", 0, False),
        ("d1", "1", True),
    ])
    def test_one_text_per_message(self, text, n, derivation):
        assert assert_same(text, n, derivation)[0] in ("ParseError", "ValueError", "TypeError")

    def test_mutated_texts(self):
        rng = random.Random(11)
        seen = set()
        for k in range(1500):
            n = k % 4 + 1
            derivation = bool(k % 2)
            text = (random_derivation_text if derivation else random_poly_text)(rng, n)
            text = mutate(rng, text)
            if re.search(r"\^[0-9]{2}", text):
                continue
            seen.add(assert_same(text, n, derivation)[0])
        assert {"ParseError", Polynomial, Derivation} <= seen


# -- the two errors the reference did not have --------------------------------

# the most digits int() reads; 0 where it reads any number (before 3.10.7, or
# with PYTHONINTMAXSTRDIGITS=0)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not 0 < INT_DIGITS < 4400,
                                       reason="int() here reads a 4400-digit number")

class TestNewErrors:
    def test_nesting_past_the_limit(self):
        text = "(" * (_MAX_NESTING + 1) + "x1" + ")" * (_MAX_NESTING + 1)
        for parse in (parse_polynomial, parse_derivation):
            with pytest.raises(ParseError) as err:
                parse(text + " d1", 1)
            assert str(err.value) == (f"parentheses nested more than {_MAX_NESTING} deep "
                                      f"(line 1, column {_MAX_NESTING + 1})")
        # deep inside a sum, a product and a later line, at the "(" that is too deep
        text = "x1 + 2 (x1) (\n" + "(" * _MAX_NESTING + "x1" + ")" * (_MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 1)
        assert (err.value.line, err.value.column) == (2, _MAX_NESTING)
        with pytest.raises(RecursionError):
            reference_polynomial("(" * 3000 + "x1" + ")" * 3000, 1)

    @pytest.mark.parametrize("text, column", [
        ("1" * 5000, 1),
        ("(x" + "1" * 5000 + ") d1", 2),
        ("x1 + 2/" + "3" * 5000, 8),
        ("d" + "0" * 4400, 1),
    ], ids=["literal", "variable index", "denominator", "derivation index"])
    @needs_digit_limit
    def test_number_longer_than_int_reads(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_derivation(text, 1)
        assert (err.value.line, err.value.column) == (1, column)
        assert re.fullmatch(r"a number of \d+ digits is above the limit of \d+ "
                            rf"\(line 1, column {column}\)", str(err.value))
        with pytest.raises(ValueError) as err:
            reference_derivation(text, 1)
        assert not isinstance(err.value, ParseError)

    @pytest.mark.parametrize("text, column", [
        ("(" * 3000 + "x1" + ")" * 3000, _MAX_NESTING + 1),
        pytest.param("1" * 5000, 1, marks=needs_digit_limit),
    ], ids=["3000 parentheses deep", "5000 digits"])
    def test_cli_exits_two_with_a_position(self, module_env, text, column):
        proc = subprocess.run([sys.executable, "-m", "polylie", "index", text, "--poly",
                               "--n", "1"], capture_output=True, text=True, env=module_env,
                              timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.endswith(f" (line 1, column {column})\n")
        assert "Traceback" not in proc.stderr
