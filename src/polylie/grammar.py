"""Text syntax for polynomials and derivations.

Polynomials: variables x1..xn, integer and rational literals like 3 or 1/2,
operators + - * ^, parentheses, and implicit multiplication by juxtaposition
("2 x1 x2^3").  Exponentiation binds tightest and exponents are nonnegative
integer literals.

Derivations: a sum of terms "(poly) d<i>" or bare "d<i>", e.g.
"(x1^2) d2 + (x1+1) d1"; "0" denotes the zero derivation.  Whitespace is
insignificant everywhere.

`format_polynomial` / `format_derivation` (defined next to their types and
re-exported here) emit canonical text that parses back to the same value.
"""

from __future__ import annotations

from fractions import Fraction

from .derivation import Derivation, format_derivation
from .polyring import Polynomial, format_polynomial

__all__ = [
    "ParseError",
    "parse_polynomial",
    "parse_derivation",
    "format_polynomial",
    "format_derivation",
]

_INT = "int"
_VAR = "var"
_DERIV = "deriv"
_OP = "op"
_EOF = "eof"


class ParseError(ValueError):
    """Syntax or range error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token(_INT, int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in ("x", "d"):
            j = i + 1
            while j < len(text) and text[j].isdigit():
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
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
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
        tok = self.peek()
        if tok.kind == _INT:
            self.advance()
            value = Fraction(tok.value)
            nxt = self.peek()
            if nxt.kind == _OP and nxt.value == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != _INT:
                    raise self.fail("expected an integer denominator")
                if dtok.value == 0:
                    raise self.fail("zero denominator")
                self.advance()
                value /= dtok.value
            return Polynomial.constant(self.n, value)
        if tok.kind == _VAR:
            if not 1 <= tok.value <= self.n:
                raise self.fail(
                    f"variable x{tok.value} out of range for {self.n} variable(s)")
            self.advance()
            return Polynomial.variable(self.n, tok.value)
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
        coeffs = [Polynomial.zero(self.n)] * self.n
        coeffs[tok.value - 1] = coeff
        return Derivation(self.n, coeffs)

    def expect_eof(self) -> None:
        if self.peek().kind != _EOF:
            raise self.fail("unexpected trailing input")


def parse_polynomial(text: str, n: int) -> Polynomial:
    parser = _Parser(text, n)
    result = parser.parse_sum()
    parser.expect_eof()
    return result


def parse_derivation(text: str, n: int) -> Derivation:
    parser = _Parser(text, n)
    result = parser.parse_signed_sum(parser.parse_dterm)
    parser.expect_eof()
    return result
