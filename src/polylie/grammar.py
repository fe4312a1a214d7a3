"""Text syntax for polynomials and derivations.

Polynomials: variables x1..xn, integer and rational literals like 3 or 1/2,
operators + - * ^, parentheses, and implicit multiplication by juxtaposition
("2 x1 x2^3").  Exponentiation binds tightest and exponents are nonnegative
integer literals.  Literals and the indices of x<i> and d<i> are written in
ASCII digits only, no more of them than int() reads (4300 by default).
Parentheses nest at most `_MAX_NESTING` = 100 deep.  A deeper "(" or a
longer number is a ParseError at it.

Derivations: a sum of terms "(poly) d<i>" or bare "d<i>", e.g.
"(x1^2) d2 + (x1+1) d1"; "0" denotes the zero derivation.  Whitespace is
insignificant everywhere.

Two compiled regexes read the text: `_INVALID` finds its first character
that no token holds, and `_TOKEN` splits the rest into token strings.  Only
a ParseError finds its token's offset again and turns it into a line and
column.  The parser reads the tokens once: a product of atoms (a literal, a
rational or x<i>, each perhaps ^k) is one term (num, den, key) of int
operations, and only a parenthesized factor of a longer product, or its
power, goes through Polynomial * and **.  A "(p) d<i>" term moves p's keys
to slot i, and a signed sum collects its terms' (key, (num, den)) items,
repeated keys too, for one `polyring._over_lcm` and one reduction.

`format_polynomial` / `format_derivation` (defined next to their types and
re-exported here) emit canonical text that parses back to the same value.
"""

from __future__ import annotations

import re
import sys
from itertools import islice

from .derivation import Derivation, format_derivation
from .polyring import (EXPONENT_LIMIT, Polynomial, _check_n, _limit_error, _over_lcm, codec,
                       format_polynomial)

__all__ = ["ParseError", "parse_polynomial", "parse_derivation", "format_polynomial",
           "format_derivation"]

# Each nesting level is a few Python frames: a deeper "(" is a ParseError,
# so the interpreter's recursion limit never ends a parse.
_MAX_NESTING = 100

# The first character no token can start, or an x or d without an index.
# [0-9], not \d: \d and str.isdigit() also hold for "²", which int()
# rejects, and for "١", which int() reads as 1.  \s is str.isspace().
_INVALID = re.compile(r"[xd](?![0-9])|[^\s0-9xd()+\-*/^]")
# The tokens of a text with nothing invalid: all but its whitespace.
_TOKEN = re.compile(r"[0-9]+|[xd][0-9]+|[-+*/^()]")
_ATOM_START = frozenset("0123456789x(")
_SIGNS = {"+": 1, "-": -1}


class ParseError(ValueError):
    """Syntax or range error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at text[offset], its line and column counted here."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str, n: int):
        _check_n(n)
        bad = _INVALID.search(text)
        if bad:
            c = bad.group()
            raise _error(f"expected an index after '{c}'" if c in "xd" else
                         f"unexpected character {c!r}", text, bad.start())
        self.tokens = _TOKEN.findall(text) + [""]  # "" is the end of the text
        c = codec(n)
        self.text, self.n = text, n
        self.units, self.guard, self.slot_shift = c.var_units, c.guard, c.slot_shift
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at token pos, by default the next one."""
        m = next(islice(_TOKEN.finditer(self.text), self.pos if pos is None else pos, None), None)
        return _error(message, self.text, len(self.text) if m is None else m.start())

    def number(self, digits: str, pos: int) -> int:
        """int(digits), of token pos."""
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.fail(f"a number of {len(digits)} digits is above the limit of "
                            f"{sys.get_int_max_str_digits()}", pos) from None

    def polynomial(self, items: list) -> Polynomial:
        return Polynomial._from_terms(self.n, *_over_lcm(items))

    def parse_signed_sum(self, parse_term) -> list:
        """[+-] term ([+-] term)*: the items of every term, each read into
        one list by parse_term(items, sign)."""
        items: list = []
        sign = _SIGNS.get(self.tokens[self.pos])
        if sign:
            self.pos += 1
        parse_term(items, sign or 1)
        while sign := _SIGNS.get(self.tokens[self.pos]):
            self.pos += 1
            parse_term(items, sign)
        return items

    # polynomial grammar: sum of products of exponentiated atoms

    def next_factor(self) -> bool:
        """Whether a factor follows, after reading a "*" before it."""
        tok = self.tokens[self.pos]
        if tok == "*":
            self.pos += 1
            return True
        return tok[:1] in _ATOM_START

    def parse_product(self, items: list, sign: int) -> None:
        """Append sign * (factor ([*] factor)*) to items, multiplied left to
        right: the atoms into one term, and from a parenthesized factor on as
        Polynomials, so the 2^63 guard raises just where Polynomial * does."""
        factor = self.parse_factor()
        more = self.next_factor()
        if not more and type(factor) is list:  # a lone "(sum)"
            items += factor if sign == 1 else [(k, (-num, den)) for k, (num, den) in factor]
            return
        num, den, key, poly = sign, 1, 0, None
        while True:
            if type(factor) is tuple:
                fnum, fden, fkey = factor
                if poly is not None:
                    poly = poly * Polynomial._from_terms(self.n, {fkey: fnum}, fden)
                elif num:  # a zero product stays zero, unchecked
                    num, den, key = num * fnum, den * fden, key + fkey
                    if key & self.guard:
                        raise _limit_error()
            else:
                if poly is None:
                    poly = Polynomial._from_terms(self.n, {key: num}, den)
                poly = poly * (self.polynomial(factor) if type(factor) is list else factor)
            if not more:
                break
            factor = self.parse_factor()
            more = self.next_factor()
        if poly is None:
            items.append((key, (num, den)))
        else:
            items += [(k, (c, poly._den)) for k, c in poly._terms.items()]

    def integer(self, message: str) -> int:
        """The integer literal read next; a ParseError with message if none is."""
        tok = self.tokens[self.pos]
        if not tok.isdigit():
            raise self.fail(message)
        self.pos += 1
        return self.number(tok, self.pos - 1)

    def parse_factor(self) -> tuple | list | Polynomial:
        """An atom and its power: (num, den, key) for a literal, a rational
        or x<i>; the items of a parenthesized sum; a Polynomial for its power."""
        pos = self.pos
        tok = self.tokens[pos]
        self.pos += 1
        if tok[:1] == "x":
            i = self.number(tok[1:], pos)
            if not 1 <= i <= self.n:
                raise self.fail(f"variable x{i} out of range for {self.n} variable(s)", pos)
            factor = 1, 1, self.units[i - 1]
        elif tok.isdigit():
            den = 1
            if self.tokens[self.pos] == "/":
                self.pos += 1
                den = self.integer("expected an integer denominator")
                if den == 0:
                    raise self.fail("zero denominator", self.pos - 1)
            factor = self.number(tok, pos), den, 0
        elif tok == "(":
            if self.depth == _MAX_NESTING:
                raise self.fail(f"parentheses nested more than {_MAX_NESTING} deep", pos)
            self.depth += 1
            factor = self.parse_signed_sum(self.parse_product)
            self.depth -= 1
            if self.tokens[self.pos] != ")":
                raise self.fail("expected ')'")
            self.pos += 1
        else:
            raise self.fail("expected a number, variable, or parenthesized expression", pos)
        if self.tokens[self.pos] != "^":
            return factor
        self.pos += 1
        k = self.integer("exponent must be a nonnegative integer literal")
        if type(factor) is list:
            return self.polynomial(factor) ** k
        num, den, key = factor
        if key:  # x<i>^k
            if k >= EXPONENT_LIMIT:
                raise _limit_error()
            return 1, 1, key * k
        # Polynomial.__pow__ holds the POWER_BITS_LIMIT check
        p = Polynomial._from_terms(self.n, {0: num}, den) ** k
        return p._terms.get(0, 0), p._den, 0

    # derivation grammar: signed sum of coefficient-times-d<i> terms

    def parse_dterm(self, items: list, sign: int) -> None:
        """Append sign * ((p) d<i> | d<i>) to items, p's keys moved to slot
        i; a zero p without d<i> appends nothing."""
        if self.tokens[self.pos][:1] == "d":
            coeff = [(0, (1, 1))]
        else:
            coeff = self.parse_signed_sum(self.parse_product)
            if self.tokens[self.pos][:1] != "d":
                if any(_over_lcm(coeff)[0].values()):
                    raise self.fail("expected d<i> after coefficient polynomial")
                return
        pos = self.pos
        self.pos += 1
        i = self.number(self.tokens[pos][1:], pos)
        if not 1 <= i <= self.n:
            raise self.fail(f"derivation index d{i} out of range for {self.n} variable(s)", pos)
        base = i << self.slot_shift
        items += [(base + k, (sign * num, den)) for k, (num, den) in coeff]

    def parse_all(self, parse_term) -> list:
        """The items of the whole text, a signed sum of parse_term's terms."""
        items = self.parse_signed_sum(parse_term)
        if self.tokens[self.pos]:
            raise self.fail("unexpected trailing input")
        return items


def parse_polynomial(text: str, n: int) -> Polynomial:
    parser = _Parser(text, n)
    return parser.polynomial(parser.parse_all(parser.parse_product))


def parse_derivation(text: str, n: int) -> Derivation:
    parser = _Parser(text, n)
    return Derivation._from_terms(n, *_over_lcm(parser.parse_all(parser.parse_dterm)))
