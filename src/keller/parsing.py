"""Expression parsing for polynomial input.

Grammar (whitespace insensitive):

    expr     := term (('+' | '-') term)*
    term     := factor ('*'? factor)*          juxtaposition multiplies
    factor   := atom ('^' NAT)?
    atom     := RATIONAL | VAR | '(' expr ')' | '-' atom
    RATIONAL := INT ('/' POSINT)?

Exponents must be natural numbers; '/' only forms rational constants, it
is not a general division operator. Digits are ASCII 0-9. The text is
split into tokens and then evaluated in one recursive-descent pass over
a declared variable context: a term stays a coefficient and an exponent
list while its factors are constants, variables and powers of those; a
parenthesized factor makes it a Polynomial product; an expression sums
its terms into one term map. Errors are raised where they are met, so a
bad character anywhere comes first, then the first syntax error or
unknown variable in reading order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import List, Tuple

from .errors import ParseError, UnknownVariableError
from .poly import Polynomial, VarContext

# an ASCII digit run, a word, or any other non-space character
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
_OPS = "+-*^()/"

Token = Tuple[str, str, int]  # kind ("num", "name", "end" or the operator), text, position


def _tokenize(text: str) -> List[Token]:
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        ch = tok[0]
        if "0" <= ch <= "9":
            out.append(("num", tok, m.start()))
        elif ch.isalpha():
            out.append(("name", tok, m.start()))
        elif ch in _OPS:
            out.append((ch, ch, m.start()))
        else:
            raise ParseError(f"unexpected character {ch!r}", m.start())
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, context: VarContext):
        self.context = context
        self.index = {name: i for i, name in enumerate(context.names)}
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> dict:
        """The terms of an expression, summed in reading order."""
        terms: dict = {}
        coeff = 1
        while True:
            for e, c in self.term(coeff):
                v = terms.get(e, 0) + c
                if v:
                    terms[e] = v
                else:
                    del terms[e]
            kind = self.tokens[self.i][0]
            if kind == "+":
                coeff = 1
            elif kind == "-":
                coeff = -1
            else:
                return terms
            self.i += 1

    def term(self, coeff):
        """The (exponents, coefficient) pairs of one term, its sign in coeff."""
        exps = [0] * self.context.arity
        poly = None
        while True:
            coeff, poly = self.factor(coeff, exps, poly)
            kind = self.tokens[self.i][0]
            if kind == "*":
                self.i += 1
            elif kind not in ("num", "name", "("):
                break
        if not coeff:
            return ()
        if poly is None:
            return ((tuple(exps), coeff),)
        return [(tuple(map(add, e, exps)), c * coeff) for e, c in poly.terms.items()]

    def factor(self, coeff, exps: List[int], poly):
        """Multiply one factor into the term coeff * x^exps * poly."""
        kind, text, pos = self.take()
        # unary minus binds looser than '^', so -x^2 means -(x^2)
        while kind == "-":
            coeff = -coeff
            kind, text, pos = self.take()
        if kind == "num":
            value = self.rational(int(text))
            return coeff * value ** self.exponent(), poly
        if kind == "name":
            i = self.index.get(text)
            if i is None:
                raise UnknownVariableError(
                    f"unknown variable {text!r}; expected one of {', '.join(self.context.names)}"
                )
            exps[i] += self.exponent()
            return coeff, poly
        if kind == "(":
            inner = _polynomial(self.context, self.expr())
            kind, text, pos = self.take()
            if kind != ")":
                raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)
            e = self.exponent()
            if e != 1:
                inner = inner ** e
            return coeff, inner if poly is None else poly * inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {text!r}", pos)

    def rational(self, num: int):
        if self.tokens[self.i][0] != "/":
            return num
        kind, text, pos = self.tokens[self.i + 1]
        if kind == "-":
            raise ParseError("the denominator must be positive", pos)
        if kind != "num":
            raise ParseError("expected a denominator", pos)
        self.i += 2
        den = int(text)
        if not den:
            raise ParseError("the denominator must be positive", pos)
        return Fraction(num, den)

    def exponent(self) -> int:
        if self.tokens[self.i][0] != "^":
            return 1
        kind, text, pos = self.tokens[self.i + 1]
        if kind == "-":
            raise ParseError("negative exponents are not allowed", pos)
        if kind != "num":
            raise ParseError("the exponent must be a natural number", pos)
        self.i += 2
        kind, _, pos = self.tokens[self.i]
        if kind == "/":
            raise ParseError("fractional exponents are not allowed", pos)
        return int(text)


def _polynomial(context: VarContext, terms: dict) -> Polynomial:
    """A term map whose coefficients are ints or Fractions as a Polynomial."""
    return Polynomial._raw(context, {e: Fraction(c) for e, c in terms.items()})


def parse_poly(text: str, context: VarContext) -> Polynomial:
    """Parse text into an exact polynomial over the given variables."""
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text, context)
    terms = parser.expr()
    kind, tok, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected {tok!r}", pos)
    return _polynomial(context, terms)
