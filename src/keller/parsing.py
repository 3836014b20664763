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

Caps keep a short text from stalling a run or exhausting the stack, each
checked before the work it bounds and each a parse error:

- parentheses nest at most ``MAX_NESTING`` deep;
- a power whose expanded degree would pass ``MAX_EXPANDED_DEGREE`` is
  refused at its '^', a product of parenthesized factors at the '(' that
  takes it past that degree;
- a power whose coefficients could pass ``MAX_POWER_BITS`` bits, a power
  of a constant included, is refused at its '^';
- expanding the parenthesized factors of one text may take at most
  ``MAX_TERM_PRODUCTS`` products of two terms, counted exactly for a
  product and bounded from above for a power; the power or product that
  would pass it is refused at its '^' or '(';
- numerals, term coefficients, sums of like terms and products of
  parenthesized factors (numerators and common denominator) stay within
  ``groebner.MAX_COEFF_BITS`` bits, refused at the numeral, factor, term or
  '(' that passes it; a numeral is refused by its length before ``int()``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, log2
from operator import add
from typing import List, Tuple

from .errors import ParseError, UnknownVariableError
from .groebner import MAX_COEFF_BITS
from .poly import Polynomial, VarContext

# an ASCII digit run, a word, or any other non-space character
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
_OPS = "+-*^()/"

Token = Tuple[str, str, int]  # kind ("num", "name", "end" or the operator), text, position

# the descent takes three frames per level, well inside Python's default
# recursion limit of 1000 at this depth
MAX_NESTING = 100
# ladder images reach degree 108; (x + y)^1000 already takes 0.1 to 0.3 s
MAX_EXPANDED_DEGREE = 1000
# a bound on log2 of numerator times denominator: 2^1024 passes, 3^647 does
# not; (x + y)^1000 has coefficients of at most 996 bits
MAX_POWER_BITS = 1024
# the bound is 0.42 million for (x + y)^1000 and 1.9 million for
# (x + y + 1)^100, which take 0.1 to 0.7 s
MAX_TERM_PRODUCTS = 2_000_000
# the digits of 2**MAX_COEFF_BITS: a numeral with fewer is below it
_MAX_DIGITS = len(str(1 << MAX_COEFF_BITS))


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
        self.depth = 0
        self.products = 0

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> dict:
        """The terms of an expression, summed in reading order."""
        terms: dict = {}
        coeff = 1
        while True:
            pos = self.tokens[self.i][2]
            for e, c in self.term(coeff):
                v = terms.get(e, 0) + c
                if v:
                    self.check_coeff(v, pos)
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
        scale = Fraction(coeff, poly.den) if poly.den != 1 else coeff
        return [(tuple(map(add, e, exps)), c * scale) for e, c in poly.num.items()]

    def factor(self, coeff, exps: List[int], poly):
        """Multiply one factor into the term coeff * x^exps * poly."""
        kind, text, pos = self.take()
        # unary minus binds looser than '^', so -x^2 means -(x^2)
        while kind == "-":
            coeff = -coeff
            kind, text, pos = self.take()
        if kind == "num":
            value = self.rational(self.numeral(text, pos))
            caret = self.tokens[self.i][2]
            e = self.exponent(0)
            if e != 1:
                self.check_bits(abs(value.numerator), value.denominator, e, caret)
            # a numeral and its powers are within the cap, a product may not be
            unit = coeff in (1, -1)
            coeff *= value**e
            if not unit:
                self.check_coeff(coeff, pos)
            return coeff, poly
        if kind == "name":
            i = self.index.get(text)
            if i is None:
                raise UnknownVariableError(
                    f"unknown variable {text!r}; expected one of {', '.join(self.context.names)}"
                )
            exps[i] += self.exponent(1)
            return coeff, poly
        if kind == "(":
            start = pos
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = Polynomial._from_coeffs(self.context, self.expr())
            self.depth -= 1
            kind, text, pos = self.take()
            if kind != ")":
                raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)
            caret = self.tokens[self.i][2]
            e = self.exponent(inner.total_degree())
            if e != 1:
                self.charge(_power_products(inner, e), caret)
                self.check_bits(sum(map(abs, inner.num.values())), inner.den, e, caret)
                inner = inner**e
            if poly is None:
                return coeff, inner
            degree = poly.total_degree() + inner.total_degree()
            if degree > MAX_EXPANDED_DEGREE:
                raise ParseError(
                    f"the product has degree {degree}, above the cap of {MAX_EXPANDED_DEGREE}",
                    start,
                )
            self.charge(len(poly) * len(inner), start)
            poly = poly * inner
            self.check_coeff(max(poly.den, *map(abs, poly.num.values())), start)
            return coeff, poly
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
        den = self.numeral(text, pos)
        if not den:
            raise ParseError("the denominator must be positive", pos)
        return Fraction(num, den)

    def exponent(self, degree: int) -> int:
        """The exponent after a base of the given total degree, 1 if none."""
        if self.tokens[self.i][0] != "^":
            return 1
        caret = self.tokens[self.i][2]
        kind, text, pos = self.tokens[self.i + 1]
        if kind == "-":
            raise ParseError("negative exponents are not allowed", pos)
        if kind != "num":
            raise ParseError("the exponent must be a natural number", pos)
        self.i += 2
        e = self.numeral(text, pos)
        kind, _, pos = self.tokens[self.i]
        if kind == "/":
            raise ParseError("fractional exponents are not allowed", pos)
        if degree * e > MAX_EXPANDED_DEGREE:
            raise ParseError(
                f"the power has degree {degree * e}, above the cap of {MAX_EXPANDED_DEGREE}",
                caret,
            )
        return e

    def numeral(self, text: str, pos: int) -> int:
        """An ASCII digit run as an int, refused before ``int()`` when it has
        more significant digits than a MAX_COEFF_BITS-bit number can have."""
        if len(text) < _MAX_DIGITS:
            return int(text)
        digits = text.lstrip("0") or "0"
        if len(digits) > _MAX_DIGITS:
            raise ParseError(
                f"a numeral of {len(digits)} digits is above the cap of {MAX_COEFF_BITS} bits",
                pos,
            )
        value = int(digits)
        self.check_coeff(value, pos)
        return value

    def check_coeff(self, c, pos: int) -> None:
        """Refuse an int or Fraction with a numerator or denominator above
        MAX_COEFF_BITS bits."""
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"a coefficient of {bits} bits is above the cap of {MAX_COEFF_BITS} bits",
                pos,
            )

    def check_bits(self, norm: int, den: int, e: int, pos: int) -> None:
        """Refuse the power e of a base Q / den whose coefficients could pass
        MAX_POWER_BITS bits (numerator plus denominator), Q with integer
        coefficients of l1 norm ``norm``: each coefficient of Q^e is at most
        norm^e."""
        bits = e * (log2(norm) + log2(den)) if norm else 0.0
        if bits > MAX_POWER_BITS:
            raise ParseError(
                f"the power has coefficients of up to {int(bits) + 1} bits, "
                f"above the cap of {MAX_POWER_BITS}",
                pos,
            )

    def charge(self, products: int, pos: int) -> None:
        """Add term products to the text's expansion work, refused past the cap."""
        self.products += products
        if self.products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expanding the parentheses takes over {MAX_TERM_PRODUCTS} term products",
                pos,
            )


def _power_products(base: Polynomial, e: int) -> int:
    """An upper bound on the term products of ``base ** e``.

    Follows the square-and-multiply loop of ``Polynomial.__pow__``; base^k
    has at most C(k + m - 1, m - 1) terms for m terms in the base, and at
    most C(k d + n, n), the monomials of degree k d or less in the n
    variables it uses.
    """
    m, d = len(base), base.total_degree()
    if not m:
        return 0
    n = sum(map(any, zip(*base.num)))

    def size(k: int) -> int:
        return min(comb(k + m - 1, m - 1), comb(k * d + n, n))

    total, result, power = 0, 0, 1
    while e:
        if e & 1:
            total += size(result) * size(power)
            result += power
        e >>= 1
        if e:
            total += size(power) ** 2
            power *= 2
    return total


def parse_poly(text: str, context: VarContext) -> Polynomial:
    """Parse text into an exact polynomial over the given variables."""
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text, context)
    terms = parser.expr()
    kind, tok, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected {tok!r}", pos)
    return Polynomial._from_coeffs(context, terms)
