"""Expression parsing for polynomial input.

Grammar (whitespace insensitive):

    expr     := term (('+' | '-') term)*
    term     := factor ('*'? factor)*          juxtaposition multiplies
    factor   := atom ('^' NAT)?
    atom     := RATIONAL | VAR | '(' expr ')' | '-' atom
    RATIONAL := INT ('/' POSINT)?

Exponents must be natural numbers; '/' only forms rational constants, it
is not a general division operator. Parsing yields a small AST which is
then evaluated into an exact Polynomial over a declared variable context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import ParseError, UnknownVariableError
from .poly import Polynomial, VarContext


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    items: Tuple["Node", ...]


@dataclass(frozen=True)
class Prod:
    items: Tuple["Node", ...]


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    item: "Node"


Node = Union[Const, Var, Sum, Prod, Pow, Neg]


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*^()/")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", or the operator character itself
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return _Token("end", "", len(self.text))

    def take(self) -> _Token:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        items = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            t = self.term()
            items.append(Neg(t) if op.kind == "-" else t)
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def term(self) -> Node:
        items = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.take()
                items.append(self.factor())
            elif tok.kind in ("num", "name", "("):
                items.append(self.factor())
            else:
                break
        return items[0] if len(items) == 1 else Prod(tuple(items))

    def factor(self) -> Node:
        # unary minus binds looser than '^', so -x^2 means -(x^2)
        if self.peek().kind == "-":
            self.take()
            return Neg(self.factor())
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.take()
        tok = self.peek()
        if tok.kind == "-":
            raise ParseError("negative exponents are not allowed", tok.pos)
        if tok.kind != "num":
            raise ParseError("the exponent must be a natural number", tok.pos)
        self.take()
        after = self.peek()
        if after.kind == "/":
            raise ParseError("fractional exponents are not allowed", after.pos)
        return Pow(base, int(tok.text))

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "num":
            num = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den_tok = self.peek()
                if den_tok.kind == "-":
                    raise ParseError("the denominator must be positive", den_tok.pos)
                if den_tok.kind != "num":
                    raise ParseError("expected a denominator", den_tok.pos)
                self.take()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("the denominator must be positive", den_tok.pos)
                return Const(Fraction(num, den))
            return Const(Fraction(num))
        if tok.kind == "name":
            return Var(tok.text)
        if tok.kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def parse_expression(text: str) -> Node:
    """Parse text into an AST without binding variables to a context."""
    return _Parser(text).parse()


def _monomial(items: Tuple[Node, ...], context: VarContext):
    """A product of constants, variables and powers of variables as one
    term; None when any factor is something else or an unknown variable."""
    coeff = Fraction(1)
    exps = [0] * context.arity
    for item in items:
        if isinstance(item, Const):
            coeff *= item.value
            continue
        e = 1
        if isinstance(item, Pow):
            item, e = item.base, item.exponent
        if not isinstance(item, Var) or item.name not in context.names:
            return None
        exps[context.index(item.name)] += e
    return Polynomial.monomial(context, tuple(exps), coeff)


def _evaluate(node: Node, context: VarContext) -> Polynomial:
    if isinstance(node, Const):
        return Polynomial.constant(context, node.value)
    if isinstance(node, Var):
        if node.name not in context.names:
            raise UnknownVariableError(
                f"unknown variable {node.name!r}; expected one of {', '.join(context.names)}"
            )
        return Polynomial.variable(context, node.name)
    if isinstance(node, Sum):
        acc = Polynomial.zero(context)
        for item in node.items:
            acc = acc + _evaluate(item, context)
        return acc
    if isinstance(node, Prod):
        term = _monomial(node.items, context)
        if term is not None:
            return term
        acc = Polynomial.constant(context, 1)
        for item in node.items:
            acc = acc * _evaluate(item, context)
        return acc
    if isinstance(node, Pow):
        return _evaluate(node.base, context) ** node.exponent
    if isinstance(node, Neg):
        return -_evaluate(node.item, context)
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(text: str, context: VarContext) -> Polynomial:
    """Parse text into an exact polynomial over the given variables."""
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    return _evaluate(parse_expression(text), context)
