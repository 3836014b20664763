"""Polynomials over the rational function field of the two image variables.

The key object is the reduced basis of the plane-variable ideal over
Q(u1, u2), where u1 and u2 name the two coordinate images. For a map with
algebraically independent images this basis is zero-dimensional; when it is
in shape position it pins down y as a rational expression u/v in the images
and the plane variable, with v depending on the images alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AlgebraicallyDependentError,
    ContextMismatchError,
    InternalInconsistencyError,
    NotShapePositionError,
)
from .groebner import KernelGenerator, RunStats, _cached_tag_basis, kernel_generator
from .poly import U12, U123, XY, Endomorphism, Polynomial, VarContext, poly_gcd, poly_lcm

_ONE = Polynomial.constant(U12, 1)


class RationalFunction:
    """A reduced fraction of polynomials in the (u1, u2) context.

    Invariants: the denominator is nonzero, canonically normalized
    (primitive integer coefficients, positive lex-leading coefficient), and
    shares no factor with the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None):
        if den is None:
            den = Polynomial.constant(num.context, 1)
        if num.context != den.context:
            raise ContextMismatchError("numerator and denominator contexts differ")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial.constant(num.context, 1)
        else:
            g = poly_gcd(num, den)
            if not (g.is_constant() and g.constant_value() == 1):
                num = num.exact_div(g)
                den = den.exact_div(g)
            c, den = den.content_and_primitive()
            num = num * (1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_scalar(cls, context: VarContext, value) -> "RationalFunction":
        return cls(Polynomial.constant(context, value))

    @property
    def context(self) -> VarContext:
        return self.num.context

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.constant(self.context, 1)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _ff_key(e: tuple):
    # lex with y above x on (x, y) exponent pairs
    return (e[1], e[0])


class FFPolynomial:
    """A polynomial in the plane variables with RationalFunction coefficients.

    Terms are compared lex with y above x; that is the order the shape
    basis lives in.
    """

    __slots__ = ("coeff_context", "terms")

    def __init__(self, coeff_context: VarContext, terms: Dict[tuple, RationalFunction]):
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != 2 or any(x < 0 for x in e):
                raise ValueError(f"bad plane exponent {e!r}")
            if c.context != coeff_context:
                raise ContextMismatchError("coefficient context mismatch")
            if c:
                clean[e] = c
        object.__setattr__(self, "coeff_context", coeff_context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FFPolynomial is immutable")

    @classmethod
    def zero(cls, coeff_context: VarContext) -> "FFPolynomial":
        return cls(coeff_context, {})

    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self) -> tuple:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=_ff_key)

    def leading_coefficient(self) -> RationalFunction:
        return self.terms[self.leading_exponent()]

    def degree_in_x(self) -> int:
        return max((e[0] for e in self.terms), default=-1)

    def degree_in_y(self) -> int:
        return max((e[1] for e in self.terms), default=-1)

    def coefficient(self, ex: int, ey: int) -> RationalFunction:
        return self.terms.get(
            (ex, ey), RationalFunction.from_scalar(self.coeff_context, 0)
        )

    def __add__(self, other: "FFPolynomial") -> "FFPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out[e] + c if e in out else c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return FFPolynomial(self.coeff_context, out)

    def __sub__(self, other: "FFPolynomial") -> "FFPolynomial":
        return self + (-other)

    def __neg__(self) -> "FFPolynomial":
        return FFPolynomial(self.coeff_context, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "FFPolynomial") -> "FFPolynomial":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                v = out[e] + c1 * c2 if e in out else c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return FFPolynomial(self.coeff_context, out)

    def scale(self, c: RationalFunction) -> "FFPolynomial":
        if not c:
            return FFPolynomial.zero(self.coeff_context)
        return FFPolynomial(self.coeff_context, {e: v * c for e, v in self.terms.items()})

    def monic(self) -> "FFPolynomial":
        lead = self.leading_coefficient()
        one = RationalFunction.from_scalar(self.coeff_context, 1)
        return self.scale(one / lead)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FFPolynomial):
            return NotImplemented
        return self.coeff_context == other.coeff_context and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.coeff_context, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = []
            if e[0] == 1:
                mono.append("x")
            elif e[0] > 1:
                mono.append(f"x^{e[0]}")
            if e[1] == 1:
                mono.append("y")
            elif e[1] > 1:
                mono.append(f"y^{e[1]}")
            cs = str(c)
            if mono and cs == "1":
                body = "*".join(mono)
            elif mono:
                if len(c.num.terms) > 1 and c.is_polynomial():
                    cs = f"({cs})"
                body = "*".join([cs] + mono)
            else:
                body = cs
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"FFPolynomial({self})"


def _ff_reduce(f: FFPolynomial, reducers: Sequence[FFPolynomial]) -> FFPolynomial:
    """Full normal form of f against monic reducers over the field."""
    ctx = f.coeff_context
    zero = FFPolynomial.zero(ctx)
    leads = [(r.leading_exponent(), r) for r in reducers]
    out: dict = {}
    work = f
    while not work.is_zero():
        e = work.leading_exponent()
        c = work.terms[e]
        hit = None
        for lt, r in leads:
            if e[0] >= lt[0] and e[1] >= lt[1]:
                hit = (lt, r)
                break
        if hit is None:
            out[e] = c
            work = work - FFPolynomial(ctx, {e: c})
            continue
        lt, r = hit
        shift = (e[0] - lt[0], e[1] - lt[1])
        work = work - r.scale(c) * FFPolynomial(
            ctx, {shift: RationalFunction.from_scalar(ctx, 1)}
        )
    return FFPolynomial(ctx, out)


@dataclass(frozen=True)
class ShapeBasis:
    """Reduced basis over Q(u1, u2) in shape position.

    ``g`` is the monic minimal polynomial of x over the image field;
    ``h`` expresses y as a polynomial in x with coefficients in the image
    field: y == h(x) modulo the ideal.
    """

    g: FFPolynomial
    h: FFPolynomial

    @property
    def r(self) -> int:
        return self.g.degree_in_x()


def _contract_tag_basis(basis) -> List[FFPolynomial]:
    """View a (y, x, u1, u2) lex basis over Q(u1, u2), minimal and reduced."""
    raw: List[FFPolynomial] = []
    for b in basis:
        grouped: Dict[tuple, dict] = {}
        for exps, c in b.terms.items():
            ey, ex, e1, e2 = exps
            grouped.setdefault((ex, ey), {})[(e1, e2)] = c
        terms = {
            e: RationalFunction(Polynomial(U12, coeffs)) for e, coeffs in grouped.items()
        }
        raw.append(FFPolynomial(U12, terms))
    raw = [p for p in raw if not p.is_zero()]
    # minimal: drop elements whose leading term is a multiple of another's
    raw.sort(key=lambda p: _ff_key(p.leading_exponent()))
    kept: List[FFPolynomial] = []
    for p in raw:
        e = p.leading_exponent()
        if any(
            e[0] >= q.leading_exponent()[0] and e[1] >= q.leading_exponent()[1]
            for q in kept
        ):
            continue
        kept.append(p.monic())
    # inter-reduce tails
    reduced = []
    for i, p in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(_ff_reduce(p, others))
    return reduced


def shape_basis(f: Endomorphism, *, stats: Optional[RunStats] = None) -> ShapeBasis:
    """The reduced plane-variable basis over the image field, in shape position.

    Raises AlgebraicallyDependentError when the images satisfy a relation
    (the ideal collapses to the whole ring over the field) and
    NotShapePositionError when the basis is not of the form
    {g(x), y - h(x)}.
    """
    stats = stats if stats is not None else RunStats()
    tag = _cached_tag_basis(f, stats)
    elements = _contract_tag_basis(tag)
    for p in elements:
        if p.leading_exponent() == (0, 0):
            raise AlgebraicallyDependentError(
                "the coordinate images are algebraically dependent: the ideal "
                "over their function field is the unit ideal"
            )
    lts = sorted(p.leading_exponent() for p in elements)
    if len(elements) != 2:
        raise NotShapePositionError(
            f"expected a two-element basis, found leading terms {lts}"
        )
    by_lt = {p.leading_exponent(): p for p in elements}
    y_elt = by_lt.get((0, 1))
    x_elt = next((p for e, p in by_lt.items() if e[1] == 0 and e[0] >= 1), None)
    if y_elt is None or x_elt is None:
        raise NotShapePositionError(
            f"basis is not in shape position; leading terms {lts}"
        )
    one = RationalFunction.from_scalar(U12, 1)
    h = FFPolynomial(U12, {(0, 1): one}) - y_elt
    if h.degree_in_y() > 0 or x_elt.degree_in_y() > 0:
        raise NotShapePositionError("basis elements mix the plane variables")
    return ShapeBasis(g=x_elt, h=h)


@dataclass(frozen=True)
class UVDecomposition:
    """The presentation v(u1, u2) * y == u(u1, u2, u3) of the second variable.

    ``u`` substitutes the images for u1, u2 and the first plane variable
    for u3; ``v`` is the least common denominator of the shape expression
    for y, canonically normalized. ``r`` is the degree of the minimal
    polynomial ``g`` of x over the image field.
    """

    u: Polynomial
    v: Polynomial
    g: FFPolynomial
    r: int


def uv_decomposition(
    f: Endomorphism,
    *,
    kernel: Optional[KernelGenerator] = None,
    stats: Optional[RunStats] = None,
) -> UVDecomposition:
    """Split y into a numerator over a denominator in the images.

    The construction cross-checks itself against the kernel relation: the
    degree r must match, the cleared minimal polynomial must equal the
    kernel generator, and v(p, q) * y - u(p, q, x) must vanish identically.
    """
    stats = stats if stats is not None else RunStats()
    sb = shape_basis(f, stats=stats)
    k = kernel if kernel is not None else kernel_generator(f, stats=stats)

    v = Polynomial.constant(U12, 1)
    for c in sb.h.terms.values():
        v = poly_lcm(v, c.den)
    v = v.normalized()
    u = Polynomial.zero(U123)
    u3 = Polynomial.variable(U123, "u3")
    rf_v = RationalFunction(v)
    for (ex, _ey), c in sb.h.terms.items():
        scaled = c * rf_v
        if not scaled.is_polynomial():
            raise InternalInconsistencyError(
                "least common denominator failed to clear a coefficient"
            )
        u = u + scaled.num.reindex(U123) * u3**ex

    if sb.r != k.r:
        raise InternalInconsistencyError(
            f"shape degree {sb.r} disagrees with the kernel degree {k.r}"
        )
    cleared = Polynomial.zero(U123)
    dg = Polynomial.constant(U12, 1)
    for c in sb.g.terms.values():
        dg = poly_lcm(dg, c.den)
    for (ex, _ey), c in sb.g.terms.items():
        scaled = c * RationalFunction(dg)
        if not scaled.is_polynomial():
            raise InternalInconsistencyError(
                "least common denominator failed to clear the minimal polynomial"
            )
        cleared = cleared + scaled.num.reindex(U123) * u3**ex
    if cleared.normalized() != k.generator.normalized():
        raise InternalInconsistencyError(
            "the cleared minimal polynomial disagrees with the kernel generator"
        )

    xname, yname = f.context.names
    xv = Polynomial.variable(f.context, xname)
    yv = Polynomial.variable(f.context, yname)
    v_img = v.substitute({"u1": f.p, "u2": f.q})
    u_img = u.substitute({"u1": f.p, "u2": f.q, "u3": xv})
    if not (v_img * yv - u_img).is_zero():
        raise InternalInconsistencyError(
            "v(p, q) * y - u(p, q, x) does not vanish"
        )
    return UVDecomposition(u=u, v=v, g=sb.g, r=sb.r)
