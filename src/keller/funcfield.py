"""The presentation y = u / v over the field of the two image variables.

Let K = Q(u1, u2), where u1 and u2 name the two coordinate images p and q.
The shape basis is read off the cached lex basis of the tag ideal
(u1 - p, u2 - q) with y > x > u1 > u2 as ``groebner.tag_basis_by_lead``
hands it over: each element keyed by its (x, y)-lead, with coefficients in
Q[u1, u2]. Only ``Polynomial`` arithmetic is used, and it is exact for the
following reasons.

- The order is a block order with the plane variables above the image
  variables, so the basis stays a Groebner basis of the extended ideal in
  K[x, y] (Gianni, Trager and Zacharias, 1988). Its minimal (x, y)-leading
  monomials are those of the reduced basis over K. They are {1} exactly
  when p and q are algebraically dependent. The basis is in shape position
  {g(x), y - h(x)} exactly when they are {y, x^r}.
- An element G whose (x, y)-lead is x^r involves no y, so G / lc_x(G) is
  the monic g. Its primitive part in x is g cleared of denominators, which
  is the kernel generator H up to normalization.
- An element whose (x, y)-lead is y reads c(u) * y + A(x, u). One exact
  pseudo-division gives lc_x(G)^e * A = Q * G + R with deg_x R < r, so
  y = -R / D modulo the ideal over K, where D = c * lc_x(G)^e.
- For each coefficient R_k, the reduced denominator of R_k / D is
  D / gcd(D, R_k). In a UFD the lcm of these is D / d, where
  d = gcd(D, R_0, ..., R_{r-1}). So v = D / d and u = -R / d, both scaled
  by one constant so that v is canonically normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional

from .errors import (
    AlgebraicallyDependentError,
    InternalInconsistencyError,
    NotShapePositionError,
)
from .groebner import KernelGenerator, RunStats, kernel_generator, tag_basis_by_lead
from .poly import U12, U123, Endomorphism, Polynomial, poly_gcd


@dataclass(frozen=True)
class UVDecomposition:
    """The presentation v(u1, u2) * y == u(u1, u2, u3) of the second variable.

    ``u`` substitutes the images for u1, u2 and the first plane variable
    for u3; ``v`` is the least common denominator of the shape expression
    for y, canonically normalized. ``g`` is the minimal polynomial of x
    over the image field, cleared of denominators and canonically
    normalized, in the same context as ``u``; ``r`` is its degree in u3.
    """

    u: Polynomial
    v: Polynomial
    g: Polynomial
    r: int


def _in_u3(coeffs: Dict[int, Polynomial]) -> Polynomial:
    """sum coeffs[k] * u3^k, for coefficients in the (u1, u2) context."""
    den = math.lcm(*[p.den for p in coeffs.values()])
    num = {(*e, k): n * den // p.den for k, p in coeffs.items() for e, n in p.num.items()}
    # each coefficient is in lowest terms, so no factor of den divides all of num
    return Polynomial._raw(U123, num, den)


def shape_basis(f: Endomorphism, *, stats: Optional[RunStats] = None) -> UVDecomposition:
    """The shape basis over the image field, as an unchecked UVDecomposition.

    Raises AlgebraicallyDependentError when the images satisfy a relation
    (the ideal collapses to the whole ring over the field) and
    NotShapePositionError when the basis is not of the form
    {g(x), y - h(x)}.
    """
    elements = tag_basis_by_lead(f, stats)
    if (0, 0) in elements:
        raise AlgebraicallyDependentError(
            "the coordinate images are algebraically dependent: the ideal "
            "over their function field is the unit ideal"
        )
    lts = sorted(
        e for e in elements
        if not any(o != e and o[0] <= e[0] and o[1] <= e[1] for o in elements)
    )
    if len(lts) != 2:
        raise NotShapePositionError(
            f"expected a two-element basis, found leading terms {lts}"
        )
    if lts[0] != (0, 1):
        raise NotShapePositionError(
            f"basis is not in shape position; leading terms {lts}"
        )
    r = lts[1][0]
    G = {ex: c for (ex, _), c in elements[(r, 0)].items()}
    y_elt = elements[(0, 1)]
    lc = G[r]
    # pseudo-division of A by G in x: R accumulates lc^e * A - Q * G
    R = {ex: c for (ex, ey), c in y_elt.items() if ey == 0}
    e = 0
    while R and max(R) >= r:
        k = max(R)
        t = R.pop(k)
        R = {i: a * lc for i, a in R.items()}
        for i, gi in G.items():
            if i < r:
                R[k - r + i] = R.get(k - r + i, Polynomial.zero(U12)) - t * gi
        R = {i: a for i, a in R.items() if a}
        e += 1
    D = y_elt[(0, 1)] * lc**e
    d = reduce(poly_gcd, R.values(), D)
    scale, v = D.exact_div(d).content_and_primitive()
    u = -_in_u3({k: a.exact_div(d) for k, a in R.items()}) / scale

    content = reduce(poly_gcd, G.values())
    g = _in_u3({k: c.exact_div(content) for k, c in G.items()}).normalized()
    return UVDecomposition(u=u, v=v, g=g, r=r)


def uv_decomposition(
    f: Endomorphism,
    *,
    kernel: Optional[KernelGenerator] = None,
    stats: Optional[RunStats] = None,
    certified_t: Optional[Polynomial] = None,
) -> UVDecomposition:
    """Split y into a numerator over a denominator in the images.

    The construction cross-checks itself against the kernel relation: the
    degree r must match, g must equal the normalized kernel generator, and
    v(p, q) * y - u(p, q, x) must vanish identically. ``certified_t`` is a
    t(u1, u2) already proven to satisfy t(p, q) = y, such as the second
    component of a tame certificate's inverse. When v is constant and
    u = v t, the identity is v y - v t(p, q) = 0 by that proof, and the
    two substitutions that would check it are skipped.
    """
    stats = stats if stats is not None else RunStats()
    dec = shape_basis(f, stats=stats)
    k = kernel if kernel is not None else kernel_generator(f, stats=stats)
    if dec.r != k.r:
        raise InternalInconsistencyError(
            f"shape degree {dec.r} disagrees with the kernel degree {k.r}"
        )
    if dec.g != k.generator.normalized():
        raise InternalInconsistencyError(
            "the cleared minimal polynomial disagrees with the kernel generator"
        )
    if (
        certified_t is not None
        and dec.v.is_constant()
        and dec.u == certified_t.reindex(U123) * dec.v.constant_value()
    ):
        return dec
    xname, yname = f.context.names
    xv = Polynomial.variable(f.context, xname)
    yv = Polynomial.variable(f.context, yname)
    v_img = dec.v.substitute({"u1": f.p, "u2": f.q})
    u_img = dec.u.substitute({"u1": f.p, "u2": f.q, "u3": xv})
    if not (v_img * yv - u_img).is_zero():
        raise InternalInconsistencyError(
            "v(p, q) * y - u(p, q, x) does not vanish"
        )
    return dec
