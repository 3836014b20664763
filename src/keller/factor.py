"""Bivariate factorization over Q and the irreducibility-preservation tests.

Squarefree parts come from Yun's loop, which is skipped when one integer
image of a primitive input is squarefree of full degree, since that proves
the input squarefree.

The factor engine works on primitive squarefree parts in one or two
variables, all on dense integer rows (one integer list over y per power
of x) from the monic transform to the answer: make the part monic in x
by the leading-coefficient substitution lc**(n-1) * f(x / lc, y),
evaluate at a good point on y, factor the resulting univariate integer
polynomial, Hensel-lift that split back to a factorization over Q[[y]]
to enough precision, then recombine subsets by trial division. A part in
one variable has singleton rows; its univariate factors are its factors,
and nothing is lifted. The lift is linear: one power of y at a time,
solved against one fixed Bezout pair from `univariate._xgcd_z`, so on a
true factorization every lifted coefficient is an integer. A polynomial
in x over Q[y]/(y**k) is a list over x-degree of integer lists over
y-degree with one denominator. Recombination multiplies lifted factors
below y**k, tests integrality on the same rows and divides the shifted
monic rows by an integral candidate (`_quo_rows`). The lift tree, the
subset-recombination loop and the dense arithmetic live in
`univariate.py`. Undoing the shift and the substitution works on rows
too; only a final factor becomes a `Polynomial` (`poly._from_rows`).

The absolute-irreducibility certificate counts the solutions of a linear
system with `_nullity`, fraction-free over Z. On top of that sits stage
4, `localization_stage`, the one implementation behind `classify` and
`localization_units_check`: does each irreducible factor of v keep a
single irreducible image under f, and are all unit generators of the
localized ring inside the image subalgebra.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from . import univariate as uni
from .errors import (
    AlgebraicallyDependentError,
    DegreeCapExceeded,
    InternalInconsistencyError,
)
from .groebner import RunStats, subring_membership
from .poly import (
    Endomorphism,
    Polynomial,
    VarContext,
    _eval_others,
    _from_rows,
    _gcd_cofactors,
    _split_var_content,
)

DEFAULT_FACTOR_DEGREE_CAP = 10


# -- squarefree decomposition -------------------------------------------------


def squarefree_decomposition(f: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Split f into pairwise-coprime squarefree parts with multiplicities.

    The overall content is dropped: the product of part**multiplicity
    reconstructs f up to a constant. Parts come out canonically normalized.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    _, prim = f.content_and_primitive()
    merged: Dict[Polynomial, int] = {}
    for part, mult in _squarefree_rec(prim):
        key = part.normalized()
        merged[key] = merged.get(key, 0) + mult
    out = sorted(merged.items(), key=lambda t: (t[0].total_degree(), str(t[0])))
    return [(p, m) for p, m in out]


def _squarefree_rec(f: Polynomial) -> List[Tuple[Polynomial, int]]:
    if f.is_constant():
        return []
    main = None
    for i, name in enumerate(f.context.names):
        if f.degree_in(name) > 0:
            main = i
            break
    cont, prim = _split_var_content(f, main)
    out = [] if cont.is_constant() else _squarefree_rec(cont)
    if _certified_squarefree(prim, main):
        return out + [(prim.normalized(), 1)]
    return out + _yun(prim, f.context.names[main])


def _yun(prim: Polynomial, name: str) -> List[Tuple[Polynomial, int]]:
    """Yun's squarefree decomposition of prim, primitive in variable name."""
    out = []
    g, w, y = _gcd_cofactors(prim, prim.diff(name))
    if g.is_constant():
        return [(prim.normalized(), 1)]
    i = 1
    while w.total_degree() > 0:
        z = y - w.diff(name)
        if z.is_zero():
            out.append((w.normalized(), i))
            break
        h, w, y = _gcd_cofactors(w, z)
        if not h.is_constant():
            out.append((h, i))
        i += 1
    return out


def _certified_squarefree(prim: Polynomial, xi: int) -> bool:
    """True when an integer image proves prim squarefree.

    prim is primitive in x, the variable of index xi; the image sets every
    other variable to one integer c. A square factor g**2 of prim has
    deg_x g > 0, and lc_x(g)(c) != 0 wherever deg_x prim survives the
    evaluation, so g(x, c)**2 would divide the image: a squarefree image of
    full degree rules out every square factor. False means only that no
    point tried gave such an image.
    """
    n = max(e[xi] for e in prim.num)
    for c in itertools.islice(_eval_points(), _CERTIFICATE_POINTS):
        image = _eval_others(prim.num, xi, c)
        if len(image) == n + 1 and uni.deg(uni.gcd_z(image, uni.derivative(image))) == 0:
            return True
    return False


# points tried by _certified_squarefree before Yun's loop runs
_CERTIFICATE_POINTS = 5


# -- the y-adic Hensel lift --------------------------------------------------
#
# The lift runs on truncated series: a polynomial in x over Q[y]/(y**k) is a
# pair (rows, den), rows[i] the k integer y-coefficients of x**i and den one
# positive denominator for the whole polynomial. While lifting, each power
# of y is one x-polynomial (int list, den) in lowest terms; the rows are
# built once at the end.


def _reduced(rows: List[List[int]], den: int) -> Tuple[List[List[int]], int]:
    """(rows, den) in lowest terms, without zero rows on top."""
    while rows and not any(rows[-1]):
        rows.pop()
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    if g > 1:
        rows = [[c // g for c in r] for r in rows]
        den //= g
    return rows, den


def _at(a, k: int):
    """a with every row cut or padded to k coefficients."""
    return [(r + [0] * k)[:k] for r in a[0]], a[1]


def _s_mul(a, b, k: int):
    """a * b below y**k; no y-degree k or above is ever formed."""
    (A, da), (B, db) = a, b
    out = [[0] * k for _ in range(len(A) + len(B) - 1)]
    for i, ra in enumerate(A):
        for j, rb in enumerate(B):
            row = out[i + j]
            for p, c in enumerate(ra):
                if c:
                    for q in range(k - p):
                        row[p + q] += c * rb[q]
    return _reduced(out, da * db)


def _lowest(f: List[int], den: int) -> Tuple[List[int], int]:
    """f / den in lowest terms."""
    g = math.gcd(den, *f)
    return [c // g for c in f], den // g


def _rows(coeffs, m: int):
    """The series sum(c_j / d_j * y**j) for coeffs = [(c_j, d_j)] as
    (rows, den), in lowest terms when every (c_j, d_j) is."""
    den = math.lcm(*(d for _, d in coeffs))
    rows = [[0] * m for _ in range(len(coeffs[0][0]))]
    for j, (c, d) in enumerate(coeffs):
        for i, v in enumerate(c):
            rows[i][j] = v * (den // d)
    return rows, den


def _lift_linear(F, g0: List[int], h0: List[int], m: int):
    """Lift F == g0*h0 (mod y), g0 and h0 monic and coprime, to F == G*H
    (mod y**m) with G and H monic in x.

    The linear lift of Wang's EEZ (Math. Comp. 32, 1978; Geddes, Czapor
    and Labahn, Algorithms for Computer Algebra, ch. 6): with s*g0 + t*h0
    == d from `_xgcd_z`, never lifted, step j solves for the y**j
    coefficients. E_j = F_j - sum(G_i*H_{j-i}, 0 < i < j) must equal
    g0*H_j + h0*G_j; s*E_j = q*h0 + r gives H_j = r/d and G_j = (t*E_j +
    q*g0)/d, with deg H_j < deg h0 and deg G_j < deg g0. The monic lift of
    a coprime split is unique, so G and H are the factors over Z whenever
    the split is a true factorization.
    """
    rows, den = F
    s, t, d = uni._xgcd_z(g0, h0)
    G, H = [(g0, 1)], [(h0, 1)]
    for j in range(1, m):
        pairs = [(G[i], H[j - i]) for i in range(1, j)]
        e_den = math.lcm(den, *(dg * dh for (_, dg), (_, dh) in pairs))
        e = uni.strip([r[j] * (e_den // den) for r in rows])
        for (a, dg), (b, dh) in pairs:
            e = uni.sub(e, uni.scale(uni.mul(a, b), e_den // (dg * dh)))
        q, r = uni._divmod_monic(uni.mul(s, e), h0)
        G.append(_lowest(uni.add(uni.mul(t, e), uni.mul(q, g0)), d * e_den))
        H.append(_lowest(r, d * e_den))
    return _rows(G, m), _rows(H, m)


# -- the factor engine ---------------------------------------------------------


def _shifted(f: List[int], c: int) -> List[int]:
    """f(y + c) for a dense integer list f in y."""
    out: List[int] = []
    for v in reversed(f):
        out = uni.add(uni.mul(out, [c, 1]), [v])
    return out


def _quo_rows(a: List[List[int]], b: List[List[int]]) -> Optional[List[List[int]]]:
    """a / b for integer rows a and b, b monic in x, when b divides a in
    Z[y][x], else None. An exact quotient has no row of higher y-degree
    than a, so a longer row ends the division early."""
    db = len(b) - 1
    width = max(map(len, a))
    r = [list(row) for row in a]
    q: List[List[int]] = [[] for _ in range(len(a) - db)]
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + db]
        if len(c) > width:
            return None
        for i in range(db):
            r[k + i] = uni.sub(r[k + i], uni.mul(c, b[i]))
    return None if any(r[:db]) else q


def _factor_squarefree_bivariate(part: Polynomial) -> List[Polynomial]:
    """Irreducible factors of a primitive squarefree polynomial in one or
    two variables.

    Splits off the coefficient content with respect to the chosen main
    variable x first, so factors living in a single variable are not lost.
    A part in one variable is a polynomial in x of y-degree 0: its rows
    are singletons, the univariate image is the part itself, and nothing
    is lifted.
    """
    ctx = part.context
    used = part.variables_used()
    if len(used) > 2:
        raise ValueError("factorization supports at most two active variables")
    xn, yn = used[0], used[-1]
    # keep the smaller x-degree for the monic trick
    if part.degree_in(xn) > part.degree_in(yn):
        xn, yn = yn, xn
    xi, yi = ctx.index(xn), ctx.index(yn)

    # a factor free of the main variable hides in the coefficient content
    cont, prim = _split_var_content(part, xi)
    if not cont.is_constant():
        both = _factor_squarefree_bivariate(cont) + _factor_squarefree_bivariate(prim)
        check = Polynomial.constant(ctx, 1)
        for g in both:
            check = check * g
        if check.content_and_primitive()[1] != part.content_and_primitive()[1]:
            raise InternalInconsistencyError("bivariate factors failed to multiply back")
        return both
    part = prim

    # primitive in x and linear in x: irreducible
    n = part.degree_in(xn)
    if n == 1:
        return [part.normalized()]

    # the dense y-lists of the coefficients in x, then the monic form
    # lc**(n-1) * part(x / lc, y), whose top row is [1]; sum(e) - e[xi] is
    # the y-degree, and 0 when x is the only variable
    width = 1 + max(sum(e) - e[xi] for e in part.num)
    rows = [[0] * width for _ in range(n + 1)]
    for e, c in part.num.items():
        rows[e[xi]][sum(e) - e[xi]] = c
    lc = rows[n]
    powers = list(itertools.accumulate([lc] * n, uni.mul, initial=[1]))
    rows = [uni.mul(r, powers[n - 1 - i]) for i, r in enumerate(rows[:n])] + [[1]]

    # evaluation point with a squarefree image
    u = None
    point = None
    for c in _eval_points():
        cand = [uni._horner(r, c) for r in rows]
        if uni.deg(uni.gcd_z(cand, uni.derivative(cand))) == 0:
            u, point = cand, c
            break
    if u is None:
        raise InternalInconsistencyError("no squarefree evaluation point found")

    seed_parts = uni.factor_squarefree_monic(u)
    if len(seed_parts) == 1:
        return [part.normalized()]

    # the factors of the shifted monic form, as rows
    rows = [_shifted(r, point) for r in rows] if point else rows
    m = max(map(len, rows))
    if m == 1:
        found = [[[c] for c in g] for g in seed_parts]
    else:
        lift_pair = functools.partial(_lift_linear, m=m)
        lifted = uni._lift_tree(_at((rows, 1), m), seed_parts, lift_pair)

        def trial(combo, remaining):
            cand = lifted[combo[0]]
            for i in combo[1:]:
                cand = _s_mul(cand, lifted[i], m)
            if cand[1] != 1:
                return None
            # strip copies: cand[0] is lifted[i]'s own rows for a singleton
            cand = [uni.strip(list(r)) for r in cand[0]]
            q = _quo_rows(remaining, cand)
            return None if q is None else (cand, q)

        found, remaining = uni._recombine(len(lifted), rows, trial)
        if len(remaining) > 1:
            found.append(remaining)

    # undo the shift, then the monic substitution x -> lc(y) * x: row i
    # gains lc**i, and the content in y that this brings in is divided out
    out = []
    for g in found:
        g = [_shifted(r, -point) for r in g] if point else g
        g = [uni.mul(r, power) for r, power in zip(g, powers)]
        cont_y = functools.reduce(uni.gcd_z, g)
        g = [uni._quo_z(r, cont_y) for r in g]
        out.append(_from_rows(ctx, xi, yi, g).normalized())

    check = Polynomial.constant(ctx, 1)
    for g in out:
        check = check * g
    _, check_prim = check.content_and_primitive()
    _, part_prim = part.content_and_primitive()
    if check_prim != part_prim:
        raise InternalInconsistencyError("bivariate factors failed to multiply back")
    return out


def _eval_points():
    yield 0
    for k in range(1, 700):
        yield k
        yield -k


# -- public factorization type and entry point --------------------------------


@dataclass(frozen=True)
class Factorization:
    """content * product(factor**multiplicity) reconstructs the input."""

    content: Fraction
    factors: Tuple[Tuple[Polynomial, int], ...]
    absolute: Optional[Tuple[Optional[bool], ...]] = None

    def product_in(self, context: VarContext) -> Polynomial:
        acc = Polynomial.constant(context, self.content)
        for g, mult in self.factors:
            acc = acc * g**mult
        return acc


def factor_bivariate(
    f: Polynomial,
    *,
    degree_cap: int = DEFAULT_FACTOR_DEGREE_CAP,
    absolute: bool = False,
) -> Factorization:
    """Complete factorization over Q of a polynomial in at most 2 variables.

    Refuses inputs above the degree cap. With absolute=True, each factor
    additionally carries a verdict from the absolute-irreducibility
    certificate: True, False, or None when the certificate is inconclusive.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.total_degree() > degree_cap:
        raise DegreeCapExceeded(
            f"degree {f.total_degree()} exceeds the factorization cap {degree_cap}"
        )
    used = f.variables_used()
    if len(used) > 2:
        raise ValueError("factorization supports at most two variables")
    if f.is_constant():
        return Factorization(f.constant_value(), (), None)

    collected: Dict[Polynomial, int] = {}
    for part, mult in squarefree_decomposition(f):
        for g in _factor_squarefree_bivariate(part):
            key = g.normalized()
            collected[key] = collected.get(key, 0) + mult
    factors = tuple(
        sorted(collected.items(), key=lambda t: (t[0].total_degree(), str(t[0])))
    )

    prod = Polynomial.constant(f.context, 1)
    for g, mult in factors:
        prod = prod * g**mult
    lead = max(prod.num)
    content = Fraction(f.num.get(lead, 0) * prod.den, prod.num[lead] * f.den)
    if prod * content != f:
        raise InternalInconsistencyError("factorization failed to multiply back")

    flags: Optional[Tuple[Optional[bool], ...]] = None
    if absolute:
        flags = tuple(absolute_irreducibility(g) for g, _ in factors)
    return Factorization(content, factors, flags)


# -- absolute irreducibility certificate ---------------------------------------


def absolute_irreducibility(f: Polynomial) -> Optional[bool]:
    """Certify whether a Q-irreducible polynomial stays irreducible over C.

    Counts the solutions of the Ruppert-style differential system; one
    solution certifies absolute irreducibility, more certify a proper
    splitting over C. Returns None when the input is out of the
    certificate's reach.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("expected a nonconstant polynomial")
    if f.total_degree() == 1:
        return True
    used = f.variables_used()
    if len(used) == 1:
        # a univariate polynomial of degree >= 2 splits into linears over C
        return False
    if len(used) > 2:
        return None
    ctx = f.context
    xn = used[0]
    yn = used[1]
    xi, yi = ctx.index(xn), ctx.index(yn)
    m1, m2 = f.degree_in(xn), f.degree_in(yn)
    fx = f.diff(xn)
    fy = f.diff(yn)

    def mono(a: int, b: int) -> Polynomial:
        e = [0] * ctx.arity
        e[xi] = a
        e[yi] = b
        return Polynomial.monomial(ctx, tuple(e))

    columns: List[Polynomial] = []
    # g-block: deg_x <= m1 - 1, deg_y <= m2
    for a in range(m1):
        for b in range(m2 + 1):
            g = mono(a, b)
            columns.append(f * g.diff(yn) - g * fy)
    # h-block: deg_x <= m1, deg_y <= m2 - 1
    for a in range(m1 + 1):
        for b in range(m2):
            h = mono(a, b)
            columns.append(-(f * h.diff(xn)) + h * fx)

    # scaling a column by its denominator keeps the nullity
    monomials = sorted({e for col in columns for e in col.num})
    matrix = [[col.num.get(e, 0) for col in columns] for e in monomials]
    dim = _nullity(matrix)
    if dim == 1:
        return True
    if dim >= 2:
        return False
    return None


def _nullity(matrix: List[List[int]]) -> int:
    """Dimension of the nullspace of a dense integer matrix.

    Fraction-free elimination (after Bareiss, Math. Comp. 1968, dividing
    by the content instead of the previous pivot): with pivot a in column
    j, a row whose entry there is c becomes a * row - c * pivot_row, then
    is divided by its content. The pivot row leaves, so the rank is the
    number of pivots, and no entry is ever a fraction.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = [r for r in matrix if any(r)]
    rank = 0
    for j in range(ncols):
        pivot = next((r for r in rows if r[j]), None)
        if pivot is None:
            continue
        rank += 1
        rows.remove(pivot)
        a = pivot[j]
        rows = [[a * u - r[j] * v for u, v in zip(r, pivot)] if r[j] else r for r in rows]
        rows = [uni.primitive(r) for r in rows if any(r)]
    return ncols - rank


# -- irreducibility preservation under the map ---------------------------------


@dataclass(frozen=True)
class PreservationReport:
    """Whether the image of an irreducible v-factor stays irreducible."""

    source: Polynomial
    image: Polynomial
    image_factors: Factorization
    preserved: bool


def image_under(f: Endomorphism, g: Polynomial) -> Polynomial:
    """g(p, q) in the x,y context for a polynomial g in u1, u2."""
    return g.substitute({"u1": f.p, "u2": f.q})


def factor_v(v: Polynomial, *, absolute: bool = False) -> Factorization:
    """``factor_bivariate`` of v, or of a factor of v, under no cap: stage
    4's degree cap bounds only the images v_j(p, q)."""
    return factor_bivariate(v, degree_cap=v.total_degree(), absolute=absolute)


def _preservation(f: Endomorphism, vj: Polynomial, degree_cap: int) -> PreservationReport:
    """Factor the image vj(p, q) of an irreducible vj under the image cap."""
    image = image_under(f, vj)
    if image.is_constant():
        raise AlgebraicallyDependentError("a factor of v has constant image under the map")
    fact = factor_bivariate(image, degree_cap=degree_cap)
    preserved = len(fact.factors) == 1 and fact.factors[0][1] == 1
    return PreservationReport(vj, image, fact, preserved)


def stays_irreducible(
    vj: Polynomial,
    f: Endomorphism,
    *,
    degree_cap: int = DEFAULT_FACTOR_DEGREE_CAP,
) -> PreservationReport:
    """Test whether the image vj(p, q) is still irreducible.

    vj must be irreducible over Q. Preserved means the image has exactly
    one irreducible factor with multiplicity 1.
    """
    check = factor_v(vj)
    if len(check.factors) != 1 or check.factors[0][1] != 1:
        raise ValueError("expected an irreducible polynomial to test")
    return _preservation(f, vj, degree_cap)


# -- localization units ---------------------------------------------------------


@dataclass(frozen=True)
class UnitWitness:
    """One irreducible factor of v(p, q), tagged by subring membership."""

    factor: Polynomial
    inside: bool
    membership: Optional[Polynomial]


@dataclass(frozen=True)
class UnitsVerdict:
    all_units_in_Cpq: bool
    witnesses: Tuple[UnitWitness, ...]


def localization_stage(
    f: Endomorphism,
    vf: Factorization,
    *,
    degree_cap: int = DEFAULT_FACTOR_DEGREE_CAP,
    stats: Optional[RunStats] = None,
) -> Iterator:
    """Stage 4 on the factorization vf of v: yields the
    ``PreservationReport`` of every factor v_j, then the ``UnitsVerdict``.

    The unit group of C[x,y][1/v(p,q)] is generated by constants and the
    irreducible factors of the images v_j(p, q), each factored once under
    ``degree_cap``; the verdict tags each such factor via subring
    membership. The reports come first, so a caller keeps them when the
    membership step refuses: ``reports, verdict = localization_stage(...)``
    takes both.
    """
    reports = tuple(_preservation(f, vj, degree_cap) for vj, _ in vf.factors)
    yield reports
    seen: Dict[Polynomial, UnitWitness] = {}
    for r in reports:
        for w, _ in r.image_factors.factors:
            if w not in seen:
                member = subring_membership(w, f, stats=stats)
                seen[w] = UnitWitness(w, member is not None, member)
    witnesses = tuple(
        seen[w] for w in sorted(seen, key=lambda g: (g.total_degree(), str(g)))
    )
    yield UnitsVerdict(all(wit.inside for wit in witnesses), witnesses)


def localization_units_check(
    f: Endomorphism,
    v: Polynomial,
    *,
    degree_cap: int = DEFAULT_FACTOR_DEGREE_CAP,
    stats: Optional[RunStats] = None,
) -> UnitsVerdict:
    """Check that every unit generator of C[x,y][1/v(p,q)] lies in C[p,q]:
    stage 4 (``localization_stage``) on the factors of v."""
    if v.is_zero():
        raise ValueError("v must be nonzero")
    _, verdict = localization_stage(f, factor_v(v), degree_cap=degree_cap, stats=stats)
    return verdict
