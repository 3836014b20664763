"""Groebner bases over Q with an integer fraction-free core.

The engine works on primitive integer term maps: reductions scale the
polynomial being reduced instead of dividing, so no Fraction arithmetic
happens in the hot loop. Public results are converted back to canonical
`Polynomial` values. Reduced bases are deterministic: elements are
canonically normalized and sorted by their leading monomial, so two runs
over shuffled generators produce identical output.

Resource use is capped by the budgets in ``RunStats``: a basis
computation raises ResourceCapExceeded when it processes more S-pairs than
``spair_budget``, counted from its own start, and a reduction raises it when
it creates a term of total degree above ``degree_budget``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from time import perf_counter
from typing import Iterable, Iterator, List, Optional, Sequence

from .errors import (
    AlgebraicallyDependentError,
    ContextMismatchError,
    ResourceCapExceeded,
    ZeroKernelError,
)
from .linalg import solve_sparse
from .poly import U12, U123, Endomorphism, Polynomial, VarContext

DEFAULT_MAX_SPAIRS = 50_000
DEFAULT_MAX_DEGREE = 60


@dataclass
class RunStats:
    """The budgets a run may spend and counters of the work it performed.

    ``spair_budget`` caps the S-pairs of each basis computation and
    ``degree_budget`` the total degree of any term a reduction creates; the
    counters sum over every computation charged to this object.
    """

    spairs: int = 0
    max_degree: int = 0
    millis: int = 0
    spair_budget: int = DEFAULT_MAX_SPAIRS
    degree_budget: int = DEFAULT_MAX_DEGREE

    def note_degree(self, d: int) -> None:
        if d > self.max_degree:
            self.max_degree = d

    def merge(self, other: "RunStats") -> None:
        self.spairs += other.spairs
        self.max_degree = max(self.max_degree, other.max_degree)
        self.millis += other.millis

    @contextmanager
    def timed(self) -> Iterator[None]:
        """Add the wall time of the ``with`` body to ``millis``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.millis += int((perf_counter() - start) * 1000)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: "lex", "grevlex", or "block".

    A block order eliminates the first ``k`` context variables: monomials
    are compared grevlex on the first block, ties broken grevlex on the
    rest. Orders are context-width agnostic until keyed.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.k < 1:
            raise ValueError("a block order needs k >= 1 eliminated variables")
        if self.kind != "block" and self.k:
            raise ValueError("only block orders take a block width")

    def key_func(self, arity: int):
        if self.kind == "block" and self.k >= arity:
            raise ValueError(f"block width {self.k} must be below arity {arity}")
        if self.kind == "lex":
            return lambda e: e
        if self.kind == "grevlex":
            return _grevlex_key
        k = self.k
        return lambda e: (_grevlex_key(e[:k]), _grevlex_key(e[k:]))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(k: int) -> MonomialOrder:
    return MonomialOrder("block", k)


def _grevlex_key(e: tuple):
    return (sum(e), tuple(-x for x in reversed(e)))


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal; zero generators are dropped on entry."""

    context: VarContext
    generators: tuple

    def __init__(self, context: VarContext, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.context != context:
                raise ContextMismatchError("ideal generators must share the context")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", tuple(gens))


# -- integer fraction-free engine ------------------------------------------
#
# A "row" is (terms, lt_exp, lt_coeff) with integer coefficients, primitive,
# and lt_coeff > 0 under the active order.


def _int_terms(p: Polynomial) -> dict:
    prim = p.normalized()
    return {e: c.numerator for e, c in prim.terms.items()}


def _row(terms: dict, keyf) -> tuple:
    lt = max(terms, key=keyf)
    if terms[lt] < 0:
        terms = {e: -c for e, c in terms.items()}
    return (terms, lt, terms[lt])


def _content_strip(d: dict) -> int:
    g = 0
    for v in d.values():
        g = math.gcd(g, v)
        if g == 1:
            return 1
    if g > 1:
        for k in d:
            d[k] //= g
    return g


def _reduce_int(terms: dict, rows: Sequence[tuple], keyf, stats: RunStats):
    """Fully reduce an integer term map against rows.

    Returns (reduced_terms, multiplier) with
    multiplier * input == reduced + (ideal member); multiplier is a
    positive Fraction.
    """
    budget = stats.degree_budget
    work = dict(terms)
    out: dict = {}
    lam_num = 1
    lam_den = 1
    steps = 0
    while work:
        e = max(work, key=keyf)
        c = work.pop(e)
        red = None
        for row in rows:
            lt = row[1]
            for a, b in zip(e, lt):
                if a < b:
                    break
            else:
                red = row
                break
        if red is None:
            out[e] = c
            continue
        rterms, rlt, rlc = red
        g = math.gcd(abs(c), rlc)
        scale = rlc // g
        ratio = c // g
        if scale != 1:
            lam_num *= scale
            for k in work:
                work[k] *= scale
            for k in out:
                out[k] *= scale
        shift = tuple(a - b for a, b in zip(e, rlt))
        for me, mc in rterms.items():
            if me == rlt:
                continue
            ke = tuple(a + b for a, b in zip(me, shift))
            nv = work.get(ke, 0) - ratio * mc
            if nv:
                if ke not in work:
                    d = sum(ke)
                    stats.note_degree(d)
                    if d > budget:
                        raise ResourceCapExceeded(
                            f"intermediate degree {d} exceeds the cap {budget}"
                        )
                work[ke] = nv
            else:
                work.pop(ke, None)
        steps += 1
        if steps % 32 == 0 and work:
            g2 = 0
            for v in work.values():
                g2 = math.gcd(g2, v)
                if g2 == 1:
                    break
            if g2 > 1:
                for v in out.values():
                    g2 = math.gcd(g2, v)
                    if g2 == 1:
                        break
            if g2 > 1:
                for k in work:
                    work[k] //= g2
                for k in out:
                    out[k] //= g2
                lam_den *= g2
    return out, Fraction(lam_num, lam_den)


def _spoly_int(row_i: tuple, row_j: tuple, lcm_e: tuple) -> dict:
    ti, lti, ci = row_i
    tj, ltj, cj = row_j
    g = math.gcd(ci, cj)
    mi = tuple(a - b for a, b in zip(lcm_e, lti))
    mj = tuple(a - b for a, b in zip(lcm_e, ltj))
    fi = cj // g
    fj = ci // g
    out: dict = {}
    for e, c in ti.items():
        k = tuple(a + b for a, b in zip(e, mi))
        out[k] = out.get(k, 0) + fi * c
    for e, c in tj.items():
        k = tuple(a + b for a, b in zip(e, mj))
        v = out.get(k, 0) - fj * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _buchberger_rows(gens: List[dict], keyf, stats: RunStats) -> List[tuple]:
    rows: List[tuple] = []
    for terms in gens:
        t = dict(terms)
        _content_strip(t)
        rows.append(_row(t, keyf))

    def lcm_exp(a: tuple, b: tuple) -> tuple:
        return tuple(x if x > y else y for x, y in zip(a, b))

    heap: list = []

    def push_pair(i: int, j: int) -> None:
        L = lcm_exp(rows[i][1], rows[j][1])
        heappush(heap, (sum(L), keyf(L), i, j, L))

    for j in range(len(rows)):
        for i in range(j):
            push_pair(i, j)
    done = set()
    spairs = 0
    while heap:
        _, _, i, j, L = heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        lti, ltj = rows[i][1], rows[j][1]
        if all(x == 0 or y == 0 for x, y in zip(lti, ltj)):
            continue  # coprime leading terms never yield new information
        skip = False
        for k in range(len(rows)):
            if k == i or k == j:
                continue
            ltk = rows[k][1]
            if all(a <= b for a, b in zip(ltk, L)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        spairs += 1
        stats.spairs += 1
        if spairs > stats.spair_budget:
            raise ResourceCapExceeded(
                f"S-pair budget {stats.spair_budget} exhausted"
            )
        s = _spoly_int(rows[i], rows[j], L)
        if not s:
            continue
        r, _ = _reduce_int(s, rows, keyf, stats)
        if not r:
            continue
        _content_strip(r)
        rows.append(_row(r, keyf))
        new = len(rows) - 1
        for t in range(new):
            push_pair(t, new)
    return rows


def _minimalize_rows(rows: List[tuple], keyf) -> List[tuple]:
    order = sorted(range(len(rows)), key=lambda i: keyf(rows[i][1]))
    kept: List[tuple] = []
    for i in order:
        lt = rows[i][1]
        redundant = False
        for r in kept:
            klt = r[1]
            if all(a <= b for a, b in zip(klt, lt)):
                redundant = True
                break
        if not redundant:
            kept.append(rows[i])
    return kept


def _interreduce_rows(rows: List[tuple], keyf, stats: RunStats) -> List[tuple]:
    out = list(rows)
    for i in range(len(out)):
        others = out[:i] + out[i + 1 :]
        r, _ = _reduce_int(dict(out[i][0]), others, keyf, stats)
        _content_strip(r)
        out[i] = _row(r, keyf)
    out.sort(key=lambda row: keyf(row[1]), reverse=True)
    return out


def _rows_to_polys(context: VarContext, rows: Sequence[tuple]) -> List[Polynomial]:
    return [
        Polynomial(context, {e: Fraction(c) for e, c in terms.items()})
        for terms, _, _ in rows
    ]


def buchberger(
    ideal: Ideal,
    order: MonomialOrder,
    *,
    stats: Optional[RunStats] = None,
) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal under the given order.

    The result is inter-reduced, canonically normalized (primitive integer
    coefficients, positive leading coefficient under ``order``), and sorted
    by leading monomial, so it is unique for the ideal and order.
    """
    if not ideal.generators:
        raise ValueError("the zero ideal has no Groebner basis here")
    stats = stats if stats is not None else RunStats()
    keyf = order.key_func(ideal.context.arity)
    gens = [_int_terms(g) for g in ideal.generators]
    for poly in ideal.generators:
        stats.note_degree(poly.total_degree())
    rows = _buchberger_rows(gens, keyf, stats)
    rows = _minimalize_rows(rows, keyf)
    rows = _interreduce_rows(rows, keyf, stats)
    return _rows_to_polys(ideal.context, rows)


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder,
    *,
    stats: Optional[RunStats] = None,
):
    """Fully reduce f against a basis; returns (remainder, changed).

    No term of the remainder is divisible by any basis leading term. An
    empty basis acts as the identity. The remainder is exact: it equals f
    minus a combination of basis elements.
    """
    stats = stats if stats is not None else RunStats()
    basis = [b for b in basis if not b.is_zero()]
    if not basis or f.is_zero():
        return f, False
    for b in basis:
        if b.context != f.context:
            raise ContextMismatchError("normal_form needs one shared context")
    keyf = order.key_func(f.context.arity)
    rows = [_row(_int_terms(b), keyf) for b in basis]
    cont, prim = f.content_and_primitive()
    terms = {e: c.numerator for e, c in prim.terms.items()}
    reduced, lam = _reduce_int(terms, rows, keyf, stats)
    scale = cont / lam
    rem = Polynomial(f.context, {e: scale * c for e, c in reduced.items()})
    return rem, rem != f


# -- the kernel relation ----------------------------------------------------


@dataclass(frozen=True)
class KernelGenerator:
    """Generator of the relation ideal among (p, q, x).

    ``generator`` lives in the (u1, u2, u3) context, with u1, u2 standing
    for the two coordinate images and u3 for the first plane variable.
    ``coeffs[i]`` is the coefficient of u3**i, a polynomial in (u1, u2),
    and ``r`` is the u3-degree.
    """

    generator: Polynomial
    r: int
    coeffs: tuple


_KERNEL_CTX = VarContext(("y", "u1", "u2", "u3"))


def kernel_generator(
    f: Endomorphism,
    *,
    stats: Optional[RunStats] = None,
) -> KernelGenerator:
    """The single relation H(u1, u2, u3) tying the images p, q to x.

    H generates all polynomial identities H(p, q, x) == 0. The relation
    ideal is principal exactly when p and q are algebraically independent;
    a dependence (including a u3-free generator) raises
    AlgebraicallyDependentError, and an empty elimination raises
    ZeroKernelError.
    """
    stats = stats if stats is not None else RunStats()
    xname, yname = f.context.names
    u1 = Polynomial.variable(_KERNEL_CTX, "u1")
    u2 = Polynomial.variable(_KERNEL_CTX, "u2")
    rename = {xname: "u3", yname: "y"}
    g1 = u1 - f.p.reindex(_KERNEL_CTX, rename)
    g2 = u2 - f.q.reindex(_KERNEL_CTX, rename)
    basis = buchberger(Ideal(_KERNEL_CTX, [g1, g2]), block_order(1), stats=stats)
    elim = [b for b in basis if all(e[0] == 0 for e in b.terms)]
    if not elim:
        raise ZeroKernelError(
            "no relation ties the images to the plane variable; "
            "this cannot happen for a map with nonzero Jacobian"
        )
    if len(elim) > 1:
        raise AlgebraicallyDependentError(
            f"the coordinate images are algebraically dependent: the relation "
            f"ideal needs {len(elim)} generators"
        )
    H = elim[0].reindex(U123)
    r = H.degree_in("u3")
    if r == 0:
        raise AlgebraicallyDependentError(
            "the coordinate images satisfy a relation not involving the plane "
            "variable; they are algebraically dependent"
        )
    coeffs = []
    split = {}
    for exps, c in H.terms.items():
        split.setdefault(exps[2], {})[(exps[0], exps[1])] = c
    for i in range(r + 1):
        coeffs.append(Polynomial(U12, split.get(i, {})))
    return KernelGenerator(H, r, tuple(coeffs))


# -- membership in the image subalgebra -------------------------------------

_TAG_CTX = VarContext(("y", "x", "u1", "u2"))


@lru_cache(maxsize=128)
def _tag_basis(f: Endomorphism, spair_budget: int, degree_budget: int):
    """Reduced lex basis of the tag ideal (u1 - p, u2 - q).

    Pure lex with y > x > u1 > u2 eliminates the plane variables, so
    elements with u-only leading terms are u-only polynomials.
    """
    stats = RunStats(spair_budget=spair_budget, degree_budget=degree_budget)
    xname, yname = f.context.names
    u1 = Polynomial.variable(_TAG_CTX, "u1")
    u2 = Polynomial.variable(_TAG_CTX, "u2")
    rename = {xname: "x", yname: "y"}
    g1 = u1 - f.p.reindex(_TAG_CTX, rename)
    g2 = u2 - f.q.reindex(_TAG_CTX, rename)
    basis = buchberger(Ideal(_TAG_CTX, [g1, g2]), LEX, stats=stats)
    return tuple(basis), stats


def _cached_tag_basis(f: Endomorphism, stats: RunStats):
    """``_tag_basis(f)`` under the budgets of ``stats``, charging its
    Buchberger work to ``stats`` only when this call computed it; a cache hit
    did no S-pair work."""
    misses = _tag_basis.cache_info().misses
    basis, basis_stats = _tag_basis(f, stats.spair_budget, stats.degree_budget)
    if _tag_basis.cache_info().misses != misses:
        stats.merge(basis_stats)
    return basis


@lru_cache(maxsize=128)
def _image_powers(f: Endomorphism, through: int):
    """All products p**k * q**l with k + l <= through, keyed by (k, l)."""
    out = {}
    pk = {0: Polynomial.constant(f.context, 1)}
    for k in range(1, through + 1):
        pk[k] = pk[k - 1] * f.p
    for k in range(through + 1):
        acc = pk[k]
        out[(k, 0)] = acc
        for l in range(1, through - k + 1):
            acc = acc * f.q
            out[(k, l)] = acc
    return out


def subring_membership(
    w: Polynomial,
    f: Endomorphism,
    *,
    stats: Optional[RunStats] = None,
) -> Optional[Polynomial]:
    """Express w as a polynomial in the two coordinate images, if possible.

    Returns G in the (u1, u2) context with G(p, q) == w, or None when w is
    not in the image subalgebra. Two routes are used: a linear solve over
    monomials in the images (fast when a small G exists), then a normal
    form against the tag-variable elimination basis, whose remainder keeps
    a plane variable exactly when w is outside the subalgebra.
    """
    if w.context != f.context:
        raise ContextMismatchError("membership query needs the map's context")
    stats = stats if stats is not None else RunStats()
    if w.is_constant():
        return Polynomial.constant(U12, w.constant_value())

    products = _image_powers(f, max(4, min(w.total_degree(), 6)))
    keys = sorted(products.keys())
    rows = [products[k].terms for k in keys]
    combo = solve_sparse(rows, w.terms)
    if combo is not None:
        terms = {}
        for (k, l), c in zip(keys, combo):
            if c:
                terms[(k, l)] = c
        G = Polynomial(U12, terms)
        return G

    basis = _cached_tag_basis(f, stats)
    wt = w.reindex(_TAG_CTX)
    rem, _ = normal_form(wt, basis, LEX, stats=stats)
    if any(e[0] or e[1] for e in rem.terms):
        return None
    return rem.reindex(U12)


def clear_caches() -> None:
    """Drop memoized per-map bases and image power tables."""
    _tag_basis.cache_clear()
    _image_powers.cache_clear()
