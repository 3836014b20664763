"""Groebner bases over Q on packed integer rows.

The engine works on primitive integer rows: reductions scale the
polynomial being reduced instead of dividing, so no Fraction arithmetic
happens in the hot loop. Public results are converted back to canonical
`Polynomial` values. Reduced bases are deterministic: elements are
canonically normalized and sorted by their leading monomial, so two runs
over shuffled generators produce identical output.

Every monomial of a row is one packed integer key. ``MonomialOrder.fields``
maps an exponent tuple to n order fields, whose tuple comparison is the
order: lex, the exponents; grevlex, (d, x1 + ... + x(n-1), ..., x1) with d
the total degree; block(k), the grevlex fields of e[:k], then those of
e[k:]. A key holds, from the top, the n order fields, then the n plain
exponents, then the total degree, each in a field of w bits whose top bit,
the guard, is zero in every key. Each field is a sum of exponents, so a key
is linear in the exponents, and adding two keys multiplies their monomials
as long as no field reaches its guard bit. Integer order on keys is the
monomial order: the order fields decide, and they fix the monomial, so the
plain exponents and the degree below them never break a tie. With G the
key of all guard bits, the monomial of a divides that of k exactly when
((k | G) - a) & G == G: each field computes k_f + 2**(w-1) - a_f, which
keeps its guard bit exactly when k_f >= a_f and never borrows from the
field above; on the plain exponents that is divisibility, and the other
fields, being sums of exponents, follow. That difference minus G is the
key of the quotient, and ``key & mask`` is the degree.

Field width. Let B be the larger of the degree budget, the degree of every
input of the computation and the degree of every basis element formed so
far. Every field of a key is at most the total degree of its monomial, and
no key ever formed exceeds degree 3B:

* every row term has degree at most B, by the choice of B;
* the lcm L of two leading terms has degree at most 2B, and an
  S-polynomial term t * L / lt_i has degree at most 2B, because L / lt_i
  divides lt_j;
* a reduction refuses any term it creates above the degree budget, so
  every term waiting in a reduction has degree at most 2B, and one step
  forms m * e / lt from a row term m and a waiting term e, of degree at
  most B + 2B before the degree check;
* so a new basis element has degree at most 2B (an S-polynomial term that
  no leading term divides passes a reduction unchanged) and its keys are
  exact in the current layout. When it exceeds B, B grows to its degree
  and ``_buchberger_rows`` re-keys the rows and the pending pairs for the
  new B before anything else is formed; integer order is the monomial
  order in both layouts, so the pair queue keeps its order.

So fields of bit_length(3B) bits plus the guard never overflow.

Resource use is capped by the budgets in ``RunStats``: a basis
computation raises ResourceCapExceeded when it processes more S-pairs than
``spair_budget``, counted from its own start, and a reduction raises it
when it creates a term of total degree above ``degree_budget``. A basis
computation also raises it when a new basis element, or the polynomial
being reduced right after a step scales it, has an integer coefficient
longer than ``MAX_COEFF_BITS`` bits.

The lex basis of the tag ideal (u1 - p, u2 - q) with y > x > u1 > u2 is
computed once per map and budget and read once, by (x, y)-lead, into
polynomials in x, y over Q[u1, u2] (``_tag_basis``). Only this module knows
the basis's variable layout: ``tag_basis_by_lead`` hands the reading to
``pipeline.invert`` and ``funcfield.shape_basis``, and ``subring_membership``
reduces against the raw basis.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
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
MAX_COEFF_BITS = 4096


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


def _grevlex_fields(e: tuple) -> tuple:
    """(d, x1 + ... + x(n-1), ..., x1): the partial sums, longest first."""
    out = []
    s = 0
    for x in e:
        s += x
        out.append(s)
    return tuple(reversed(out))


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

    def fields(self, e: tuple) -> tuple:
        """The order fields of an exponent tuple; comparing them is the order.

        lex: the exponents; grevlex: (d, x1 + ... + x(n-1), ..., x1);
        block(k): the grevlex fields of e[:k], then those of e[k:].
        """
        if self.kind == "lex":
            return tuple(e)
        if self.kind == "grevlex":
            return _grevlex_fields(e)
        return _grevlex_fields(e[: self.k]) + _grevlex_fields(e[self.k :])

    def key_func(self, arity: int):
        """The sort key of exponent tuples of the given arity: ``fields``."""
        if self.kind == "block" and self.k >= arity:
            raise ValueError(f"block width {self.k} must be below arity {arity}")
        return self.fields


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(k: int) -> MonomialOrder:
    return MonomialOrder("block", k)


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


# -- integer fraction-free engine on packed keys ----------------------------
#
# A "row" is (lead, lc, tail): the packed key of the leading monomial, its
# coefficient, positive, and a list of (key, coefficient) pairs for the
# other terms, all integers with no common factor. A "layout" is
# (weights, shifts, mask, guard): the key of each variable, so that the key
# of e is sum(e_i * weights[i]); the bit offset of each plain exponent
# field; the field mask; and the guard bits. Fields are ordered as in the
# module docstring and sized for 3B.


@lru_cache(maxsize=16)
def _key_layout(order: MonomialOrder, arity: int, bound: int) -> tuple:
    w = (3 * max(bound, 1)).bit_length() + 1
    fields = order.key_func(arity)
    # from the top: n order fields, n plain exponents, the total degree
    top = 2 * arity
    weights = []
    for i in range(arity):
        unit = tuple(int(j == i) for j in range(arity))
        k = 1 + (1 << w * (top - arity - i))
        for j, f in enumerate(fields(unit)):
            k += f << w * (top - j)
        weights.append(k)
    shifts = tuple(w * (top - arity - i) for i in range(arity))
    guard = sum(1 << w * j + w - 1 for j in range(top + 1))
    return tuple(weights), shifts, (1 << w) - 1, guard


def _key(e: tuple, weights: tuple) -> int:
    return sum([x * k for x, k in zip(e, weights)])


def _exponents(key: int, layout: tuple) -> tuple:
    _, shifts, mask, _ = layout
    return tuple([key >> s & mask for s in shifts])


def _check_coeffs(coeffs: Iterable[int]) -> None:
    """Raise ResourceCapExceeded if an integer is longer than MAX_COEFF_BITS."""
    bits = max(map(int.bit_length, coeffs), default=0)
    if bits > MAX_COEFF_BITS:
        raise ResourceCapExceeded(
            f"a {bits}-bit coefficient exceeds the cap of {MAX_COEFF_BITS} bits"
        )


def _int_terms(p: Polynomial, weights: tuple):
    """(terms, g): p == g / p.den * terms, terms a primitive integer term
    map on packed keys."""
    g = math.gcd(*p.num.values())
    return {_key(e, weights): c // g for e, c in p.num.items()}, g


def _row(terms: dict) -> tuple:
    lead = max(terms)
    lc = terms[lead]
    if lc < 0:
        return lead, -lc, [(k, -c) for k, c in terms.items() if k != lead]
    return lead, lc, [(k, c) for k, c in terms.items() if k != lead]


def _row_terms(row: tuple) -> dict:
    lead, lc, tail = row
    terms = dict(tail)
    terms[lead] = lc
    return terms


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


def _reduce_int(terms: dict, rows: Sequence[tuple], layout: tuple, stats: RunStats):
    """Fully reduce an integer term map against rows.

    Returns (reduced_terms, lam_num, lam_den) with
    lam_num / lam_den * input == reduced + (ideal member), both positive
    integers. The next term is popped from a max-heap of keys;
    a key cancelled while waiting stays in the heap and is skipped when
    popped, and a key enters the heap only when it enters ``work``.
    """
    budget = stats.degree_budget
    _, _, mask, guard = layout
    work = dict(terms)
    heap = [-k for k in work]
    heapify(heap)
    out: dict = {}
    lam_num = 1
    lam_den = 1
    steps = 0
    while heap:
        e = -heappop(heap)
        c = work.pop(e, 0)
        if not c:
            continue
        eg = e | guard
        for rlt, rlc, rtail in rows:
            shift = eg - rlt
            if shift & guard == guard:
                break
        else:
            out[e] = c
            continue
        shift -= guard
        g = math.gcd(c, rlc)
        scale = rlc // g
        ratio = c // g
        if scale != 1:
            lam_num *= scale
            for k in work:
                work[k] *= scale
            for k in out:
                out[k] *= scale
            _check_coeffs(work.values())
            _check_coeffs(out.values())
        for me, mc in rtail:
            ke = me + shift
            v = work.get(ke)
            if v is None:
                d = ke & mask
                if d > stats.max_degree:
                    stats.max_degree = d
                if d > budget:
                    raise ResourceCapExceeded(
                        f"intermediate degree {d} exceeds the cap {budget}"
                    )
                work[ke] = -ratio * mc
                heappush(heap, -ke)
            else:
                v -= ratio * mc
                if v:
                    work[ke] = v
                else:
                    del work[ke]
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
            _check_coeffs(work.values())
            _check_coeffs(out.values())
    return out, lam_num, lam_den


def _spoly_int(row_i: tuple, row_j: tuple, lcm: int) -> dict:
    lti, ci, ti = row_i
    ltj, cj, tj = row_j
    g = math.gcd(ci, cj)
    mi = lcm - lti
    mj = lcm - ltj
    fi = cj // g
    fj = ci // g
    # the leading terms cancel
    out = {e + mi: fi * c for e, c in ti}
    for e, c in tj:
        k = e + mj
        v = out.get(k, 0) - fj * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _rekey(key: int, old: tuple, weights: tuple) -> int:
    """A key of layout ``old``, keyed again by ``weights``."""
    return _key(_exponents(key, old), weights)


def _buchberger_rows(
    gens: List[dict], order: MonomialOrder, layout: tuple, bound: int, stats: RunStats
) -> tuple:
    """(rows, layout): a Groebner basis of ``gens`` as rows, and the layout
    they are keyed in, which is ``layout`` unless a basis element outgrew
    ``bound``."""
    weights, shifts, mask, guard = layout
    rows: List[tuple] = []
    leads: List[tuple] = []

    def add_row(terms: dict) -> None:
        _check_coeffs(terms.values())
        row = _row(terms)
        rows.append(row)
        leads.append(_exponents(row[0], layout))

    for terms in gens:
        add_row(dict(terms))

    heap: list = []

    def push_pair(i: int, j: int) -> None:
        L = _key(tuple(map(max, leads[i], leads[j])), weights)
        heappush(heap, (L & mask, L, i, j))

    for j in range(len(rows)):
        for i in range(j):
            push_pair(i, j)
    done = set()
    spairs = 0
    while heap:
        _, L, i, j = heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        if L == rows[i][0] + rows[j][0]:
            continue  # coprime leading terms never yield new information
        skip = False
        Lg = L | guard
        for k in range(len(rows)):
            if k == i or k == j:
                continue
            if (Lg - rows[k][0]) & guard == guard:
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
        r = _reduce_int(s, rows, layout, stats)[0]
        if not r:
            continue
        d = max([k & mask for k in r])
        stats.note_degree(d)
        _content_strip(r)
        if d > bound:
            # r is within 2B, so exact in the old layout; re-key everything
            # for B = d (the width argument in the module docstring)
            old, bound = layout, d
            layout = _key_layout(order, len(shifts), bound)
            weights, shifts, mask, guard = layout
            rows[:] = [
                (
                    _rekey(lt, old, weights),
                    lc,
                    [(_rekey(k, old, weights), c) for k, c in tail],
                )
                for lt, lc, tail in rows
            ]
            r = {_rekey(k, old, weights): c for k, c in r.items()}
            heap[:] = [(dg, _rekey(K, old, weights), a, b) for dg, K, a, b in heap]
        add_row(r)
        new = len(rows) - 1
        for t in range(new):
            push_pair(t, new)
    return rows, layout


def _minimalize_rows(rows: List[tuple], guard: int) -> List[tuple]:
    kept: List[tuple] = []
    for row in sorted(rows, key=lambda row: row[0]):
        lg = row[0] | guard
        if all((lg - r[0]) & guard != guard for r in kept):
            kept.append(row)
    return kept


def _interreduce_rows(rows: List[tuple], layout: tuple, stats: RunStats) -> List[tuple]:
    out = list(rows)
    for i in range(len(out)):
        others = out[:i] + out[i + 1 :]
        r = _reduce_int(_row_terms(out[i]), others, layout, stats)[0]
        _content_strip(r)
        out[i] = _row(r)
    out.sort(key=lambda row: row[0], reverse=True)
    return out


def _rows_to_polys(
    context: VarContext, rows: Sequence[tuple], layout: tuple
) -> List[Polynomial]:
    return [
        Polynomial._raw(
            context, {_exponents(k, layout): c for k, c in _row_terms(row).items()}
        )
        for row in rows
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
    degrees = [g.total_degree() for g in ideal.generators]
    for d in degrees:
        stats.note_degree(d)
    bound = max(stats.degree_budget, *degrees)
    layout = _key_layout(order, ideal.context.arity, bound)
    gens = [_int_terms(g, layout[0])[0] for g in ideal.generators]
    rows, layout = _buchberger_rows(gens, order, layout, bound, stats)
    rows = _minimalize_rows(rows, layout[3])
    rows = _interreduce_rows(rows, layout, stats)
    return _rows_to_polys(ideal.context, rows, layout)


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
    bound = max(stats.degree_budget, f.total_degree(), *[b.total_degree() for b in basis])
    layout = _key_layout(order, f.context.arity, bound)
    rows = [_row(_int_terms(b, layout[0])[0]) for b in basis]
    terms, g = _int_terms(f, layout[0])
    reduced, lam_num, lam_den = _reduce_int(terms, rows, layout, stats)
    # f == g / f.den * terms and lam * terms == reduced + (ideal member)
    scale = g * lam_den
    rem = Polynomial._make(
        f.context,
        {_exponents(k, layout): scale * c for k, c in reduced.items()},
        f.den * lam_num,
    )
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
    elim = [b for b in basis if all(e[0] == 0 for e in b.num)]
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
    split = {}
    for exps, c in H.num.items():
        split.setdefault(exps[2], {})[(exps[0], exps[1])] = c
    coeffs = tuple(Polynomial._make(U12, split.get(i, {}), H.den) for i in range(r + 1))
    return KernelGenerator(H, r, coeffs)


# -- membership in the image subalgebra -------------------------------------

_TAG_CTX = VarContext(("y", "x", "u1", "u2"))


def _by_lead(basis) -> dict:
    """Each element of a lex tag basis as a polynomial in x, y over Q[u1, u2],
    {(deg_x, deg_y): coefficient in U12}, keyed by its (x, y)-lead, the lex
    max of its (y, x, u1, u2) tuples; of elements sharing a lead, the first."""
    out = {}
    for b in basis:
        grouped: dict = {}
        for (ey, ex, e1, e2), n in b.num.items():
            grouped.setdefault((ex, ey), {})[(e1, e2)] = n
        ey, ex = max(b.num)[:2]
        coeffs = {e: Polynomial._make(U12, t, b.den) for e, t in grouped.items()}
        out.setdefault((ex, ey), coeffs)
    return out


@lru_cache(maxsize=128)
def _tag_basis(f: Endomorphism, spair_budget: int, degree_budget: int):
    """Reduced lex basis of the tag ideal (u1 - p, u2 - q), and its ``_by_lead``.

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
    basis = tuple(buchberger(Ideal(_TAG_CTX, [g1, g2]), LEX, stats=stats))
    return basis, _by_lead(basis), stats


def _cached_tag_basis(f: Endomorphism, stats: RunStats):
    """(basis, by_lead) of ``_tag_basis(f)`` under the budgets of ``stats``,
    which is charged its Buchberger work only when this call did it."""
    misses = _tag_basis.cache_info().misses
    basis, by_lead, basis_stats = _tag_basis(f, stats.spair_budget, stats.degree_budget)
    if _tag_basis.cache_info().misses != misses:
        stats.merge(basis_stats)
    return basis, by_lead


def tag_basis_by_lead(f: Endomorphism, stats: Optional[RunStats] = None) -> dict:
    """The cached tag basis as ``_by_lead``; ``invert`` and ``shape_basis`` read it."""
    return _cached_tag_basis(f, RunStats() if stats is None else stats)[1]


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
    # solved on the stored numerators: c' with sum c'_kl * num_kl == w.num
    # gives w == sum c'_kl * den_kl / w.den * p**k * q**l
    combo = solve_sparse([products[k].num for k in keys], w.num)
    if combo is not None:
        return Polynomial(
            U12, {k: c * products[k].den / w.den for k, c in zip(keys, combo) if c}
        )

    basis, _ = _cached_tag_basis(f, stats)
    wt = w.reindex(_TAG_CTX)
    rem, _ = normal_form(wt, basis, LEX, stats=stats)
    if any(e[0] or e[1] for e in rem.num):
        return None
    return rem.reindex(U12)


def clear_caches() -> None:
    """Drop memoized per-map bases and image power tables."""
    _tag_basis.cache_clear()
    _image_powers.cache_clear()
