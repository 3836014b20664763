"""Independent reference implementations used to check the package.

Everything here is written for clarity over speed and avoids the package's
optimized code paths, so agreement between the two is meaningful.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from keller.poly import Polynomial


# -- reference products and substitution -------------------------------------


def reference_mul(a, b):
    """Schoolbook product: one Fraction multiply and add per pair of terms."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Polynomial(a.context, out)


def reference_substitute(p, images):
    """Term by term: each coefficient times its images multiplied out one
    factor at a time with ``reference_mul``, no powers shared."""
    names = p.context.names
    target = images[names[0]].context
    out = {}
    for exps, c in p.terms.items():
        term = Polynomial.constant(target, c)
        for name, e in zip(names, exps):
            for _ in range(e):
                term = reference_mul(term, images[name])
        for m, v in term.terms.items():
            out[m] = out.get(m, Fraction(0)) + v
    return Polynomial(target, out)


# -- reference monomial orders ------------------------------------------------


def _sign(x):
    return (x > 0) - (x < 0)


def _reference_grevlex(a, b):
    """Higher total degree wins; at equal degree, the monomial with the
    smaller exponent at the last place where they differ wins."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(y - x)
    return 0


def reference_compare(a, b, order):
    """-1, 0 or 1 as exponent tuple a is below, equal to or above b, read
    off the textbook definitions of lex, grevlex and block(k) (grevlex on
    the first k variables, ties broken grevlex on the rest)."""
    if order.kind == "lex":
        for x, y in zip(a, b):
            if x != y:
                return _sign(x - y)
        return 0
    if order.kind == "grevlex":
        return _reference_grevlex(a, b)
    k = order.k
    return _reference_grevlex(a[:k], b[:k]) or _reference_grevlex(a[k:], b[k:])


# -- reference Groebner reduction ---------------------------------------------


def reference_normal_form(f, basis, order):
    """Textbook full reduction with Fraction arithmetic throughout."""
    if f.is_zero() or not basis:
        return f
    ctx = f.context
    keyf = order.key_func(ctx.arity)
    leads = [max(b.terms, key=keyf) for b in basis]
    rem = Polynomial.zero(ctx)
    work = f
    while not work.is_zero():
        e = max(work.terms, key=keyf)
        c = work.terms[e]
        hit = None
        for b, lt in zip(basis, leads):
            if all(a >= t for a, t in zip(e, lt)):
                hit = (b, lt)
                break
        if hit is None:
            mono = Polynomial.monomial(ctx, e, c)
            rem = rem + mono
            work = work - mono
            continue
        b, lt = hit
        shift = tuple(a - t for a, t in zip(e, lt))
        factor = Polynomial.monomial(ctx, shift, c / b.terms[lt])
        work = work - factor * b
    return rem


def spoly(a, b, order):
    """S-polynomial over Q."""
    ctx = a.context
    keyf = order.key_func(ctx.arity)
    la = max(a.terms, key=keyf)
    lb = max(b.terms, key=keyf)
    lcm = tuple(max(i, j) for i, j in zip(la, lb))
    ma = Polynomial.monomial(ctx, tuple(i - j for i, j in zip(lcm, la)), 1 / a.terms[la])
    mb = Polynomial.monomial(ctx, tuple(i - j for i, j in zip(lcm, lb)), 1 / b.terms[lb])
    return ma * a - mb * b


def is_groebner_basis(basis, order, generators=()):
    """Buchberger criterion plus containment of the original generators."""
    for g in generators:
        if not reference_normal_form(g, basis, order).is_zero():
            return False
    for a, b in combinations(basis, 2):
        if not reference_normal_form(spoly(a, b, order), basis, order).is_zero():
            return False
    return True


# -- reference factorization by undetermined coefficients ---------------------
#
# Factors polynomials in one or two variables of total degree at most 4 over
# Q, using only classical hand methods: rational root enumeration, the
# resolvent cubic for quartic 2+2 splits, and small linear systems pinning
# down candidate factor coefficients from evaluations. Nothing here touches
# the package's factorization code paths.


def _u_strip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _u_deg(a):
    return len(a) - 1


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _u_strip(out)


def _u_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _u_strip(out)


def _u_scale(a, c):
    return _u_strip([x * c for x in a])


def _u_eval(a, c):
    acc = Fraction(0)
    for x in reversed(a):
        acc = acc * c + x
    return acc


def _u_divmod(a, b):
    if not b:
        raise ZeroDivisionError("reference division by zero polynomial")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and _u_strip(r):
        r = _u_strip(r)
        if len(r) < len(b):
            break
        c = Fraction(r[-1], b[-1])
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = _u_strip(r)
    return _u_strip(q), _u_strip(r)


def _u_exact_div(a, b):
    q, r = _u_divmod(a, b)
    return q if not r else None


def _u_gcd(a, b):
    a, b = _u_strip(a), _u_strip(b)
    while b:
        a, b = b, _u_divmod(a, b)[1]
    if a:
        a = _u_scale(a, Fraction(1, a[-1]))
    return a


def reference_xgcd(a, b):
    """(s, t) with s*a + t*b == 1 for coprime a, b: the extended Euclidean
    algorithm over Q, one Fraction long division per step."""
    r0, r1 = _u_strip(a), _u_strip(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _u_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _u_sub(s0, _u_mul(q, s1))
        t0, t1 = t1, _u_sub(t0, _u_mul(q, t1))
    if _u_deg(r0) != 0:
        raise ValueError("expected coprime polynomials")
    inv = Fraction(1, r0[0])
    return _u_scale(s0, inv), _u_scale(t0, inv)


def _u_int_primitive(a):
    """Scale a Fraction list to a primitive integer list with positive lead."""
    a = _u_strip(a)
    if not a:
        return []
    from math import gcd, lcm

    den = 1
    for c in a:
        den = lcm(den, Fraction(c).denominator)
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(a):
    """All rational roots of an integer coefficient list, without multiplicity."""
    a = _u_strip(a)
    if _u_deg(a) < 1:
        return []
    roots = set()
    if a[0] == 0:
        roots.add(Fraction(0))
        while a and a[0] == 0:
            a = a[1:]
        a = _u_strip(a)
        if _u_deg(a) < 1:
            return sorted(roots)
    for p in _divisors(a[0]):
        for q in _divisors(a[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _u_eval(a, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _fraction_sqrt(c):
    """Exact square root of a nonnegative Fraction, or None."""
    from math import isqrt

    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quartic_quadratic_split(m):
    """Split a monic rational quartic with no rational roots into two monic
    quadratics, via the resolvent cubic of the depressed form. Returns a pair
    of coefficient lists or None when the quartic is irreducible over Q."""
    c0, c1, c2, c3 = m[0], m[1], m[2], m[3]
    s = c3 / 4
    # substitute x -> t - s and read off t^4 + p t^2 + q t + r
    p = c2 - 6 * s * s
    q = c1 - 2 * c2 * s + 8 * s**3
    r = c0 - c1 * s + c2 * s * s - 3 * s**4
    resolvent = [-q * q, p * p - 4 * r, 2 * p, Fraction(1)]
    pair = None
    for z in _rational_roots(_u_int_primitive(resolvent)) + [Fraction(0)]:
        if _u_eval(resolvent, z) != 0 or z < 0:
            continue
        a = _fraction_sqrt(z)
        if a is None:
            continue
        if a == 0:
            if q != 0:
                continue
            disc = _fraction_sqrt(p * p - 4 * r)
            if disc is None:
                continue
            b, e = (p + disc) / 2, (p - disc) / 2
        else:
            diff = q / a
            b = (p + z - diff) / 2
            e = (p + z + diff) / 2
            if b * e != r:
                continue
        pair = ([b, a, Fraction(1)], [e, -a, Fraction(1)])
        break
    if pair is None:
        return None
    # undo the shift t = x + s in each quadratic
    out = []
    for g in pair:
        b0, b1 = g[0], g[1]
        out.append([b0 + b1 * s + s * s, b1 + 2 * s, Fraction(1)])
    return out


def reference_factor_univariate(a):
    """Irreducible factors (with repetition) of a univariate Fraction list of
    degree at most 4, each a primitive integer list with positive lead."""
    a = _u_strip([Fraction(c) for c in a])
    if _u_deg(a) > 4:
        raise ValueError("the reference method stops at degree 4")
    out = []
    work = list(a)
    if _u_deg(work) < 1:
        return out
    ints = _u_int_primitive(work)
    for root in _rational_roots(ints):
        lin = [-root, Fraction(1)]
        while True:
            q = _u_exact_div(work, lin)
            if q is None:
                break
            out.append(_u_int_primitive(lin))
            work = q
    d = _u_deg(work)
    if d in (2, 3):
        # no rational roots left, so no linear factor; degree 2 and 3 are done
        out.append(_u_int_primitive(work))
    elif d == 4:
        monic = _u_scale(work, Fraction(1, work[-1]))
        split = _quartic_quadratic_split(monic)
        if split is None:
            out.append(_u_int_primitive(work))
        else:
            out.extend(_u_int_primitive(g) for g in split)
    check = [Fraction(1)]
    for g in out:
        check = _u_mul(check, [Fraction(c) for c in g])
    lead = a[-1] / check[-1] if check else a[-1]
    if _u_sub(a, _u_scale(check, lead)):
        raise AssertionError("reference univariate factors fail to multiply back")
    return out


def reference_nullity(matrix):
    """Dimension of the nullspace of a dense matrix, by Gauss-Jordan
    elimination over Q with every pivot row scaled to 1."""
    if not matrix:
        return 0
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1, rows[r][col])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        col += 1
    return ncols - rank


# Two-variable polynomials are dense grids: G[i][j] is the coefficient of
# x^i y^j. Everything below keeps total degree at most 4, so grids are tiny.


def _b_strip(F):
    F = [dict((j, c) for j, c in row.items() if c) for row in F]
    while F and not F[-1]:
        F.pop()
    return F


def _b_from_terms(terms):
    F = []
    for (i, j), c in terms.items():
        while len(F) <= i:
            F.append({})
        F[i][j] = F[i].get(j, Fraction(0)) + Fraction(c)
    return _b_strip(F)


def _b_to_terms(F):
    return {
        (i, j): c for i, row in enumerate(F) for j, c in row.items() if c
    }


def _b_deg_x(F):
    return len(F) - 1


def _b_deg_y(F):
    return max((j for row in F for j in row), default=-1)


def _b_is_zero(F):
    return not F


def _b_mul(F, G):
    out = []
    for i, row in enumerate(F):
        for j, c in row.items():
            for k, other in enumerate(G):
                for l, d in other.items():
                    while len(out) <= i + k:
                        out.append({})
                    out[i + k][j + l] = out[i + k].get(j + l, Fraction(0)) + c * d
    return _b_strip(out)


def _b_sub(F, G):
    out = [dict(row) for row in F]
    for i, row in enumerate(G):
        while len(out) <= i:
            out.append({})
        for j, c in row.items():
            out[i][j] = out[i].get(j, Fraction(0)) - c
    return _b_strip(out)


def _b_row(F, i):
    if i >= len(F):
        return []
    row = F[i]
    if not row:
        return []
    out = [Fraction(0)] * (max(row) + 1)
    for j, c in row.items():
        out[j] = c
    return _u_strip(out)


def _b_from_rows(rows):
    F = []
    for i, r in enumerate(rows):
        F.append({j: c for j, c in enumerate(r) if c})
    return _b_strip(F)


def _b_eval_y(F, c):
    return _u_strip([_u_eval(_b_row(F, i), c) for i in range(len(F))])


def _b_exact_div(F, G):
    """Quotient in Q[y][x] or None. Each step divides the top x-coefficient
    exactly in Q[y]; any failure or leftover remainder means no division."""
    k = _b_deg_x(G)
    lead = _b_row(G, k)
    rem = [dict(row) for row in F]
    qrows = {}
    while not _b_is_zero(_b_strip(rem)):
        rem = _b_strip(rem)
        d = _b_deg_x(rem)
        if d < k:
            return None
        top = _b_row(rem, d)
        qc = _u_exact_div(top, lead)
        if qc is None:
            return None
        qrows[d - k] = qc
        piece = _b_mul(_b_from_rows([[Fraction(0)]] * (d - k) + [qc]), G)
        rem = _b_sub(rem, piece)
    rows = [[Fraction(0)]] * (max(qrows, default=0) + 1)
    for i, r in qrows.items():
        rows[i] = r
    return _b_from_rows(rows)


def _b_int_primitive(F):
    from math import gcd, lcm

    den = 1
    for row in F:
        for c in row.values():
            den = lcm(den, c.denominator)
    g = 0
    for row in F:
        for c in row.values():
            g = gcd(g, int(c * den))
    lead_row = F[-1]
    lead = lead_row[max(lead_row)]
    sign = -1 if lead < 0 else 1
    return [
        {j: Fraction(int(c * den) // g * sign) for j, c in row.items()}
        for row in F
    ]


def _nullvector(rows, ncols):
    """One nonzero rational solution of a homogeneous system, or None."""
    mat = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1, mat[rank][col])
        mat[rank] = [c * inv for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [c - f * d for c, d in zip(mat[i], mat[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    sol = [Fraction(0)] * ncols
    sol[free[0]] = Fraction(1)
    for col, row in pivots.items():
        sol[col] = -mat[row][free[0]]
    return sol


def _eval_point_stream():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def _linear_in_x_factor(F):
    """A factor g1(y) x + g0(y) with deg g1 <= 1 and deg g0 <= 2, or None.

    At five points where the top x-coefficient survives, such a factor leaves
    a rational root of the evaluated polynomial; candidate root patterns pin
    the coefficients down through a small homogeneous system.
    """
    from itertools import product as iproduct

    lead = _b_row(F, _b_deg_x(F))
    pts = []
    stream = _eval_point_stream()
    while len(pts) < 5:
        c = next(stream)
        if _u_eval(lead, c) != 0:
            pts.append(c)
    per_point = []
    for c in pts:
        u = _u_int_primitive(_b_eval_y(F, c))
        roots = _rational_roots(u)
        if not roots:
            return None
        per_point.append(roots)
    for combo in iproduct(*per_point):
        rows = []
        for c, root in zip(pts, combo):
            rows.append([Fraction(1), c, c * c, root, root * c])
        sol = _nullvector(rows, 5)
        if sol is None:
            continue
        g0, g1 = _u_strip(sol[:3]), _u_strip(sol[3:])
        if not g1:
            continue
        shared = _u_gcd(g0, g1) if g0 else []
        if shared and _u_deg(shared) > 0:
            g0 = _u_exact_div(g0, shared) if g0 else []
            g1 = _u_exact_div(g1, shared)
        G = _b_from_rows([g0 or [], g1])
        if _b_exact_div(F, G) is not None:
            return _b_int_primitive(G)
    return None


def _monic_quadratic_in_x_factor(F):
    """A monic factor x^2 + g1(y) x + g0(y) of an x-degree-4 polynomial whose
    top x-coefficient is constant; deg g1 <= 1, deg g0 <= 2. Returns None if
    no such factor divides."""
    from itertools import product as iproduct

    lead_row = _b_row(F, _b_deg_x(F))
    if _u_deg(lead_row) != 0:
        return None
    scale = Fraction(1, lead_row[0])
    M = _b_from_rows([_u_scale(_b_row(F, i), scale) for i in range(len(F))])
    pts = [Fraction(v) for v in (0, 1, -1, 2, -2)]
    per_point = []
    for c in pts:
        u = _b_eval_y(M, c)
        parts = reference_factor_univariate(u)
        quads = set()
        for i in range(len(parts)):
            if _u_deg(parts[i]) == 2:
                g = _u_scale([Fraction(x) for x in parts[i]], Fraction(1, parts[i][-1]))
                quads.add((g[1], g[0]))
            for j in range(i + 1, len(parts)):
                if _u_deg(parts[i]) == 1 and _u_deg(parts[j]) == 1:
                    g = _u_mul(
                        _u_scale([Fraction(x) for x in parts[i]], Fraction(1, parts[i][-1])),
                        _u_scale([Fraction(x) for x in parts[j]], Fraction(1, parts[j][-1])),
                    )
                    quads.add((g[1], g[0]))
        if not quads:
            return None
        per_point.append(sorted(quads))
    c0, c1, c2 = pts[0], pts[1], pts[2]
    for combo in iproduct(*per_point):
        s = [entry[0] for entry in combo]
        t = [entry[1] for entry in combo]
        # g1 has degree <= 1: read it off two points, check the rest
        b1 = (s[1] - s[0]) / (c1 - c0)
        a1 = s[0] - b1 * c0
        if any(a1 + b1 * c != v for c, v in zip(pts[2:], s[2:])):
            continue
        # g0 has degree <= 2: three points determine it
        d01 = (t[1] - t[0]) / (c1 - c0)
        d12 = (t[2] - t[1]) / (c2 - c1)
        a2 = (d12 - d01) / (c2 - c0)
        g0 = [
            t[0] - d01 * c0 + a2 * c0 * c1,
            d01 - a2 * (c0 + c1),
            a2,
        ]
        if any(_u_eval(g0, c) != v for c, v in zip(pts[3:], t[3:])):
            continue
        G = _b_from_rows([_u_strip(g0), _u_strip([a1, b1]), [Fraction(1)]])
        if _b_exact_div(M, G) is not None:
            return _b_int_primitive(G)
    return None


def _b_factor_rec(F):
    F = _b_strip(F)
    if _b_is_zero(F) or (_b_deg_x(F) == 0 and _b_deg_y(F) == 0):
        return []
    if _b_deg_x(F) == 0:
        return [
            _b_from_rows([[Fraction(c) for c in g]])
            for g in reference_factor_univariate(_b_row(F, 0))
        ]
    if _b_deg_y(F) == 0:
        return [
            _b_from_rows([[Fraction(c)] for c in g])
            for g in reference_factor_univariate(
                [row.get(0, Fraction(0)) for row in F]
            )
        ]
    # pure-y content: common divisor of all x-coefficient rows
    cont_y = []
    for i in range(len(F)):
        cont_y = _u_gcd(cont_y, _b_row(F, i))
    out = []
    work = F
    if _u_deg(cont_y) > 0:
        out.extend(
            _b_from_rows([[Fraction(c) for c in g]])
            for g in reference_factor_univariate(cont_y)
        )
        work = _b_exact_div(work, _b_from_rows([cont_y]))
    # pure-x content: common divisor of all y-coefficient columns
    cols = {}
    for i, row in enumerate(work):
        for j, c in row.items():
            cols.setdefault(j, {})[i] = c
    cont_x = []
    for col in cols.values():
        as_list = [Fraction(0)] * (max(col) + 1)
        for i, c in col.items():
            as_list[i] = c
        cont_x = _u_gcd(cont_x, _u_strip(as_list))
    if _u_deg(cont_x) > 0:
        out.extend(
            _b_from_rows([[Fraction(c)] for c in g])
            for g in reference_factor_univariate(cont_x)
        )
        work = _b_exact_div(work, _b_from_rows([[c] for c in cont_x]))
    if _b_deg_x(work) == 0 and _b_deg_y(work) == 0:
        return out
    if _b_deg_x(work) == 0 or _b_deg_y(work) == 0:
        return out + _b_factor_rec(work)
    if _b_deg_x(work) == 1:
        # mixed with both contents stripped: a proper factor would need
        # x-degree zero, which a content split would have caught
        return out + [_b_int_primitive(work)]
    g = _linear_in_x_factor(work)
    if g is None and _b_deg_x(work) == 4:
        g = _monic_quadratic_in_x_factor(work)
    if g is None:
        return out + [_b_int_primitive(work)]
    rest = _b_exact_div(work, g)
    return out + _b_factor_rec(g) + _b_factor_rec(rest)


def reference_factor_bivariate(p, max_degree=4):
    """Irreducible factors with multiplicities for a Polynomial in at most
    two variables of total degree at most 4. Returns a sorted list of
    (normalized Polynomial, multiplicity) pairs; content is dropped.

    A caller may raise max_degree, but above 4 the search is incomplete:
    it finds factors g1(y) x + g0(y) with deg g1 <= 1 and deg g0 <= 2, and
    a leftover of x-degree 2 or more is returned as it is, irreducible or
    not. Factors of x-degree 1 are irreducible, being primitive in x."""
    ctx = p.context
    if ctx.arity != 2:
        raise ValueError("the reference method expects a two-variable context")
    if max((sum(e) for e in p.terms), default=0) > max_degree:
        raise ValueError(f"the reference method stops at total degree {max_degree}")
    F = _b_from_terms({(e[0], e[1]): c for e, c in p.terms.items()})
    raw = _b_factor_rec(F)
    check = _b_from_terms({(0, 0): Fraction(1)})
    for G in raw:
        check = _b_mul(check, G)
    quot = _b_exact_div(F, check)
    if quot is None or _b_deg_x(quot) != 0 or _b_deg_y(quot) != 0:
        raise AssertionError("reference bivariate factors fail to multiply back")
    merged = {}
    for G in raw:
        poly = Polynomial(ctx, _b_to_terms(G)).normalized()
        merged[poly] = merged.get(poly, 0) + 1
    return sorted(merged.items(), key=lambda t: (t[0].total_degree(), str(t[0])))


# -- reference expression evaluation ------------------------------------------

_SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _literal(draw, context):
    num = draw(st.integers(0, 12))
    den = draw(st.sampled_from([None, 1, 2, 3, 7]))
    text = str(num) if den is None else f"{num}{draw(_SPACE)}/{draw(_SPACE)}{den}"
    return text, Polynomial.constant(context, Fraction(num, den or 1))


@st.composite
def _factor(draw, context, depth):
    """factor := atom ('^' NAT)? | '-' factor, as (text, value)."""
    kind = draw(st.sampled_from(["literal", "variable", "paren", "neg"][: 4 if depth else 2]))
    if kind == "neg":
        text, value = draw(_factor(context, depth - 1))
        return f"-{draw(_SPACE)}{text}", -value
    if kind == "literal":
        text, value = draw(_literal(context))
    elif kind == "variable":
        name = draw(st.sampled_from(context.names))
        text, value = name, Polynomial.variable(context, name)
    else:
        inner, value = draw(expressions(context, depth - 1))
        text = f"({draw(_SPACE)}{inner}{draw(_SPACE)})"
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        text, value = f"{text}{draw(_SPACE)}^{draw(_SPACE)}{n}", value**n
    return text, value


@st.composite
def _term(draw, context, depth):
    text, value = draw(_factor(context, depth))
    for _ in range(draw(st.integers(0, 2))):
        more, factor = draw(_factor(context, depth))
        if more.startswith("-") or draw(st.booleans()):
            text = f"{text}{draw(_SPACE)}*{draw(_SPACE)}{more}"
        else:
            # juxtaposition needs a space, else "x y" would read as "xy"
            text = f"{text} {draw(_SPACE)}{more}"
        value = value * factor
    return text, value


@st.composite
def expressions(draw, context, depth=2):
    """(text, value): a random expression of the parse_poly grammar over the
    context's variables, and its value built with Polynomial operators.
    Sums, differences, products with and without '*', unary minus, powers
    of literals, variables and parenthesized sums, rational literals and
    random whitespace; depth bounds the nesting of parentheses."""
    text, value = draw(_term(context, depth))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-"))
        more, term = draw(_term(context, depth))
        text = f"{text}{draw(_SPACE)}{op}{draw(_SPACE)}{more}"
        value = value + term if op == "+" else value - term
    return text, value
