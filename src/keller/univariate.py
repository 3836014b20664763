"""Dense univariate arithmetic and squarefree factorization over Z.

Polynomials are dense lists, ascending degree, no trailing zeros. This
module is the package's one home for that format: one helper per
operation and coefficient domain (Z has `add`/`sub`/`mul`/`strip`, the
exact division `_quo_z`, the division by a monic divisor `_divmod_monic`,
the gcd `gcd_z` and the Bezout cofactors `_xgcd_z`, the fixed pair of the
y-adic Hensel lift; Z/m has
`_mod`/`_mul_mod`/`_divmod_mod`), and the one Zassenhaus
subset-recombination loop `_recombine`, which the bivariate factorizer in
`factor.py` shares. No coefficient is ever a fraction: where the
arithmetic is over Q, as in the Bezout cofactors, it runs on integer
multiples and hands back a common denominator.

`gcd_z` is the heuristic gcd of Char, Geddes and Gonnet (1989): one
integer gcd of the two inputs' values at a large point, read back as a
polynomial and checked by exact division in Z[x]. Its evaluation points,
`_xi_points`, are shared with the two-variable heuristic in `poly.py`;
the primitive pseudo-remainder sequence `_gcd_prs` runs only when every
point fails.

Factorization takes a squarefree input, since `factor.py` splits off the
squarefree parts first. The pipeline is classical: distinct factors modulo
a suitable prime (Berlekamp), Hensel lifting past the factor coefficient
bound, then subset recombination with trial division. Everything is exact.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import List, Tuple

from .errors import InternalInconsistencyError

IntPoly = List[int]


def strip(f: list) -> list:
    """Drop trailing zeros in place."""
    while f and not f[-1]:
        f.pop()
    return f


def deg(f: IntPoly) -> int:
    return len(f) - 1


def add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def sub(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    return strip(out)


def mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return strip(out)


def scale(f: IntPoly, c: int) -> IntPoly:
    if not c:
        return []
    return [a * c for a in f]


def derivative(f: IntPoly) -> IntPoly:
    return strip([i * c for i, c in enumerate(f)][1:])


def content(f: IntPoly) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, c)
    return g


def primitive(f: IntPoly) -> IntPoly:
    """Divide out the content and make the leading coefficient positive."""
    if not f:
        return []
    c = content(f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _quo_z(f: IntPoly, g: IntPoly):
    """f / g when g != 0 divides f in Z[x], else None.

    Long division from the top: each quotient coefficient is the current
    leading coefficient over lc(g), so the first one that is not a
    multiple of lc(g) proves that no quotient exists in Z[x].
    """
    dg = len(g) - 1
    n = len(f) - dg
    if n <= 0:
        return None if f else []
    r = list(f)
    lg = g[-1]
    q = [0] * n
    for k in range(n - 1, -1, -1):
        c, rem = divmod(r[k + dg], lg)
        if rem:
            return None
        if c:
            q[k] = c
            for i in range(dg):
                r[k + i] -= c * g[i]
    return None if any(r[:dg]) else q


def _divmod_monic(f: IntPoly, g: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """(q, r) with f == q*g + r and deg r < deg g, for g monic in Z[x]."""
    dg = len(g) - 1
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg]
        if c:
            q[k] = c
            for i in range(dg):
                r[k + i] -= c * g[i]
    return strip(q), strip(r[:dg])


def _horner(f: IntPoly, x: int) -> int:
    """f(x), by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _xi_digits(c: int, xi: int) -> IntPoly:
    """The symmetric xi-adic digits of c, lowest first: each lies in
    (-xi/2, xi/2], and _horner(digits, xi) == c."""
    half = xi // 2
    out = []
    while c:
        r = c % xi
        if r > half:
            r -= xi
        out.append(r)
        c = (c - r) // xi
    return out


# evaluation points tried by each heuristic gcd (gcd_z, and poly._gcd_heu in
# two variables) before it gives way to its primitive PRS
_HEU_TRIES = 4


def _xi_points(height_a: int, height_b: int):
    """The evaluation points of a heuristic gcd of two inputs with these
    coefficient heights: 2 * min(height_a, height_b) + 29 first, then each
    point about 2.73 times the last."""
    xi = 2 * min(height_a, height_b) + 29
    for _ in range(_HEU_TRIES):
        yield xi
        xi = xi * 73794 // 27011


def _prem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder with content stripping along the way."""
    r = list(f)
    dg = deg(g)
    lg = g[-1]
    while r and deg(r) >= dg:
        dr = deg(r)
        lr = r[-1]
        r = sub(scale(r, lg), [0] * (dr - dg) + scale(g, lr))
        c = content(r)
        if c > 1:
            r = [a // c for a in r]
    return r


def _gcd_prs(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd of two nonzero primitive polynomials by the primitive PRS."""
    if deg(a) < deg(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, primitive(r) if r else []
    return primitive(a)


def _xgcd_z(f: IntPoly, g: IntPoly) -> Tuple[IntPoly, IntPoly, int]:
    """(s, t, d) with s*f + t*g == [d] and d > 0, for coprime f, g of
    positive degree; deg s < deg g and deg t < deg f.

    Euclid's algorithm on the triples (r, s, t) with s*f + t*g == r,
    starting from (f, 1, 0) and (g, 0, 1), where each remainder is taken by
    pseudo-division steps applied to the whole triple (Collins, J. ACM
    1967), each scaling by lc / gcd(lc, lead) only, and the new triple is
    then divided by the gcd of its three contents: dividing r alone would
    break the identity. Each triple is a
    nonzero rational multiple of the one Euclid's algorithm over Q builds,
    so s/d and t/d are its Bezout cofactors: the unique pair with s*f + t*g
    == 1 under these degree bounds.
    """
    a, b = (list(f), [1], []), (list(g), [], [1])
    while b[0]:
        dg, lg = deg(b[0]), b[0][-1]
        while deg(a[0]) >= dg:
            k = deg(a[0]) - dg
            c = math.gcd(lg, a[0][-1])
            u, v = lg // c, a[0][-1] // c
            a = tuple(sub(scale(p, u), [0] * k + scale(q, v)) for p, q in zip(a, b))
        c = math.gcd(*map(content, a))
        a, b = b, tuple([x // c for x in p] for p in a)
    r, s, t = a
    if deg(r) != 0:
        raise InternalInconsistencyError("expected coprime polynomials over Q")
    if r[0] < 0:
        return [-c for c in s], [-c for c in t], -r[0]
    return s, t, r[0]


def gcd_z(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd of the primitive parts, positive leading coefficient.

    The heuristic gcd: with a and b the primitive parts, both nonzero, and
    |a|_inf the smaller height, take h = gcd(a(xi), b(xi)) at an integer
    xi >= 2 * |a|_inf + 29, and read the candidate G off the symmetric
    xi-adic digits of h, so G(xi) == h and no coefficient of G exceeds
    xi / 2 in size. By Cauchy's bound every complex root of a lies within
    |a|_inf + 1 of 0, so a nonconstant integer Q that divides a has
    |Q(xi)| >= xi - |a|_inf - 1 > xi / 2. In particular a(xi) != 0, so
    h != 0. If the primitive part P of G divides a and b exactly, it
    divides their gcd D = P * Q, and D(xi) divides h = c * P(xi), c the
    content of G; so |Q(xi)| <= |c| <= xi / 2, Q is a constant, and P is
    the gcd. A constant G gives P = 1, which divides everything: the gcd
    is 1 with no division. A failed candidate is followed by the larger
    points of `_xi_points`, and after `_HEU_TRIES` of them by the
    primitive PRS, which needs no check.
    """
    a = primitive(f)
    b = primitive(g)
    if not a:
        return b
    if not b:
        return a
    for xi in _xi_points(max(map(abs, a)), max(map(abs, b))):
        cand = primitive(_xi_digits(math.gcd(_horner(a, xi), _horner(b, xi)), xi))
        if len(cand) == 1:
            return cand
        if _quo_z(a, cand) is not None and _quo_z(b, cand) is not None:
            return cand
    return _gcd_prs(a, b)


# -- arithmetic modulo m ----------------------------------------------------------
#
# m is a prime p, or a power p**k during Hensel lifting; only divisors whose
# leading coefficient is a unit mod m are ever used (monic ones mod p**k).


def _mod(f: IntPoly, m: int) -> List[int]:
    return strip([c % m for c in f])


def _mul_mod(f, g, m):
    """f * g mod m, reduced once per coefficient of the exact product."""
    return _mod(mul(f, g), m)


def _divmod_mod(f, g, m):
    f = list(f)
    dg = deg(g)
    inv = pow(g[-1], -1, m)
    q = [0] * max(len(f) - dg, 0)
    while f and deg(f) >= dg:
        k = deg(f) - dg
        c = (f[-1] * inv) % m
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % m
        strip(f)
    return strip(q), f


def _monic_mod(f, p):
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def _gcd_mod(f, g, p):
    a, b = list(f), list(g)
    while b:
        _, r = _divmod_mod(a, b, p)
        a, b = b, r
    return _monic_mod(a, p)


def _pow_x_mod(e: int, f, p):
    """x**e modulo (f, p) by square and multiply."""
    result = [1]
    base = [0, 1]
    _, base = _divmod_mod(base, f, p)
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
    return result


def _nullspace_mod(matrix: List[List[int]], p: int) -> List[List[int]]:
    """Basis of the nullspace of a square matrix over F_p."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    pivots = {}
    r = 0
    for col in range(n):
        pr = None
        for i in range(r, n):
            if rows[i][col] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] % p:
                fct = rows[i][col]
                rows[i] = [(a - fct * b) % p for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for col, prow in pivots.items():
            v[col] = (-rows[prow][fc]) % p
        basis.append(v)
    return basis


def _berlekamp(f: List[int], p: int) -> List[List[int]]:
    """Monic irreducible factors of a squarefree monic polynomial mod p."""
    n = deg(f)
    if n == 1:
        return [list(f)]
    # rows[i] = x**(i*p) mod f
    xp = _pow_x_mod(p, f, p)
    rows = []
    acc = [1]
    for i in range(n):
        row = acc + [0] * (n - len(acc))
        rows.append(row[:n])
        if i + 1 < n:
            acc = _divmod_mod(_mul_mod(acc, xp, p), f, p)[1]
    # v is in the fixed algebra iff v * (R - I) == 0 for row vector v
    a = [[(rows[i][j] - (1 if i == j else 0)) % p for i in range(n)] for j in range(n)]
    basis = _nullspace_mod(a, p)
    count = len(basis)
    factors = [list(f)]
    if count == 1:
        return factors
    for v in basis:
        vpoly = strip(list(v))
        if deg(vpoly) < 1:
            continue
        next_round = []
        for w in factors:
            if deg(w) <= 1:
                next_round.append(w)
                continue
            pieces = []
            rem = w
            for c in range(p):
                if deg(rem) < 1:
                    break
                shifted = list(vpoly)
                shifted[0] = (shifted[0] - c) % p
                g = _gcd_mod(rem, strip(shifted), p)
                if 0 < deg(g) < deg(rem):
                    pieces.append(g)
                    rem = _divmod_mod(rem, g, p)[0]
            if deg(rem) > 0:
                pieces.append(_monic_mod(rem, p))
            next_round.extend(pieces if pieces else [w])
        factors = next_round
        if len(factors) == count:
            break
    factors.sort()
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _xgcd_mod(f, g, p):
    """(s, t) with s*f + t*g == 1 mod p for coprime f, g."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(sub(s0, _mul_mod(q, s1, p)), p)
        t0, t1 = t1, _mod(sub(t0, _mul_mod(q, t1, p)), p)
    if deg(r0) != 0:
        raise InternalInconsistencyError("expected coprime polynomials mod p")
    inv = pow(r0[0], -1, p)
    return _mod(scale(s0, inv), p), _mod(scale(t0, inv), p)


def _hensel_pair(f, g, h, s, t, p, target):
    """Lift f == g*h (mod p) with s*g + t*h == 1 to modulus >= target.

    All of f, g, h monic; returns (g*, h*) monic with f == g*h* mod p**k
    for the first p**k >= target.
    """
    m = p
    g, h, s, t = _mod(g, m), _mod(h, m), _mod(s, m), _mod(t, m)
    while m < target:
        m2 = m * m
        e = _mod(sub(f, mul(g, h)), m2)
        q, r = _divmod_mod(_mul_mod(s, e, m2), h, m2)
        g1 = _mod(add(g, add(_mul_mod(t, e, m2), _mul_mod(q, g, m2))), m2)
        h1 = _mod(add(h, r), m2)
        b = _mod(sub(add(_mul_mod(s, g1, m2), _mul_mod(t, h1, m2)), [1]), m2)
        c, d = _divmod_mod(_mul_mod(s, b, m2), h1, m2)
        s1 = _mod(sub(s, d), m2)
        t1 = _mod(sub(t, add(_mul_mod(t, b, m2), _mul_mod(c, g1, m2))), m2)
        g, h, s, t = g1, h1, s1, t1
        m = m2
    return g, h, m


def _hensel_multi(f, parts, p, target):
    """Lift a monic factorization mod p of monic f to modulus >= target."""
    if len(parts) == 1:
        return [f]
    k = len(parts) // 2
    g0 = [1]
    for q in parts[:k]:
        g0 = _mul_mod(g0, q, p)
    h0 = [1]
    for q in parts[k:]:
        h0 = _mul_mod(h0, q, p)
    s, t = _xgcd_mod(g0, h0, p)
    g, h, m = _hensel_pair(f, g0, h0, s, t, p, target)
    return _hensel_multi(g, parts[:k], p, m) + _hensel_multi(h, parts[k:], p, m)


_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _symmetric(f, m):
    half = m // 2
    out = []
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return strip(out)


def _recombine(count: int, whole, trial) -> tuple:
    """Zassenhaus subset recombination over `count` lifted local factors.

    trial(combo, whole) returns (factor, quotient) when the product of the
    lifted factors indexed by combo yields a true factor of whole, else
    None. Subsets are tried by increasing size; each hit drops its indices
    and replaces whole by the quotient. Returns (factors found, remainder).
    """
    found = []
    idx = list(range(count))
    size = 1
    while 2 * size <= len(idx):
        for combo in combinations(idx, size):
            hit = trial(combo, whole)
            if hit is not None:
                break
        else:
            size += 1
            continue
        factor, whole = hit
        found.append(factor)
        idx = [i for i in idx if i not in combo]
    return found, whole


def factor_squarefree_monic(f: IntPoly) -> List[IntPoly]:
    """Irreducible factors of a monic squarefree integer polynomial."""
    n = deg(f)
    if n <= 1:
        return [list(f)]
    fp = None
    for p in _PRIMES:
        fbar = _mod(f, p)
        if deg(fbar) != n:
            continue
        dbar = _mod(derivative(f), p)
        g = _gcd_mod(fbar, dbar, p)
        if deg(g) == 0:
            fp = p
            break
    if fp is None:
        raise InternalInconsistencyError("no usable prime for factorization")
    p = fp
    parts = _berlekamp(_monic_mod(_mod(f, p), p), p)
    if len(parts) == 1:
        return [list(f)]
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (1 << n) * norm2
    lifted = _hensel_multi(f, parts, p, bound)
    m = p
    while m < bound:
        m *= m
    lifted = [_mod(g, m) for g in lifted]

    def trial(combo, current):
        cand = [1]
        for i in combo:
            cand = _mul_mod(cand, lifted[i], m)
        cand = _symmetric(cand, m)
        if not cand or cand[-1] != 1:
            return None
        # a monic factor's constant term divides that of current
        if current[0] % cand[0] if cand[0] else current[0]:
            return None
        q = _quo_z(current, cand)
        return None if q is None else (cand, q)

    result, current = _recombine(len(lifted), list(f), trial)
    if deg(current) >= 1:
        result.append(current)
    check = [1]
    for g in result:
        check = mul(check, g)
    if check != list(f):
        raise InternalInconsistencyError("monic factorization failed to multiply back")
    return result


def factor_squarefree(f: IntPoly) -> List[IntPoly]:
    """Irreducible factors of a primitive squarefree integer polynomial."""
    f = primitive(list(f))
    n = deg(f)
    if n <= 0:
        return []
    if n == 1:
        return [f]
    lc = f[-1]
    if lc == 1:
        return factor_squarefree_monic(f)
    # make monic: F(x) = lc**(n-1) * f(x / lc)
    F = [f[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    monic_factors = factor_squarefree_monic(F)
    out = []
    for G in monic_factors:
        # map back through x -> lc * x and strip content
        g = [c * lc**i for i, c in enumerate(G)]
        out.append(primitive(g))
    check = [1]
    for g in out:
        check = mul(check, g)
    if primitive(check) != f:
        raise InternalInconsistencyError("factor recombination failed to multiply back")
    return sorted(out)

