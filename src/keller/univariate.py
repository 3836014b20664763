"""Dense univariate arithmetic and squarefree factorization over Z.

Polynomials are dense lists, ascending degree, no trailing zeros. This
module is the package's one home for that format: one helper per
operation and coefficient domain (Z has `add`/`sub`/`mul`/`strip`, the
exact division `_quo_z`, the division by a monic divisor `_divmod_monic`,
the gcd `gcd_z` and the Bezout cofactors `_xgcd_z`; Z/m has
`_mod`/`_mul_mod`/`_divmod_mod`). It is also the one home of the steps
that the p-adic lift here and the y-adic lift in `factor.py` share: the
halving lift tree `_lift_tree`, whose pair lifts both take their Bezout
pair from `_xgcd_z`, and the Zassenhaus subset-recombination loop
`_recombine`, under the trial cap `MAX_RECOMBINE_TRIALS`. No coefficient
is ever a fraction: where the arithmetic is over Q, as in the Bezout
cofactors, it runs on integer multiples and hands back a common
denominator.

`gcd_z` is the heuristic gcd of Char, Geddes and Gonnet (1989): one
integer gcd of the two inputs' values at a large point, read back as a
polynomial and checked by exact division in Z[x]. Its evaluation points,
`_xi_points`, are shared with the two-variable heuristic in `poly.py`;
the primitive pseudo-remainder sequence `_gcd_prs` runs only when every
point fails.

`factor_squarefree_monic` takes a monic squarefree input: `factor.py`
splits off the squarefree parts and makes each one monic, in one or two
variables alike. The pipeline is classical: distinct factors modulo a
suitable prime (Berlekamp), quadratic Hensel lifting past the factor
coefficient bound, then subset recombination with trial division.
Everything is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, Tuple

from .errors import InternalInconsistencyError, ResourceCapExceeded

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


def _hensel_pair(f, g, h, p, m):
    """Lift f == g*h (mod p) to f == g*h (mod m), m = p**(2**k) >= p.

    f, g and h are monic and g, h coprime mod p; returns (g, h) monic mod m.
    The Bezout pair s*g + t*h == 1 (mod p) that the quadratic lift carries
    along (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm
    15.10) comes from `_xgcd_z` of the reductions mod p: over Z it gives
    s*g + t*h == d, where d is the least common denominator of the Bezout
    cofactors over Q. Sylvester's matrix writes Res(g, h) as an integral
    combination of g and h under the same degree bounds, so d divides
    Res(g, h); g and h are monic and coprime mod p, so Res(g, h) is a unit
    mod p, and so is d.
    """
    g, h = _mod(g, p), _mod(h, p)
    s, t, d = _xgcd_z(g, h)
    inv = pow(d, -1, p)
    s, t = _mod(scale(s, inv), p), _mod(scale(t, inv), p)
    k = p
    while k < m:
        k2 = k * k
        e = _mod(sub(f, mul(g, h)), k2)
        q, r = _divmod_mod(_mul_mod(s, e, k2), h, k2)
        g1 = _mod(add(g, add(_mul_mod(t, e, k2), _mul_mod(q, g, k2))), k2)
        h1 = _mod(add(h, r), k2)
        b = _mod(sub(add(_mul_mod(s, g1, k2), _mul_mod(t, h1, k2)), [1]), k2)
        c, d = _divmod_mod(_mul_mod(s, b, k2), h1, k2)
        s1 = _mod(sub(s, d), k2)
        t1 = _mod(sub(t, add(_mul_mod(t, b, k2), _mul_mod(c, g1, k2))), k2)
        g, h, s, t = g1, h1, s1, t1
        k = k2
    return g, h


def _lift_tree(f, parts: list, lift_pair) -> list:
    """Lift a split of f into local factors `parts`, halving the parts at
    each level; lift_pair(f, g0, h0) lifts the split of f into the products
    g0 and h0 of the two halves and returns the lifted pair. Both the p-adic
    lift here and the y-adic lift of `factor.py` run on this tree."""
    if len(parts) == 1:
        return [f]
    k = len(parts) // 2
    g, h = lift_pair(f, functools.reduce(mul, parts[:k]), functools.reduce(mul, parts[k:]))
    return _lift_tree(g, parts[:k], lift_pair) + _lift_tree(h, parts[k:], lift_pair)


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


# subsets one `_recombine` call may try before it refuses
MAX_RECOMBINE_TRIALS = 1024


def _recombine(count: int, whole, trial) -> tuple:
    """Zassenhaus subset recombination over `count` lifted local factors.

    trial(combo, whole) returns (factor, quotient) when the product of the
    lifted factors indexed by combo yields a true factor of whole, else
    None. Subsets are tried by increasing size; each hit drops its indices
    and replaces whole by the quotient. Returns (factors found, remainder).
    The number of subsets grows like 2**count, so past
    `MAX_RECOMBINE_TRIALS` trials the search refuses.
    """
    found = []
    idx = list(range(count))
    size = 1
    tried = itertools.count(1)
    while 2 * size <= len(idx):
        for combo in itertools.combinations(idx, size):
            if next(tried) > MAX_RECOMBINE_TRIALS:
                raise ResourceCapExceeded(
                    f"subset recombination exceeds the cap of {MAX_RECOMBINE_TRIALS} trials"
                )
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
    m = p
    while m < bound:
        m *= m
    lifted = _lift_tree(f, parts, functools.partial(_hensel_pair, p=p, m=m))

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
