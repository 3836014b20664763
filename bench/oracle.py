"""Exact sparse polynomial arithmetic that shares no code with keller.

The benchmark builds its inputs and its expected answers with these
helpers, so a wrong answer from keller cannot be confirmed by keller's own
arithmetic. A polynomial is a dict from an exponent tuple to a nonzero
Fraction, the same layout ``keller.Polynomial.terms`` uses, so answers are
compared as plain dicts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


def const(c, arity: int = 2) -> Poly:
    c = Fraction(c)
    return {(0,) * arity: c} if c else {}


def var(i: int, arity: int = 2) -> Poly:
    e = [0] * arity
    e[i] = 1
    return {tuple(e): Fraction(1)}


def add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def power(a: Poly, n: int, arity: int = 2) -> Poly:
    out = const(1, arity)
    for _ in range(n):
        out = mul(out, a)
    return out


def evaluate_at(g: Poly, images: Sequence[Poly], arity: int = 2) -> Poly:
    """g(images[0], images[1], ...) with every image in an ``arity`` ring."""
    cache = [{0: const(1, arity)} for _ in images]

    def pw(i: int, k: int) -> Poly:
        if k not in cache[i]:
            cache[i][k] = mul(pw(i, k - 1), images[i])
        return cache[i][k]

    out: Poly = {}
    for e, c in g.items():
        term = const(c, arity)
        for i, k in enumerate(e):
            if k:
                term = mul(term, pw(i, k))
        out = add(out, term)
    return out


def is_scalar_multiple(a: Poly, b: Poly) -> bool:
    """True when a == c * b for a nonzero rational c."""
    if not a or a.keys() != b.keys():
        return False
    e0 = next(iter(a))
    ratio = a[e0] / b[e0]
    return all(a[e] == ratio * b[e] for e in a)


def fmt(a: Poly, names: Sequence[str]) -> str:
    """Text that ``keller.parsing.parse_poly`` reads back as ``a``."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a):
        c = a[e]
        mono = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = "*".join(([num] if mag != 1 or not mono else []) + mono)
        pieces.append(("-" if c < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


# -- tame recipes -------------------------------------------------------------
#
# A step is (kind, data): ("affine", (a, b, c, d, e, f)) sends (x, y) to
# (a x + b y + e, c x + d y + f); ("ex", (coeff, k)) sends (x, y) to
# (x, y + coeff x^k); ("ey", (coeff, k)) sends (x, y) to (x + coeff y^k, y).


def step_images(step) -> Tuple[Poly, Poly]:
    kind, data = step
    x, y = var(0), var(1)
    if kind == "affine":
        a, b, c, d, e, f = data
        return (
            add(add(scale(x, a), scale(y, b)), const(e)),
            add(add(scale(x, c), scale(y, d)), const(f)),
        )
    coeff, k = data
    if kind == "ex":
        return x, add(y, scale(power(x, k), coeff))
    return add(x, scale(power(y, k), coeff)), y


def step_inverse(step):
    kind, data = step
    if kind != "affine":
        coeff, k = data
        return kind, (-coeff, k)
    a, b, c, d, e, f = data
    det = a * d - b * c
    ai, bi, ci, di = d / det, -b / det, -c / det, a / det
    return "affine", (ai, bi, ci, di, -(ai * e + bi * f), -(ci * e + di * f))


def compose_recipe(steps) -> Tuple[Poly, Poly]:
    """The map that applies ``steps`` in order, the first step first."""
    p, q = var(0), var(1)
    for step in steps:
        sp, sq = step_images(step)
        p, q = evaluate_at(sp, (p, q)), evaluate_at(sq, (p, q))
    return p, q


def invert_recipe(steps):
    return [step_inverse(s) for s in reversed(steps)]
