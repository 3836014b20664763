"""Seeded construction of tame plane automorphisms.

A tame map is a composite of invertible affine maps and elementary shears
(adding a multiple of a power of one coordinate to the other). Recipes are
explicit data, so a generated map can be replayed, inverted step by step,
and used as ground truth in round-trip tests. ``decompose`` runs the other
way: it reads a recipe off a map by Jung-van der Kulk degree reduction, and
with it an inverse proved by products alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import RecipeError
from .poly import U12, XY, Endomorphism, Polynomial, compose, identity_map

_X = Polynomial.variable(XY, "x")
_Y = Polynomial.variable(XY, "y")
_U1 = Polynomial.variable(U12, "u1")
_U2 = Polynomial.variable(U12, "u2")


@dataclass(frozen=True)
class Affine:
    """(x, y) -> (a x + b y + e, c x + d y + f); needs ad - bc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction = Fraction(0)
    f: Fraction = Fraction(0)

    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def validate(self) -> None:
        if not self.determinant():
            raise RecipeError(f"affine step has zero determinant: {self}")

    def as_endomorphism(self) -> Endomorphism:
        one = Polynomial.constant(XY, 1)
        return Endomorphism(
            self.a * _X + self.b * _Y + self.e * one,
            self.c * _X + self.d * _Y + self.f * one,
        )

    def inverse(self) -> "Affine":
        det = self.determinant()
        ai, bi = self.d / det, -self.b / det
        ci, di = -self.c / det, self.a / det
        return Affine(
            ai, bi, ci, di, -(ai * self.e + bi * self.f), -(ci * self.e + di * self.f)
        )


@dataclass(frozen=True)
class ElementaryX:
    """(x, y) -> (x, y + coeff * x**power)."""

    coeff: Fraction
    power: int

    def validate(self) -> None:
        if not self.coeff:
            raise RecipeError("elementary step coefficient must be nonzero")
        if not isinstance(self.power, int) or self.power < 1:
            raise RecipeError(f"step power must be a positive integer: {self.power!r}")

    def as_endomorphism(self) -> Endomorphism:
        return Endomorphism(_X, _Y + self.coeff * _X**self.power)

    def inverse(self) -> "ElementaryX":
        return ElementaryX(-self.coeff, self.power)


@dataclass(frozen=True)
class ElementaryY:
    """(x, y) -> (x + coeff * y**power, y)."""

    coeff: Fraction
    power: int

    def validate(self) -> None:
        if not self.coeff:
            raise RecipeError("elementary step coefficient must be nonzero")
        if not isinstance(self.power, int) or self.power < 1:
            raise RecipeError(f"step power must be a positive integer: {self.power!r}")

    def as_endomorphism(self) -> Endomorphism:
        return Endomorphism(_X + self.coeff * _Y**self.power, _Y)

    def inverse(self) -> "ElementaryY":
        return ElementaryY(-self.coeff, self.power)


Step = Union[Affine, ElementaryX, ElementaryY]


@dataclass(frozen=True)
class TameRecipe:
    """An ordered list of steps; the composite applies the first step first."""

    steps: Tuple[Step, ...]
    degree_cap: int = 12
    seed: Optional[int] = None

    def inverse(self) -> "TameRecipe":
        return TameRecipe(
            tuple(s.inverse() for s in reversed(self.steps)),
            degree_cap=self.degree_cap,
            seed=self.seed,
        )


def generate_tame(recipe: TameRecipe) -> Endomorphism:
    """Compose a recipe into a concrete automorphism of the plane.

    Raises RecipeError for invalid steps or when the composite degree
    exceeds the recipe's cap.
    """
    if not recipe.steps:
        return identity_map()
    for s in recipe.steps:
        s.validate()
    acc = recipe.steps[0].as_endomorphism()
    for s in recipe.steps[1:]:
        acc = compose(s.as_endomorphism(), acc)
    if acc.degree() > recipe.degree_cap:
        raise RecipeError(
            f"composite degree {acc.degree()} exceeds the cap {recipe.degree_cap}"
        )
    return acc


def _draw_fraction(rng: random.Random, lo: int = -3, hi: int = 3, dens=(1, 1, 2)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _draw_step(rng: random.Random) -> Step:
    kind = rng.randrange(3)
    if kind == 0:
        while True:
            a, b = _draw_fraction(rng), _draw_fraction(rng)
            c, d = _draw_fraction(rng), _draw_fraction(rng)
            if a * d - b * c:
                break
        return Affine(a, b, c, d, _draw_fraction(rng), _draw_fraction(rng))
    coeff = Fraction(0)
    while not coeff:
        coeff = _draw_fraction(rng)
    power = rng.randint(2, 3)
    if kind == 1:
        return ElementaryY(coeff, power)
    return ElementaryX(coeff, power)


def random_tame(
    seed: int,
    *,
    max_steps: int = 4,
    degree_cap: int = 12,
    max_retries: int = 400,
):
    """Draw a seeded tame automorphism with total degree within the cap.

    Returns (map, recipe). Redraws whole recipes whose composite exceeds
    the cap; raises RecipeError when the retry budget runs out.
    """
    rng = random.Random(seed)
    for _ in range(max_retries):
        steps = tuple(_draw_step(rng) for _ in range(rng.randint(1, max_steps)))
        recipe = TameRecipe(steps, degree_cap=degree_cap, seed=seed)
        try:
            return generate_tame(recipe), recipe
        except RecipeError:
            continue
    raise RecipeError(
        f"could not draw a degree <= {degree_cap} map for seed {seed} "
        f"in {max_retries} attempts"
    )


@dataclass(frozen=True)
class TameCertificate:
    """A map f written as a tame recipe, with the inverse that proves it.

    ``generate_tame(recipe) == f``, and ``inverse`` is (s, t) in the
    (u1, u2) context with s(p, q) = x, t(p, q) = y and p(s, t) = u1,
    q(s, t) = u2. See ``decompose`` for the proof.
    """

    recipe: TameRecipe
    inverse: Tuple[Polynomial, Polynomial]


def _top_form(p: Polynomial, degree: int) -> dict:
    """The numerators of the terms of the given total degree."""
    return {e: n for e, n in p.num.items() if sum(e) == degree}


def _reduction(hi: Polynomial, lo: Polynomial):
    """(c, k, lo**k) with top(hi) == c * top(lo)**k, or None; on numerators,
    where the denominators cancel, top[e] * ref[lead] == top[lead] * ref[e]."""
    dh, dl = hi.total_degree(), lo.total_degree()
    if dl < 1 or dh % dl:
        return None
    k = dh // dl
    power = lo**k
    top, ref = _top_form(hi, dh), _top_form(power, dh)
    lead = max(top)
    if len(top) != len(ref) or lead not in ref:
        return None
    a, b = top[lead], ref[lead]
    if any(ref.get(e, 0) * a != n * b for e, n in top.items()):
        return None
    return Fraction(a * power.den, b * hi.den), k, power


def decompose(f: Endomorphism) -> Optional[TameCertificate]:
    """The tame recipe of f and its inverse, or None if f is no automorphism.

    Jung-van der Kulk degree reduction (van den Essen, *Polynomial
    Automorphisms and the Jacobian Conjecture*, 2000, ch. 5). Let f = (p, q)
    be an automorphism of degree above 1 with deg p >= deg q. Then deg q
    divides deg p = k deg q and the top form of p is c times the k-th power
    of the top form of q, so p - c q^k has lower degree; likewise with the
    roles swapped. Each such step is the elementary map E_i =
    ``ElementaryY(-c, k)``, (x, y) -> (x - c y^k, y), or ``ElementaryX(-c,
    k)``, applied on the left: f_i = E_i o f_(i-1), f_0 = f. The degree of
    p_i + q_i drops at every step, so the steps end at an affine
    f_n = A. When a top form is not of that shape, or A is singular, f is
    not an automorphism and the result is None.

    The same loop applies each step to the identity pair (a_0, b_0) =
    (u1, u2), so (a_i, b_i) = E_i o ... o E_1. By induction a_i(p, q) = p_i
    and b_i(p, q) = q_i: a_i(p, q) = a_(i-1)(p, q) - c b_(i-1)(p, q)^k =
    p_(i-1) - c q_(i-1)^k = p_i. Set g = (s, t) = A^-1 o (a_n, b_n). Then:

    - g(p, q) = A^-1(p_n, q_n) = A^-1 o A = (x, y), exactly, since every
      f_i is computed exactly; that is g o f = id.
    - g is a composite of invertible maps, so it has a polynomial inverse
      h, and f = h o g o f = h. Hence f o g = id as well.

    Neither identity is checked by substitution: both follow from the
    products above, of degree at most deg f. The powers of q_i or p_i have
    the degree of the component they cancel, and (a_i, b_i) is a prefix of
    the word A o f^-1, whose degrees multiply up to deg f^-1 <= deg f. The
    recipe is A followed by E_n^-1, ..., E_1^-1, so
    ``generate_tame(recipe) == f``.
    """
    p, q = f.p, f.q
    a, b = _U1, _U2
    steps = []
    while max(p.total_degree(), q.total_degree()) > 1:
        if p.total_degree() >= q.total_degree():
            found = _reduction(p, q)
            if found is None:
                return None
            c, k, power = found
            p = p - power * c
            a = a - b**k * c
            steps.append(ElementaryY(-c, k))
        else:
            found = _reduction(q, p)
            if found is None:
                return None
            c, k, power = found
            q = q - power * c
            b = b - a**k * c
            steps.append(ElementaryX(-c, k))
    (pa, pb, pe), (qc, qd, qf) = (
        [Fraction(r.num.get(e, 0), r.den) for e in ((1, 0), (0, 1), (0, 0))]
        for r in (p, q)
    )
    affine = Affine(pa, pb, qc, qd, pe, qf)
    if not affine.determinant():
        return None
    inv = affine.inverse()
    one = Polynomial.constant(U12, 1)
    s = a * inv.a + b * inv.b + one * inv.e
    t = a * inv.c + b * inv.d + one * inv.f
    recipe = TameRecipe(
        (affine,) + tuple(e.inverse() for e in reversed(steps)),
        degree_cap=f.degree(),
    )
    return TameCertificate(recipe, (s, t))
