"""Seeded construction of tame plane automorphisms.

A tame map is a composite of invertible affine maps and elementary shears
(adding a multiple of a power of one coordinate to the other). Recipes are
explicit data, so a generated map can be replayed, inverted step by step,
and used as ground truth in round-trip tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import RecipeError
from .poly import XY, Endomorphism, Polynomial, compose, identity_map

_X = Polynomial.variable(XY, "x")
_Y = Polynomial.variable(XY, "y")


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
