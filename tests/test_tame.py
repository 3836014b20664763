"""The tame certificate: Jung-van der Kulk degree reduction as the inverse of
generate_tame, checked against the lex inverse, verify_inverse and the
reference substitution."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from keller.errors import RecipeError
from keller.pipeline import invert, verify_inverse
from keller.poly import U12, XY, Endomorphism, Polynomial, identity_map
from keller.tame import (
    Affine,
    ElementaryX,
    ElementaryY,
    TameRecipe,
    decompose,
    generate_tame,
    random_tame,
)
from oracles import reference_substitute

X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")
U1 = Polynomial.variable(U12, "u1")
U2 = Polynomial.variable(U12, "u2")

# fractions as tame._draw_fraction draws them
_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
_NONZERO = _FRACTIONS.filter(bool)


@st.composite
def _steps(draw):
    """One recipe step, drawn like tame._draw_step."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        a, b, c, d = (draw(_FRACTIONS) for _ in range(4))
        assume(a * d - b * c)
        return Affine(a, b, c, d, draw(_FRACTIONS), draw(_FRACTIONS))
    coeff, power = draw(_NONZERO), draw(st.integers(2, 3))
    return ElementaryY(coeff, power) if kind == 1 else ElementaryX(coeff, power)


def _check(f):
    """The certificate of f: its recipe regenerates f and its inverse is the
    lex one."""
    cert = decompose(f)
    assert cert is not None
    assert generate_tame(cert.recipe) == f
    assert cert.inverse == invert(f)
    return cert


class TestDecompose:
    def test_identity_is_one_affine_step(self):
        cert = decompose(identity_map())
        assert cert.recipe.steps == (Affine(*map(Fraction, (1, 0, 0, 1, 0, 0))),)
        assert cert.inverse == (U1, U2)

    def test_shear(self):
        cert = _check(Endomorphism(X, Y + X**2))
        assert cert.recipe.steps[1:] == (ElementaryX(Fraction(1), 2),)
        assert cert.inverse == (U1, U2 - U1**2)

    def test_equal_degrees_reduce_by_a_linear_step(self):
        # both components have degree 2 and proportional top forms
        cert = _check(Endomorphism(X + Y**2, Y + 2 * X + 2 * Y**2))
        assert cert.recipe.steps[1:] == (
            ElementaryX(Fraction(8), 2),
            ElementaryY(Fraction(1, 2), 1),
        )

    @pytest.mark.parametrize(
        "f",
        [
            Endomorphism(X**2, Y),
            Endomorphism(X, X * Y),
            Endomorphism(X + Y**2, Y + X**2),
            Endomorphism(X, X),
            Endomorphism(X, Polynomial.constant(XY, 1)),
            Endomorphism(X**2 + Y, Polynomial.zero(XY)),
            # the top forms pass, but the affine end (x, 2x) is singular
            Endomorphism(X, 2 * X + X**2),
        ],
        ids=["x^2-y", "x-xy", "x+y^2-y+x^2", "x-x", "x-1", "x^2+y-0", "singular-end"],
    )
    def test_none_on_non_automorphisms(self, f):
        assert decompose(f) is None

    @pytest.mark.parametrize("seed", range(100))
    def test_agrees_with_verify_inverse_on_the_corpus(self, seed):
        f, _ = random_tame(seed, max_steps=4, degree_cap=12)
        cert = _check(f)
        assert verify_inverse(f, *cert.inverse)

    @pytest.mark.parametrize("seed, degree", [(0, 24), (17, 18)])
    def test_agrees_with_verify_inverse_on_the_ladder(self, seed, degree):
        f, _ = random_tame(seed, max_steps=8, degree_cap=36)
        assert f.degree() == degree
        cert = _check(f)
        assert verify_inverse(f, *cert.inverse)

    @given(st.lists(_steps(), min_size=1, max_size=4))
    def test_recipe_round_trip_and_inverse(self, steps):
        try:
            f = generate_tame(TameRecipe(tuple(steps), degree_cap=6))
        except RecipeError:
            assume(False)
        cert = decompose(f)
        assert cert is not None
        assert generate_tame(cert.recipe) == f
        s, t = cert.inverse
        back = {"u1": f.p, "u2": f.q}
        assert reference_substitute(s, back) == X
        assert reference_substitute(t, back) == Y
