"""Tests for the shape basis and the u/v splitting of the second variable."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keller.errors import (
    AlgebraicallyDependentError,
    InternalInconsistencyError,
    NotShapePositionError,
)
from keller.funcfield import shape_basis, uv_decomposition
from keller.groebner import RunStats, _cached_tag_basis, kernel_generator
from keller.parsing import parse_poly
from keller.poly import U12, U123, XY, Endomorphism, Polynomial, compose, poly_gcd
from keller.tame import random_tame

U1 = Polynomial.variable(U12, "u1")
X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")


def uuu(text):
    return parse_poly(text, U123)


def coefficients_in_u3(u):
    """{k: coefficient of u3^k} as polynomials in (u1, u2)."""
    out = {}
    for (e1, e2, k), c in u.terms.items():
        out.setdefault(k, {})[(e1, e2)] = c
    return {k: Polynomial(U12, t) for k, t in out.items()}


def times_xy(t):
    """(x, x*y) after t: the map (t.p, t.p * t.q)."""
    return Endomorphism(t.p, t.p * t.q)


class TestShapeBasis:
    def test_shear(self):
        sb = shape_basis(Endomorphism(X, Y + X**2))
        assert sb.r == 1
        assert sb.g == uuu("u1 - u3")
        # y = q - p^2 in the image field
        assert sb.u == uuu("u2 - u1^2")
        assert sb.v == Polynomial.constant(U12, 1)

    def test_x_times_y(self):
        sb = shape_basis(Endomorphism(X, X * Y))
        assert sb.r == 1
        assert (sb.u, sb.v) == (uuu("u2"), U1)

    def test_square_first_coordinate(self):
        sb = shape_basis(Endomorphism(X**2, Y))
        assert sb.r == 2
        assert sb.g == uuu("u1 - u3^2")

    def test_g_is_cleared_in_the_context_of_u(self):
        sb = shape_basis(Endomorphism(X * Y - X**3, Y))
        assert sb.r == 3
        assert str(sb.g) == "u3^3 - u2*u3 + u1"

    def test_not_shape_position(self):
        with pytest.raises(NotShapePositionError) as err:
            shape_basis(Endomorphism(X**2, Y**2))
        assert str(err.value) == (
            "basis is not in shape position; leading terms [(0, 2), (2, 0)]"
        )

    def test_dependent_images(self):
        with pytest.raises(AlgebraicallyDependentError):
            shape_basis(Endomorphism(X, X))

    def test_two_steps_with_a_nonconstant_leading_coefficient(self):
        f = times_xy(random_tame(5)[0])
        # the tag basis holds G = 3*u1^2*x + ... and 6*u1*y - 3*u1*x^2 + ...:
        # A has degree r + 1 in x, so the division takes two steps, and
        # D = 6*u1 * (3*u1^2)^2 shares u1 with every coefficient of R
        basis = [str(b) for b in _cached_tag_basis(f, RunStats())[0]]
        assert "4*u2^2 - 16*u1*u2 + 18*u1^2 + u1^3 + 3*x*u1^2" in basis
        assert "4*u2 - 8*u1 - 3*x^2*u1 + 6*y*u1" in basis
        sb = shape_basis(f)
        assert sb.r == 1
        assert sb.v == U1**4
        assert sb.u == uuu(
            "8/9*u2^4 - 64/9*u1*u2^3 + 200/9*u1^2*u2^2 - 98/3*u1^3*u2"
            " + 4/9*u1^3*u2^2 + 58/3*u1^4 - 16/9*u1^4*u2 + 2*u1^5 + 1/18*u1^6"
        )
        assert sb.g == uuu("4*u2^2 - 16*u1*u2 + 18*u1^2 + 3*u1^2*u3 + u1^3")

    @given(
        st.integers(0, 999),
        st.sampled_from([lambda t: t, times_xy]),
        st.booleans(),
    )
    def test_output_is_fixed_completely(self, seed, left, square_x):
        t = left(random_tame(seed)[0])
        f = compose(t, Endomorphism(X**2, Y)) if square_x else t
        sb = shape_basis(f)
        assert sb.r == (2 if square_x else 1)
        v_img = sb.v.substitute({"u1": f.p, "u2": f.q})
        u_img = sb.u.substitute({"u1": f.p, "u2": f.q, "u3": X})
        assert v_img * Y == u_img
        coeffs = coefficients_in_u3(sb.u)
        assert max(coeffs, default=0) < sb.r
        d = sb.v
        for c in coeffs.values():
            d = poly_gcd(d, c)
        assert d.is_constant()
        assert sb.v == sb.v.normalized()
        assert sb.g == kernel_generator(f).generator.normalized()


class TestUVDecomposition:
    def test_shear(self):
        dec = uv_decomposition(Endomorphism(X, Y + X**2))
        assert dec.u == parse_poly("u2 - u1^2", U123)
        assert dec.v == Polynomial.constant(U12, 1)
        assert dec.r == 1

    def test_x_times_y(self):
        dec = uv_decomposition(Endomorphism(X, X * Y))
        assert dec.u == Polynomial.variable(U123, "u2")
        assert dec.v == U1
        assert dec.r == 1

    def test_square_first_coordinate(self):
        dec = uv_decomposition(Endomorphism(X**2, Y))
        assert dec.u == Polynomial.variable(U123, "u2")
        assert dec.v == Polynomial.constant(U12, 1)
        assert dec.r == 2

    def test_defining_identity(self):
        for f in (
            Endomorphism(X, Y + X**2),
            Endomorphism(X, X * Y),
            Endomorphism(X**2, Y),
            Endomorphism(X + Y**3, Y),
        ):
            dec = uv_decomposition(f)
            v_img = dec.v.substitute({"u1": f.p, "u2": f.q})
            u_img = dec.u.substitute({"u1": f.p, "u2": f.q, "u3": X})
            assert (v_img * Y - u_img).is_zero()

    def test_degree_agrees_with_kernel(self):
        for a in range(1, 6):
            f = Endomorphism(X**a, Y)
            dec = uv_decomposition(f)
            k = kernel_generator(f)
            assert dec.r == k.r == a

    def test_accepts_matching_kernel(self):
        f = Endomorphism(X, Y + X**2)
        k = kernel_generator(f)
        dec = uv_decomposition(f, kernel=k)
        assert dec.r == 1

    def test_rejects_foreign_kernel(self):
        f = Endomorphism(X, Y + X**2)
        wrong = kernel_generator(Endomorphism(X**2, Y))
        with pytest.raises(InternalInconsistencyError):
            uv_decomposition(f, kernel=wrong)

    @pytest.mark.parametrize("seed", range(8))
    def test_tame_maps_have_polynomial_denominator_one(self, seed):
        f, _ = random_tame(seed)
        dec = uv_decomposition(f)
        assert dec.r == 1
        assert dec.v.is_constant()
