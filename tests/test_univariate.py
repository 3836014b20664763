"""Tests for the integer univariate engine behind the bivariate factorizer.

Coefficient lists are ascending: [c0, c1, ..., cn] stands for c0 + c1 x + ...
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from keller import univariate as uni
from keller.errors import InternalInconsistencyError
from keller.factor import squarefree_decomposition
from keller.poly import U12, Polynomial

from oracles import (
    _u_exact_div,
    _u_gcd,
    _u_int_primitive,
    reference_factor_univariate,
    reference_xgcd,
)


def squarefree(f):
    return uni.deg(uni.gcd_z(f, uni.derivative(f))) == 0


def squarefree_parts(f):
    """squarefree_decomposition of a dense list in u1, with dense parts."""
    parts = squarefree_decomposition(
        Polynomial(U12, {(i, 0): c for i, c in enumerate(f) if c})
    )
    return [
        ([int(p.terms.get((i, 0), 0)) for i in range(p.degree_in("u1") + 1)], m)
        for p, m in parts
    ]


class TestArithmetic:
    def test_strip_trailing_zeros(self):
        assert uni.strip([1, 2, 0, 0]) == [1, 2]
        assert uni.strip([0, 0]) == []

    def test_degree_of_zero_is_minus_one(self):
        assert uni.deg([]) == -1
        assert uni.deg([5]) == 0

    def test_mul_matches_eval(self):
        def value(f, x):
            out = 0
            for c in reversed(f):
                out = out * x + c
            return out

        f, g = [1, 2, 3], [-4, 5]
        h = uni.mul(f, g)
        for x in range(-3, 4):
            assert value(h, x) == value(f, x) * value(g, x)

    def test_add_cancellation_strips(self):
        assert uni.add([1, 1], [1, -1]) == [2]

    def test_derivative(self):
        assert uni.derivative([7, 0, 3, 2]) == [0, 6, 6]
        assert uni.derivative([4]) == []

    def test_content_and_primitive(self):
        assert uni.content([6, -9, 12]) == 3
        assert uni.primitive([6, -9, 12]) == [2, -3, 4]
        assert uni.primitive([-2, -4]) == [1, 2]


# dense integer lists of degree at most 4, zero included
small_lists = st.lists(st.integers(-12, 12), max_size=5).map(uni.strip)


def reference_gcd(a, b):
    """The oracle's monic gcd over Q in gcd_z's form: primitive, positive lead."""
    return _u_int_primitive(_u_gcd(a, b))


class TestGcd:
    """gcd_z is the heuristic gcd checked by exact division; _gcd_prs is the
    fallback no benchmark input reaches, so it is tested on its own."""

    def test_known_pair(self):
        f = uni.mul([1, 1], [2, 0, 1])
        g = uni.mul([1, 1], [-1, 1])
        assert uni.gcd_z(f, g) == [1, 1]

    def test_coprime_gives_constant(self):
        assert uni.deg(uni.gcd_z([1, 1], [2, 1])) == 0

    def test_zero_argument(self):
        assert uni.gcd_z([], [2, 4]) == [1, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_gcd_divides_both(self, seed):
        rng = random.Random(seed)
        common = [rng.randint(-4, 4) for _ in range(3)]
        while uni.deg(uni.strip(common)) < 1:
            common = [rng.randint(-4, 4) for _ in range(3)]
        a = uni.mul(common, [rng.randint(-3, 3) for _ in range(3)] + [1])
        b = uni.mul(common, [rng.randint(-3, 3) for _ in range(2)] + [1])
        g = uni.gcd_z(a, b)
        assert uni.deg(g) >= uni.deg(uni.primitive(common)) - 1
        assert _u_exact_div(a, g) is not None
        assert _u_exact_div(b, g) is not None

    @settings(max_examples=200, deadline=2000)
    @given(small_lists, small_lists, small_lists)
    def test_matches_oracle_with_a_planted_factor(self, a, b, c):
        # c is the planted common factor; a, b and c may be constants or 0,
        # and any of them may lead with a negative coefficient
        a, b = uni.mul(a, c), uni.mul(b, c)
        assert uni.gcd_z(a, b) == reference_gcd(a, b)

    @settings(max_examples=100, deadline=2000)
    @given(small_lists, small_lists, small_lists)
    def test_prs_fallback_matches_oracle(self, a, b, c):
        a, b = uni.mul(a, c), uni.mul(b, c)
        assume(a and b)
        assert uni._gcd_prs(uni.primitive(a), uni.primitive(b)) == reference_gcd(a, b)

    def test_every_point_failing_falls_back_to_the_prs(self, monkeypatch):
        a = uni.mul([1, 1], [-3, 0, 2])
        b = uni.mul([1, 1], [5, -1])
        monkeypatch.setattr(uni, "_quo_z", lambda f, g: None)
        assert uni.gcd_z(a, b) == [1, 1]

    def test_a_failed_point_is_followed_by_the_next(self):
        a, b = [81, 27, -4], [18, -1, -4]
        xi = next(uni._xi_points(max(map(abs, a)), max(map(abs, b))))
        h = math.gcd(uni._horner(a, xi), uni._horner(b, xi))
        cand = uni.primitive(uni._xi_digits(h, xi))
        assert uni.deg(cand) > 0
        assert uni._quo_z(a, cand) is None or uni._quo_z(b, cand) is None
        assert uni.gcd_z(a, b) == reference_gcd(a, b)

    @pytest.mark.parametrize(
        "f,g",
        [
            pytest.param([3], [-6, 9], id="constant"),
            pytest.param([], [-4, 0, -2], id="zero_and_negative_lead"),
            pytest.param([], [], id="both_zero"),
            # the oracle once scaled by 1 / 3 in floats and answered
            # [6004799503160661, 18014398509481984]
            pytest.param([], [1, 3], id="non_monic_int_oracle"),
            pytest.param([10**30, -(10**30) - 1, 1], [-(10**30), 1], id="large_root"),
        ],
    )
    def test_edge_cases(self, f, g):
        assert uni.gcd_z(f, g) == reference_gcd(f, g)

    @pytest.mark.parametrize("c", [-7, 1, 12345])
    def test_xi_digits_read_back(self, c):
        digits = uni._xi_digits(c, 31)
        assert uni._horner(digits, 31) == c
        assert all(abs(d) <= 31 // 2 for d in digits)


class TestBezout:
    """_xgcd_z: the Bezout cofactors over Z that seed the y-adic lift."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=7).map(uni.strip),
        st.lists(st.integers(-12, 12), min_size=2, max_size=7).map(uni.strip),
    )
    def test_matches_rational_euclid(self, f, g):
        assume(uni.deg(f) >= 1 and uni.deg(g) >= 1)
        assume(uni.deg(uni.gcd_z(f, g)) == 0)
        s, t, d = uni._xgcd_z(f, g)
        assert uni.add(uni.mul(s, f), uni.mul(t, g)) == [d]
        assert d > 0
        assert uni.deg(s) < uni.deg(g) and uni.deg(t) < uni.deg(f)
        assert ([Fraction(c, d) for c in s], [Fraction(c, d) for c in t]) == reference_xgcd(f, g)

    def test_common_factor_is_refused(self):
        with pytest.raises(InternalInconsistencyError):
            uni._xgcd_z(uni.mul([1, 1], [2, 1]), uni.mul([1, 1], [-1, 1]))


class TestExactDivisionZ:
    def test_exact(self):
        assert uni._quo_z(uni.mul([2, -1, 3], [-5, 0, 2]), [-5, 0, 2]) == [2, -1, 3]

    def test_zero_dividend(self):
        assert uni._quo_z([], [1, 1]) == []

    def test_nonzero_remainder(self):
        # x^2 + 1 = (x - 1)(x + 1) + 2
        assert uni._quo_z([1, 0, 1], [1, 1]) is None

    def test_leading_step_not_a_multiple(self):
        # the first quotient coefficient of x^2 / (2x + 1) is 1/2
        assert uni._quo_z([0, 0, 1], [1, 2]) is None

    def test_exact_over_q_only(self):
        # 2x + 1 = (4x + 2) / 2: exact in Q[x], not in Z[x]
        assert uni._quo_z([1, 2], [2, 4]) is None

    def test_divisor_of_higher_degree(self):
        assert uni._quo_z([1, 1], [1, 0, 1]) is None

    @settings(max_examples=100, deadline=2000)
    @given(small_lists, small_lists)
    def test_matches_oracle(self, f, g):
        assume(g)
        q = _u_exact_div(f, g)
        want = None if q is None or any(c.denominator != 1 for c in q) else list(map(int, q))
        assert uni._quo_z(f, g) == want
        if f:
            assert uni._quo_z(uni.mul(f, g), g) == f


class TestSquarefree:
    """The one squarefree split, `factor`'s Yun loop, on one-variable input."""

    def test_multiplicities_recovered(self):
        f = uni.mul(uni.mul([1, 1], [1, 1]), [-2, 1])
        parts = squarefree_parts(f)
        assert sorted((tuple(p), m) for p, m in parts) == [
            ((-2, 1), 1),
            ((1, 1), 2),
        ]

    def test_squarefree_input_passes_through(self):
        f = [6, 5, 1]
        assert squarefree_parts(f) == [([6, 5, 1], 1)]

    def test_pure_power(self):
        f = uni.mul(uni.mul([0, 1], [0, 1]), [0, 1])
        assert squarefree_parts(f) == [([0, 1], 3)]

    @pytest.mark.parametrize("seed", range(8))
    def test_product_reconstructs(self, seed):
        rng = random.Random(100 + seed)
        f = [1]
        for _ in range(rng.randint(1, 3)):
            part = [rng.randint(-3, 3), rng.randint(-3, 3), 1]
            for _ in range(rng.randint(1, 2)):
                f = uni.mul(f, part)
        f = uni.primitive(f)
        back = [1]
        for part, mult in squarefree_parts(f):
            for _ in range(mult):
                back = uni.mul(back, part)
        assert uni.primitive(back) == f


@st.composite
def small_products(draw):
    """A nonzero constant times 1 to 4 factors of degree 1 or 2, degree <= 4."""
    f = [draw(st.sampled_from([1, -1, 2, -3]))]
    budget = 4
    for _ in range(draw(st.integers(1, 4))):
        if not budget:
            break
        d = draw(st.integers(1, min(2, budget)))
        lower = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        f = uni.mul(f, lower + [draw(st.sampled_from([1, -1, 2, 3]))])
        budget -= d
    return f


class TestFactor:
    """factor_squarefree on squarefree inputs; factor.py splits off the rest."""

    @pytest.mark.parametrize(
        "f,factors",
        [
            pytest.param([-1, 0, 1], [[-1, 1], [1, 1]], id="difference_of_squares"),
            # (x^2+1)(x^2-2)(x^2+3): five factors mod p, four of them
            # linear, so two true factors come from subsets of size 2
            pytest.param(
                [-6, 0, -5, 0, 2, 0, 1],
                [[-2, 0, 1], [1, 0, 1], [3, 0, 1]],
                id="three_quadratics_size_two",
            ),
        ],
    )
    def test_exact_factors(self, f, factors):
        assert sorted(uni.factor_squarefree(f)) == factors

    def test_twelfth_cyclotomic_split(self):
        f = [-1] + [0] * 11 + [1]
        factors = uni.factor_squarefree(f)
        assert sorted(uni.deg(g) for g in factors) == [1, 1, 2, 2, 2, 4]
        back = [1]
        for g in factors:
            back = uni.mul(back, g)
        assert back == f

    def test_nonmonic(self):
        # 6x^2 + x - 2 = (2x - 1)(3x + 2)
        assert uni.factor_squarefree([-2, 1, 6]) == [[-1, 2], [2, 3]]

    def test_content_and_sign_dropped(self):
        assert uni.factor_squarefree([-4, 0, -4]) == [[1, 0, 1]]

    def test_constant_has_no_factors(self):
        assert uni.factor_squarefree([7]) == []

    def test_irreducible_quartic_stays_whole(self):
        assert uni.factor_squarefree([-2, 0, 0, 0, 1]) == [[-2, 0, 0, 0, 1]]

    def test_matches_reference_to_degree_four(self):
        rng = random.Random(5)
        for _ in range(40):
            f = uni.strip([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
            if uni.deg(f) < 1 or not squarefree(f):
                continue
            got = sorted(tuple(g) for g in uni.factor_squarefree(f))
            assert got == sorted(tuple(g) for g in reference_factor_univariate(f))

    @given(small_products())
    def test_matches_reference_property(self, f):
        assume(squarefree(f))
        got = sorted(tuple(g) for g in uni.factor_squarefree(f))
        assert got == sorted(tuple(g) for g in reference_factor_univariate(f))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_products_multiply_back(self, seed):
        rng = random.Random(seed)
        f = [rng.choice([1, -1, 2])]
        for _ in range(rng.randint(1, 3)):
            g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [
                rng.randint(1, 3)
            ]
            f = uni.mul(f, g)
        assert squarefree(f)
        back = [1]
        for g in uni.factor_squarefree(f):
            back = uni.mul(back, g)
        assert back == uni.primitive(f)

    @pytest.mark.parametrize("seed", range(6))
    def test_factors_are_irreducible_on_refactor(self, seed):
        rng = random.Random(50 + seed)
        f = [rng.randint(-4, 4) for _ in range(6)] + [1]
        assert squarefree(f)
        for g in uni.factor_squarefree(f):
            assert uni.factor_squarefree(g) == [g]

    def test_large_coefficients(self):
        big = 10**6
        f = uni.mul([big, 1], [-big, 1])
        assert sorted(uni.factor_squarefree(f)) == [[-big, 1], [big, 1]]
