"""Tests for factoring, irreducibility preservation, and the unit checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from keller import univariate as uni
from keller.errors import DegreeCapExceeded
from keller.factor import (
    _at,
    _certified_squarefree,
    _lift_pair,
    _nullity,
    _s_mul,
    _seed,
    _yun,
    absolute_irreducibility,
    factor_bivariate,
    image_under,
    localization_units_check,
    squarefree_decomposition,
    stays_irreducible,
)
from keller.parsing import parse_poly
from keller.poly import (
    U12,
    XY,
    Endomorphism,
    Polynomial,
    VarContext,
    _split_var_content,
    poly_gcd,
)
from keller.tame import random_tame

from oracles import (
    reference_factor_bivariate,
    reference_factor_univariate,
    reference_nullity,
)
from test_univariate import small_products

U1 = Polynomial.variable(U12, "u1")
U2 = Polynomial.variable(U12, "u2")
X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")


def xy(text):
    return parse_poly(text, XY)


def uu(text):
    return parse_poly(text, U12)


class TestSquarefreeDecomposition:
    def test_square_times_simple(self):
        assert squarefree_decomposition(U1**2 * U2) == [(U1, 2), (U2, 1)]

    def test_already_squarefree(self):
        assert squarefree_decomposition(U1 - U2) == [(U1 - U2, 1)]

    def test_pure_cube(self):
        assert squarefree_decomposition((U1 + U2) ** 3) == [(U1 + U2, 3)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decomposition(Polynomial.zero(U12))

    def test_content_is_dropped(self):
        got = squarefree_decomposition(uu("12*u1^2"))
        assert got == [(U1, 2)]

    def test_three_multiplicities_in_one_variable(self):
        got = squarefree_decomposition(uu("(u1 - 1)^2*(u1 + 2)^3*u1"))
        # parts sort by (total degree, str)
        assert got == [(uu("u1 - 1"), 2), (uu("u1 + 2"), 3), (U1, 1)]

    # seeds 6 and 10 give the part x + x^2*y
    @pytest.mark.parametrize("seed", range(12))
    def test_parts_squarefree_and_coprime(self, seed):
        rng = random.Random(seed)
        pool = [
            xy("x + y"),
            xy("x - 1"),
            xy("y"),
            xy("x*y"),
            xy("x*y + 1"),
            xy("x + y^2"),
        ]
        f = Polynomial.constant(XY, 1)
        for g in rng.sample(pool, rng.randint(1, 3)):
            f = f * g ** rng.randint(1, 3)
        parts = squarefree_decomposition(f)
        back = Polynomial.constant(XY, 1)
        for part, mult in parts:
            back = back * part**mult
            # a square factor divides both partial derivatives; a single
            # partial is not enough, since x divides d(x + x^2*y)/dy
            g = poly_gcd(poly_gcd(part, part.diff("x")), part.diff("y"))
            assert g.is_constant()
        assert back.normalized() == f.normalized()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).is_constant()

    @given(st.data())
    def test_non_monic_repeated_factors_property(self, data):
        # every factor has an x-leading coefficient a*y + b with a != 0, so
        # the input is not monic in x, and one factor is repeated
        f = Polynomial.constant(XY, data.draw(st.sampled_from([1, -2, 3]), "content"))
        mults = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), "mults")
        mults[0] = max(mults[0], 2)
        for mult in mults:
            dx = data.draw(st.integers(1, 2), "x-degree")
            a = data.draw(st.integers(-3, 3).filter(bool), "lc y-coefficient")
            b = data.draw(st.integers(-3, 3), "lc constant")
            rest = data.draw(
                st.dictionaries(
                    st.tuples(st.integers(0, dx - 1), st.integers(0, 2)),
                    st.integers(-3, 3).filter(bool),
                    max_size=3,
                ),
                "lower terms",
            )
            terms = {e: Fraction(c) for e, c in rest.items()}
            terms[(dx, 1)] = Fraction(a)
            if b:
                terms[(dx, 0)] = Fraction(b)
            f = f * Polynomial(XY, terms) ** mult
        parts = squarefree_decomposition(f)
        back = Polynomial.constant(XY, 1)
        for part, mult in parts:
            back = back * part**mult
            # a square factor divides both partial derivatives; a single
            # partial is not enough, since x divides d(x + x^2*y)/dy
            g = poly_gcd(poly_gcd(part, part.diff("x")), part.diff("y"))
            assert g.is_constant()
        assert back.normalized() == f.normalized()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).is_constant()


def bivariate(max_degree=2, max_terms=4):
    """Nonzero integer polynomials in x, y with exponents up to max_degree."""
    exps = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    return st.dictionaries(
        exps, st.integers(-4, 4).filter(bool), min_size=1, max_size=max_terms
    ).map(lambda terms: Polynomial(XY, terms))


class TestSquarefreeCertificate:
    """The certificate only ever short-cuts Yun's loop, never changes it."""

    @given(bivariate(), bivariate())
    def test_planted_square_never_certifies(self, g, h):
        assume(g.degree_in("x") > 0)
        _, prim = _split_var_content(g**2 * h, 0)
        assert not _certified_squarefree(prim, 0)

    @given(st.lists(bivariate(), min_size=1, max_size=3))
    def test_certified_input_is_one_yun_part(self, factors):
        f = Polynomial.constant(XY, 1)
        for g in factors:
            f = f * g
        assume(f.degree_in("x") > 0)
        _, prim = _split_var_content(f, 0)
        assume(_certified_squarefree(prim, 0))
        assert _yun(prim, "x") == [(prim.normalized(), 1)]


@st.composite
def small_bivariate_products(draw):
    """A constant times up to 3 factors of total degree 1 or 2, degree <= 4."""
    f = Polynomial.constant(U12, draw(st.sampled_from([1, -2, 3])))
    budget = 4
    for _ in range(draw(st.integers(1, 3))):
        if not budget:
            break
        d = draw(st.integers(1, min(2, budget)))
        monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos)))
        g = Polynomial(U12, {e: Fraction(c) for e, c in zip(monos, coeffs) if c})
        if g.total_degree() >= 1:
            f = f * g
            budget -= g.total_degree()
    return f


FOUR_LOCAL_FACTORS = (
    "(x*y + 1 + y^2)*(x*y + 1 + y - 2*y^2)*(x*y + 1 + 3*y^2)*(x*y + 1 - 3*y^2)"
)


@st.composite
def monic_rows(draw):
    """Integer rows of a polynomial monic in x: rows[i] holds the
    y-coefficients of x**i, x-degree 1 to 3, y-degree at most 3."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return rows + [[1]]


class TestHenselLift:
    @given(monic_rows(), monic_rows(), st.integers(1, 9))
    def test_lifted_rows_multiply_back(self, G, H, m):
        g0, h0 = [r[0] for r in G], [r[0] for r in H]
        assume(uni.deg(uni.gcd_z(g0, h0)) == 0)
        G, H = _at((G, 1), m), _at((H, 1), m)
        F = _s_mul(G, H, m)
        s, t, d = uni._xgcd_z(g0, h0)
        g, h = _lift_pair(F, _seed(g0), _seed(h0), _seed(s, d), _seed(t, d), m)
        assert _s_mul(g, h, m) == F
        # a monic lift of coprime images is unique
        assert (g, h) == (G, H)


class TestFactorBivariate:
    @pytest.mark.parametrize(
        "f,content,factors",
        [
            pytest.param(
                U1**2 - U2**2, 1, ((U1 - U2, 1), (U1 + U2, 1)), id="difference_of_squares"
            ),
            # the univariate image at the evaluation point has four linear
            # factors, and each true factor is the product of two of them
            pytest.param(
                xy("(x^2 - y^4 - y + 1)*(x^2 - y^4 - 3*y)"),
                1,
                ((xy("x^2 - y^4 - 3*y"), 1), (xy("x^2 - y^4 - y + 1"), 1)),
                id="two_quartics_size_two",
            ),
            # x-leading coefficient y^4; the monic form is x^4 at y = 0, so
            # the point is y = 1 with four local factors, and the shifted
            # monic form has y-degree 20: the lift splits 2 + 2, recurses
            # into both halves and doubles five times (precision 1, 2, 4,
            # 8, 16, 21); two local factors on each side mean a wrongly
            # lifted half cannot be rescued by taking the remainder
            pytest.param(
                xy(FOUR_LOCAL_FACTORS),
                1,
                (
                    (xy("x*y + 1 + 3*y^2"), 1),
                    (xy("x*y + 1 + y - 2*y^2"), 1),
                    (xy("x*y + 1 + y^2"), 1),
                    (xy("x*y + 1 - 3*y^2"), 1),
                ),
                id="four_local_factors_nonmonic_shifted",
            ),
        ],
    )
    def test_exact_factors(self, f, content, factors):
        fact = factor_bivariate(f)
        assert fact.content == content
        assert fact.factors == factors
        assert fact.product_in(f.context) == f

    def test_four_local_factors_match_reference(self):
        f = xy(FOUR_LOCAL_FACTORS)
        want = reference_factor_bivariate(f, max_degree=8)
        # above degree 4 the reference is complete only for factors linear
        # in x, and this input splits into four of them
        assert [g.degree_in("x") for g, _ in want] == [1, 1, 1, 1]
        assert list(factor_bivariate(f).factors) == want

    def test_degree_one_in_y_is_irreducible(self):
        fact = factor_bivariate(xy("x^2 - y"))
        assert fact.factors == ((xy("x^2 - y"), 1),)

    def test_monomial_content(self):
        fact = factor_bivariate(uu("6*u1"))
        assert fact.content == 6
        assert fact.factors == ((U1, 1),)

    def test_content_can_be_fractional(self):
        fact = factor_bivariate(xy("1/2*x^2 - 1/2*y^2"))
        assert fact.content == Fraction(1, 2)
        assert fact.product_in(XY) == xy("1/2*x^2 - 1/2*y^2")

    def test_multiplicities(self):
        fact = factor_bivariate(xy("(x + y)^2*(x - y)"))
        assert fact.factors == ((xy("x - y"), 1), (xy("x + y"), 2))

    def test_single_variable_input(self):
        fact = factor_bivariate(xy("x^2 - 1"))
        assert fact.factors == ((xy("x - 1"), 1), (xy("x + 1"), 1))

    def test_constant_input(self):
        fact = factor_bivariate(xy("5"))
        assert fact.content == 5
        assert fact.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_bivariate(Polynomial.zero(XY))

    def test_degree_cap_refusal(self):
        with pytest.raises(DegreeCapExceeded):
            factor_bivariate(xy("x^11 + y"), degree_cap=10)

    def test_three_variables_rejected(self):
        ctx = VarContext(("a", "b", "c"))
        a = Polynomial.variable(ctx, "a")
        b = Polynomial.variable(ctx, "b")
        c = Polynomial.variable(ctx, "c")
        with pytest.raises(ValueError):
            factor_bivariate(a * b + c)

    def test_two_active_vars_in_wider_context(self):
        ctx = VarContext(("a", "b", "c"))
        a = Polynomial.variable(ctx, "a")
        c = Polynomial.variable(ctx, "c")
        fact = factor_bivariate(a**2 - c**2)
        assert [str(g) for g, _ in fact.factors] == ["-c + a", "c + a"]

    def test_hard_mixed_composite(self):
        f = xy("(x*y + 1)*(x + y)*(x^2 + y^2 + 1)")
        fact = factor_bivariate(f)
        assert fact.product_in(XY) == f
        assert len(fact.factors) == 3

    def test_nonmonic_in_both_variables(self):
        f = xy("(2*x + 3*y)*(3*x*y - 1)")
        fact = factor_bivariate(f)
        assert fact.product_in(XY) == f
        assert sorted(str(g) for g, _ in fact.factors) == [
            "-1 + 3*x*y",
            "3*y + 2*x",
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_to_degree_four(self, seed):
        rng = random.Random(700 + seed)
        pool = [
            uu("u1 + u2"), uu("u1 - u2"), uu("u1"), uu("u2 + 1"),
            uu("u1*u2 + 1"), uu("u1^2 + u2"), uu("u1 + u2^2"),
            uu("u1^2 + u2^2 + 1"), uu("2*u1 + 3*u2 - 1"),
        ]
        f = Polynomial.constant(U12, rng.choice([1, -2, 3]))
        for _ in range(rng.randint(1, 3)):
            f = f * rng.choice(pool)
        if f.total_degree() > 4:
            return
        assert list(factor_bivariate(f).factors) == reference_factor_bivariate(f)

    @given(small_bivariate_products())
    def test_matches_reference_property(self, f):
        assume(not f.is_constant())
        got = factor_bivariate(f).factors
        assert dict(got) == dict(reference_factor_bivariate(f))

    @given(small_products(), st.integers(1, 3))
    def test_one_variable_multiplicities_match_reference(self, dense, k):
        def in_u1(g):
            return Polynomial(U12, {(i, 0): c for i, c in enumerate(g) if c})

        got = factor_bivariate(in_u1(dense) ** k, degree_cap=12).factors
        want = [str(in_u1(g).normalized()) for g in reference_factor_univariate(dense)]
        assert sorted(str(g) for g, m in got for _ in range(m)) == sorted(want * k)

    @pytest.mark.parametrize("seed", range(10))
    def test_remultiplication_exact(self, seed):
        rng = random.Random(40 + seed)
        pool = [
            xy("x + y"), xy("x*y - 2"), xy("x^2 + y"), xy("y^2 + 1"),
            xy("x"), xy("3*x - 5"), xy("x^2 + x*y + 1"),
        ]
        f = Polynomial.constant(XY, rng.choice([1, -1, Fraction(2, 3)]))
        for _ in range(rng.randint(1, 3)):
            f = f * rng.choice(pool) ** rng.randint(1, 2)
        if f.total_degree() > 10:
            return
        fact = factor_bivariate(f)
        assert fact.product_in(XY) == f

    def test_factors_are_normalized_and_distinct(self):
        fact = factor_bivariate(xy("(2*x + 2*y)*(x - y)*(-3)"))
        seen = set()
        for g, _ in fact.factors:
            assert g.normalized() == g
            assert g not in seen
            seen.add(g)


class TestAbsoluteIrreducibility:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2 + y^2", False),
            ("x^2 - 2*y^2", False),
            ("x^2 + y", True),
            ("x + y", True),
            ("x^2 + y^2 + 1", True),
            ("x^2 + 1", False),
            ("x - 5", True),
        ],
    )
    def test_certificates(self, text, expected):
        assert absolute_irreducibility(xy(text)) is expected

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 8),
        st.randoms(use_true_random=False),
    )
    def test_nullity_matches_rational_elimination(self, nrows, ncols, rank, rng):
        # a product of random nrows x rank and rank x ncols integer matrices
        # has rank at most min(rank, nrows, ncols)
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
        matrix = [
            [sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols)]
            for row in left
        ]
        assert _nullity(matrix) == reference_nullity(matrix)

    def test_flags_align_with_factors(self):
        fact = factor_bivariate(xy("(x^2 + y^2)*(x + y)"), absolute=True)
        flags = dict(zip([str(g) for g, _ in fact.factors], fact.absolute))
        assert flags["y + x"] is True
        assert flags["y^2 + x^2"] is False

    def test_flags_absent_by_default(self):
        assert factor_bivariate(xy("x + y")).absolute is None


class TestStaysIrreducible:
    def test_degree_one_image_preserved(self):
        f = Endomorphism(X, Y + X**2)
        report = stays_irreducible(U1, f)
        assert report.preserved
        assert report.image == X

    def test_square_image_splits(self):
        f = Endomorphism(X**2, Y)
        report = stays_irreducible(U1, f)
        assert not report.preserved
        assert report.image_factors.factors == ((X, 2),)

    def test_difference_splits_under_squares(self):
        f = Endomorphism(X**2, Y**2)
        report = stays_irreducible(U1 - U2, f)
        assert not report.preserved
        assert {str(g) for g, _ in report.image_factors.factors} == {
            "-y + x",
            "y + x",
        }

    def test_tame_maps_preserve_everything(self):
        for seed in (0, 1, 2, 3):
            f, _ = random_tame(seed)
            for vj in (U1, U2, U1 - U2, U1 * U2 + Polynomial.constant(U12, 1)):
                assert stays_irreducible(vj, f).preserved


class TestLocalizationUnits:
    def test_x_times_y_map(self):
        f = Endomorphism(X, X * Y)
        verdict = localization_units_check(f, U1)
        assert verdict.all_units_in_Cpq
        assert len(verdict.witnesses) == 1
        w = verdict.witnesses[0]
        assert w.factor == X and w.inside and w.membership == U1

    def test_square_map_fails(self):
        f = Endomorphism(X**2, Y)
        verdict = localization_units_check(f, U1)
        assert not verdict.all_units_in_Cpq
        assert [w.inside for w in verdict.witnesses] == [False]
        assert verdict.witnesses[0].factor == X

    def test_constant_v_is_vacuous(self):
        f = Endomorphism(X**2, Y)
        verdict = localization_units_check(f, Polynomial.constant(U12, 1))
        assert verdict.all_units_in_Cpq
        assert verdict.witnesses == ()

    def test_agrees_with_preservation_on_adversarial_pairs(self):
        vs = [U1, U1 - U2, U1 * U2]
        for f in (Endomorphism(X**2, Y), Endomorphism(X**2, Y**2)):
            for v in vs:
                verdict = localization_units_check(f, v)
                preserved = all(
                    stays_irreducible(vj, f).preserved
                    for vj, _ in factor_bivariate(v).factors
                )
                assert verdict.all_units_in_Cpq == preserved


class TestImageUnder:
    def test_substitution(self):
        f = Endomorphism(X, X * Y)
        assert image_under(f, U1 * U2) == X**2 * Y
        assert image_under(f, Polynomial.constant(U12, 3)) == Polynomial.constant(
            XY, 3
        )
