"""Tests for the exact polynomial core."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from keller.errors import (
    ContextMismatchError,
    ExactDivisionError,
    MissingAssignmentError,
    UnknownVariableError,
)
from keller.poly import (
    U12,
    U123,
    XY,
    Endomorphism,
    Polynomial,
    VarContext,
    compose,
    identity_map,
    jacobian_det,
    poly_gcd,
)
from keller import poly
from keller.groebner import _TAG_CTX
from keller.parsing import parse_poly
from oracles import (
    _b_eval_y,
    _b_exact_div,
    _b_from_terms,
    _b_row,
    _u_gcd,
    _u_mul,
    expressions,
    reference_mul,
    reference_substitute,
)


def P(ctx, text_terms):
    """Shorthand builder: {exponent tuple: coefficient}."""
    return Polynomial(ctx, text_terms)


def var(ctx, name):
    return Polynomial.variable(ctx, name)


X = var(XY, "x")
Y = var(XY, "y")
ONE = Polynomial.constant(XY, 1)


def random_poly(rng, ctx, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        left = max_degree
        for _ in range(ctx.arity):
            e = rng.randint(0, left)
            exps.append(e)
            left -= e
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(ctx, terms)


# coefficients with denominators up to 6, integers among them
COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


# integer coefficients, whose content poly_gcd keeps and exact_div clears
INTEGERS = st.integers(-6, 6).map(Fraction)


def polys(ctx, max_degree=3, max_terms=5, coeffs=COEFFS):
    """Polynomials in ctx with every exponent at most max_degree; the empty
    term map (zero) and exponent-free terms (constants) are included."""
    exps = st.tuples(*[st.integers(0, max_degree)] * ctx.arity)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(ctx, terms)
    )


def images(source, target):
    """One image in the target context per source variable."""
    return st.fixed_dictionaries(
        {n: polys(target, max_degree=2, max_terms=4) for n in source.names}
    )


def assert_canonical(p):
    """The stored form: a positive denominator, no zero numerator, no factor
    shared by the denominator and every numerator, and the same polynomial,
    hash included, when rebuilt from its Fraction terms."""
    assert p.den > 0
    assert all(p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    rebuilt = Polynomial(p.context, p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)


class TestCanonicalForm:
    @given(st.sampled_from([XY, U123]).flatmap(expressions))
    def test_parse(self, case):
        text, value = case
        assert_canonical(parse_poly(text, value.context))

    @given(polys(XY), polys(XY), COEFFS, st.integers(0, 3))
    def test_ring_operations(self, a, b, c, n):
        for p in (a + b, a - b, -a, a * b, a * c, c * a, a * 3, a / 3, a**n):
            assert_canonical(p)
        if c:
            assert_canonical(a / c)

    @given(polys(U123))
    def test_diff_reindex_and_content(self, p):
        for name in U123.names:
            assert_canonical(p.diff(name))
        assert_canonical(p.reindex(_TAG_CTX, {"u1": "y", "u2": "x", "u3": "u1"}))
        content, prim = p.content_and_primitive()
        assert_canonical(prim)
        assert prim.den == 1 and content * prim == p

    @given(polys(U12), images(U12, XY))
    def test_substitute(self, p, imgs):
        assert_canonical(p.substitute(imgs))

    @given(polys(XY), polys(XY), COEFFS)
    def test_exact_div(self, a, b, c):
        assume(b)
        assert_canonical((a * b).exact_div(b))
        # a one-term divisor takes the exponent-shift path
        m = Polynomial.monomial(XY, (1, 2), c or 1)
        assert_canonical((a * m).exact_div(m))


class TestVarContext:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VarContext(("x", "x"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VarContext(())

    def test_index_unknown(self):
        with pytest.raises(UnknownVariableError):
            XY.index("z")


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        p = X**2 + Y
        q = X * Y - Polynomial.constant(XY, 3)
        assert (p + q) - q == p

    def test_mul_known(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_scalar_ops(self):
        p = 2 * X
        assert p * Fraction(1, 2) == X
        assert p / 2 == X

    def test_pow(self):
        assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
        assert (X + Y) ** 0 == Polynomial.constant(XY, 1)

    def test_zero_handling(self):
        z = Polynomial.zero(XY)
        assert (X - X) == z
        assert z.is_zero()
        assert z.total_degree() == -1
        assert not z

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            X + var(U12, "u1")

    @given(polys(XY), polys(XY), polys(XY))
    def test_ring_axioms_random(self, a, b, c):
        one = Polynomial.constant(XY, 1)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * one == a
        assert (a + (-a)).is_zero() and a - a == Polynomial.zero(XY)

    def test_hash_consistency(self):
        a = X**2 + Y
        b = (X * X) + Y
        assert a == b and hash(a) == hash(b)


class TestDegreesAndDerivative:
    def test_total_degree(self):
        assert (X**2 * Y + X).total_degree() == 3

    def test_degree_in(self):
        p = X**2 * Y + Y**3
        assert p.degree_in("x") == 2
        assert p.degree_in("y") == 3

    def test_diff_known(self):
        p = X**3 + 2 * X * Y
        assert p.diff("x") == 3 * X**2 + 2 * Y
        assert p.diff("y") == 2 * X

    def test_diff_constant(self):
        assert Polynomial.constant(XY, 5).diff("x").is_zero()

    def test_leibniz_random(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_poly(rng, XY)
            b = random_poly(rng, XY)
            lhs = (a * b).diff("x")
            rhs = a.diff("x") * b + a * b.diff("x")
            assert lhs == rhs


class TestSubstitute:
    def test_identity_subst(self):
        p = X**2 - Y
        assert p.substitute({"x": X, "y": Y}) == p

    def test_known_subst(self):
        p = X**2
        out = p.substitute({"x": X + Y, "y": Y})
        assert out == X**2 + 2 * X * Y + Y**2

    def test_cross_context(self):
        p = X + Y
        u1 = var(U12, "u1")
        u2 = var(U12, "u2")
        assert p.substitute({"x": u1, "y": u2}) == u1 + u2

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError):
            (X + Y).substitute({"x": X})

    def test_composition_associates(self):
        rng = random.Random(13)
        for _ in range(10):
            p = random_poly(rng, XY, max_degree=2)
            a = random_poly(rng, XY, max_degree=2)
            b = random_poly(rng, XY, max_degree=2)
            inner = {"x": a, "y": b}
            # (p o inner) evaluated == p evaluated at evaluated inner
            pt = {"x": Fraction(rng.randint(-3, 3)), "y": Fraction(rng.randint(-3, 3))}
            lhs = p.substitute(inner).evaluate(pt)
            rhs = p.evaluate({"x": a.evaluate(pt), "y": b.evaluate(pt)})
            assert lhs == rhs


class TestIntegerCore:
    """Products and substitution against the Fraction-dict references."""

    @given(polys(XY), polys(XY))
    def test_mul_matches_reference(self, a, b):
        assert a * b == reference_mul(a, b)

    @given(polys(U123, max_degree=2), polys(U123, max_degree=2))
    def test_mul_matches_reference_three_variables(self, a, b):
        assert a * b == reference_mul(a, b)

    @given(polys(XY, max_degree=2, max_terms=4), st.integers(0, 4))
    def test_pow_matches_reference(self, a, n):
        want = Polynomial.constant(XY, 1)
        for _ in range(n):
            want = reference_mul(want, a)
        assert a**n == want

    @pytest.mark.parametrize(
        "source, target",
        [(XY, XY), (U12, XY), (XY, U123), (XY, _TAG_CTX), (U123, XY)],
        ids=["xy-xy", "u12-xy", "xy-u123", "xy-tag", "u123-xy"],
    )
    @given(data=st.data())
    def test_substitute_matches_reference(self, source, target, data):
        p = data.draw(polys(source, max_degree=2))
        imgs = data.draw(images(source, target))
        got = p.substitute(imgs)
        assert got.context == target
        assert got == reference_substitute(p, imgs)

    @given(polys(U12, max_degree=3), polys(XY, max_degree=2, max_terms=4))
    def test_substitute_cancels_to_zero(self, r, g):
        # r(u1) - r(u2) vanishes whenever both variables get the same image
        r1 = Polynomial(U12, {(e[0], 0): c for e, c in r.terms.items()})
        r2 = r1.reindex(U12, {"u1": "u2"})
        out = (r1 - r2).substitute({"u1": g, "u2": g})
        assert out.is_zero() and out.terms == {}

    @given(polys(XY), COEFFS)
    def test_zero_and_constant_operands(self, a, c):
        zero, const = Polynomial.zero(XY), Polynomial.constant(XY, c)
        assert (a * zero).is_zero() and (zero * a).is_zero()
        assert a * const == reference_mul(a, const) == a * c
        u1, u2, zero_u = var(U12, "u1"), var(U12, "u2"), Polynomial.zero(U12)
        at_origin = Polynomial.constant(U12, a.terms.get((0, 0), 0))
        assert a.substitute({"x": zero_u, "y": zero_u}) == at_origin
        assert Polynomial.zero(U12).substitute({"u1": a, "u2": a}) == zero
        assert Polynomial.constant(U12, c).substitute({"u1": a, "u2": a}) == const
        assert const.substitute({"x": u1, "y": u2}) == Polynomial.constant(U12, c)


# contexts of 2, 3 and 4 variables, the lex tag basis context among them
CONTEXTS = [XY, U123, _TAG_CTX]
CONTEXT_IDS = ["xy", "u123", "tag"]

# (deg p, deg of the images) whose product lies on either side of a power
# of two: 15, 16, 63, 64, 32 and 31
SUBSTITUTE_BOUNDARIES = [(1, 15), (3, 5), (1, 16), (4, 4), (7, 9), (8, 8), (2, 16), (1, 31)]


def boundary_sums():
    """Exponent sums just below and at a power of two: 2**k - 1 and 2**k."""
    return st.integers(1, 8).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k]))


def exponents_summing_to(arity, total):
    """Exponent tuples of the given length with the given sum."""
    cuts = st.lists(st.integers(0, total), min_size=arity - 1, max_size=arity - 1)
    return cuts.map(
        lambda c: tuple(b - a for a, b in zip([0] + sorted(c), sorted(c) + [total]))
    )


class TestPackedKeys:
    """Packed monomial keys at the edges of their field width."""

    def test_field_width_is_the_bit_length_of_the_bound(self):
        for k in range(1, 10):
            assert poly._layout(2, 2**k - 1) == ((k, 0), 2**k - 1)
            assert poly._layout(2, 2**k) == ((k + 1, 0), 2 ** (k + 1) - 1)
        # constant and zero images give a bound of 0 or below
        assert poly._layout(1, 0) == ((0,), 1)
        assert poly._layout(4, -3) == ((3, 2, 1, 0), 1)

    def test_known_boundary_products(self):
        x, y, one = X, Y, Polynomial.constant(XY, 1)
        assert x**63 * x == P(XY, {(64, 0): 1})
        assert x**64 * x**64 == P(XY, {(128, 0): 1})
        for a, b in [
            (x**63 + y, x + one),
            (x**64 + y**64, x**64 + y),
            (x**127 * y**127 + one, x * y + one),
        ]:
            assert a * b == reference_mul(a, b) == b * a

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
    @given(data=st.data())
    def test_mul_fills_every_field_to_the_bound(self, ctx, data):
        total = data.draw(boundary_sums())
        ea = data.draw(st.integers(0, total))
        ca, cb = data.draw(COEFFS.filter(bool)), data.draw(COEFFS.filter(bool))
        low_a = data.draw(polys(ctx, max_degree=2, max_terms=3)).terms
        low_b = data.draw(polys(ctx, max_degree=2, max_terms=3)).terms
        a = Polynomial(ctx, {**low_a, (ea,) * ctx.arity: ca})
        b = Polynomial(ctx, {**low_b, (total - ea,) * ctx.arity: cb})
        assert a * b == reference_mul(a, b) == b * a

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
    @given(data=st.data())
    def test_one_term_and_zero_operands(self, ctx, data):
        a = data.draw(polys(ctx, max_degree=6))
        m = data.draw(polys(ctx, max_degree=70, max_terms=1))
        want = reference_mul(a, m)
        assert a * m == want and m * a == want
        assert m * m == reference_mul(m, m)

    @pytest.mark.parametrize(
        "source, target",
        [(XY, XY), (U12, U123), (XY, _TAG_CTX), (U123, XY)],
        ids=["xy-xy", "u12-u123", "xy-tag", "u123-xy"],
    )
    @given(data=st.data())
    def test_substitute_reaches_the_bound(self, source, target, data):
        t, d = data.draw(st.sampled_from(SUBSTITUTE_BOUNDARIES))
        top = data.draw(exponents_summing_to(source.arity, t))
        low = data.draw(polys(source, max_degree=1, max_terms=3)).terms
        low = {e: c for e, c in low.items() if sum(e) < t}
        p = Polynomial(source, {**low, top: data.draw(COEFFS.filter(bool))})
        # every image leads with the same variable to the power d, so the
        # result holds that variable to the power t * d, the bound itself
        j = data.draw(st.integers(0, target.arity - 1))
        lead = tuple(d if i == j else 0 for i in range(target.arity))
        imgs = {}
        for n in source.names:
            img_low = data.draw(polys(target, max_degree=1, max_terms=2)).terms
            c = data.draw(COEFFS.filter(bool))
            imgs[n] = Polynomial(target, {**img_low, lead: c})
        got = p.substitute(imgs)
        assert got == reference_substitute(p, imgs)
        assert max(e[j] for e in got.terms) == t * d

    @given(
        st.one_of(polys(XY), polys(XY, max_degree=0, max_terms=1)),
        polys(U12, max_degree=0, max_terms=1),
        polys(U12, max_degree=3, max_terms=3),
        st.booleans(),
    )
    def test_substitute_constant_or_zero_images(self, p, flat, other, both):
        # total_degree() of flat is 0 or -1, so the bound can be 0 or negative
        imgs = {"x": flat, "y": flat if both else other}
        assert p.substitute(imgs) == reference_substitute(p, imgs)
        imgs = {"x": other, "y": flat}
        assert p.substitute(imgs) == reference_substitute(p, imgs)


Z = VarContext(("z",))

# numerators at the edge of a bit length, 2**k - 1 and 2**k, of either sign
EDGES = st.builds(
    lambda k, below, sign: sign * (2**k - below),
    st.integers(1, 40),
    st.booleans(),
    st.sampled_from([1, -1]),
)


def over(ctx, den, max_degree=2, max_terms=4):
    """Polynomials in ctx whose coefficients are integers over den."""
    return polys(ctx, max_degree, max_terms, st.integers(-9, 9).map(lambda n: Fraction(n, den)))


def negative_tops(p):
    """p with the top coefficient in the last variable of every row negative."""
    tops = {}
    for e in p.terms:
        tops[e[:-1]] = max(tops.get(e[:-1], 0), e[-1])
    return Polynomial(
        p.context,
        {e: -abs(c) if e[-1] == tops[e[:-1]] else c for e, c in p.terms.items()},
    )


class TestRowSlots:
    """substitute at the edge of its row slots: every coefficient of the
    cleared result must stay below 2**(W-1) in absolute value."""

    @pytest.mark.parametrize(
        "source, target",
        [(XY, Z), (XY, XY), (U123, _TAG_CTX)],
        ids=["xy-z", "xy-xy", "u123-tag"],
    )
    @given(data=st.data())
    def test_one_term_result_reaches_the_height(self, source, target, data):
        # a monomial at monomial images gives one term whose cleared
        # coefficient is exactly +H or -H, the height bound itself
        def monomial(ctx, max_degree):
            e = data.draw(st.tuples(*[st.integers(0, max_degree)] * ctx.arity))
            return Polynomial(ctx, {e: Fraction(data.draw(EDGES), data.draw(st.integers(1, 6)))})

        p = monomial(source, 4)
        imgs = {n: monomial(target, 3) for n in source.names}
        got = p.substitute(imgs)
        assert len(got) == 1
        assert got == reference_substitute(p, imgs)

    @pytest.mark.parametrize("target", [XY, _TAG_CTX], ids=["xy", "tag"])
    @given(data=st.data())
    def test_cancelled_rows_and_negative_top_digits(self, target, data):
        # u1**k - u2**k cancels row by row when u1 and u2 share an image,
        # and u3 goes to rows whose top digit is negative
        k = data.draw(st.integers(1, 3))
        c = data.draw(COEFFS.filter(bool))
        w = data.draw(COEFFS.filter(lambda v: v > 0))
        shared = data.draw(polys(target, max_degree=2, max_terms=4))
        low = negative_tops(data.draw(polys(target, max_degree=2, max_terms=4)))
        u1, u2, u3 = (var(U123, n) for n in U123.names)
        p = c * (u1**k - u2**k) + w * u3
        imgs = {"u1": shared, "u2": shared, "u3": low}
        got = p.substitute(imgs)
        assert got == reference_substitute(p, imgs) == low * w

    @pytest.mark.parametrize(
        "source, target",
        [(XY, Z), (U123, Z), (U123, _TAG_CTX), (U12, U123)],
        ids=["xy-z", "u123-z", "u123-tag", "u12-u123"],
    )
    @given(data=st.data())
    def test_distinct_denominators(self, source, target, data):
        # with one variable the whole result is a single row
        p = data.draw(over(source, 7))
        imgs = {n: data.draw(over(target, d)) for n, d in zip(source.names, (2, 3, 5))}
        got = p.substitute(imgs)
        assert got.context == target
        assert got == reference_substitute(p, imgs)


class TestJacobian:
    def test_shear_is_unit(self):
        info = jacobian_det(X, Y + X**2)
        assert info.kind == "constant"
        assert info.value == 1

    def test_swap_is_minus_one(self):
        info = jacobian_det(Y, X)
        assert info.kind == "constant"
        assert info.value == -1

    def test_squaring_map(self):
        info = jacobian_det(X**2, Y)
        assert info.kind == "nonconstant"
        assert info.det == 2 * X

    def test_degenerate_pair(self):
        p = X + Y
        info = jacobian_det(p, p * p)
        assert info.kind == "zero"

    def test_chain_rule_random(self):
        rng = random.Random(99)
        for _ in range(25):
            f = Endomorphism(random_poly(rng, XY, 2, 3), random_poly(rng, XY, 2, 3))
            g = Endomorphism(random_poly(rng, XY, 2, 3), random_poly(rng, XY, 2, 3))
            h = compose(f, g)
            pulled = f.jacobian.det.substitute({"x": g.p, "y": g.q})
            assert h.jacobian.det == pulled * g.jacobian.det


class TestNormalization:
    def test_content_and_primitive(self):
        p = 6 * X + 4 * Y
        c, prim = p.content_and_primitive()
        assert c == 2
        assert prim == 3 * X + 2 * Y
        assert c * prim == p

    def test_negative_lead_flips(self):
        p = -2 * X + 4 * Y
        c, prim = p.content_and_primitive()
        assert c == -2
        assert prim == X - 2 * Y

    def test_fractional_content(self):
        p = Fraction(1, 2) * X + Fraction(3, 4) * Y
        c, prim = p.content_and_primitive()
        assert c == Fraction(1, 4)
        assert prim == 2 * X + 3 * Y

    def test_normalized_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng, U12)
            if p.is_zero():
                continue
            n = p.normalized()
            assert n.normalized() == n


def content_gcd(a, b):
    """The gcd of every numerator of a and b over the lcm of every
    denominator: the scalar that poly_gcd keeps."""
    cs = [*a.terms.values(), *b.terms.values()]
    return Fraction(
        math.gcd(*(c.numerator for c in cs)), math.lcm(*(c.denominator for c in cs))
    )


def rows(p, i=0):
    """p in the oracle's layout, rows by the degree in variable i of two."""
    return _b_from_terms({(e[i], e[1 - i]): c for e, c in p.terms.items()})


class TestExactDivision:
    def test_known_quotient(self):
        assert (X**2 - Y**2).exact_div(X - Y) == X + Y

    def test_rejects_nondivisor(self):
        with pytest.raises(ExactDivisionError):
            (X**2 + Y).exact_div(X - Y)

    @given(polys(XY), polys(XY))
    def test_random_products_divide(self, a, b):
        assume(not b.is_zero())
        assert (a * b).exact_div(b) == a

    @pytest.mark.parametrize(
        "a, b",
        [
            # the divisor's degree in some variable exceeds the dividend's
            (X, Y**2),
            (X**2 * Y, X * Y**2),
            # the lead x*y does not divide y^2: the x field borrows
            (X * Y + Y**2, X * Y + ONE),
            # the quotient term y^2 exceeds deg_y A - deg_y M = 0
            (X**2 + Y**2, X + Y**2),
            # 1 is not a multiple of lc(M) = 2: a non-integral step
            (X + ONE, 2 * X + ONE),
            # 3 is not a multiple of 2; dropping the remainder 1 of that
            # step would leave x*(2x + 1) and the quotient x
            (3 * X**2 + X, 2 * X + ONE),
        ],
        ids=["degree", "degree_both", "borrow", "room", "non_integral", "non_integral_lead"],
    )
    def test_named_nondivisors(self, a, b):
        with pytest.raises(ExactDivisionError):
            a.exact_div(b)
        assert not b.divides(a)

    def test_named_quotients(self):
        half = Polynomial.constant(XY, Fraction(1, 2))
        assert (X + half).exact_div(2 * X + ONE) == half
        # 64 fills the y field of the dividend to its bound
        assert (X**63 * Y**64).exact_div(X**31 * Y) == X**32 * Y**63

    def test_zero_divisor(self):
        zero = Polynomial.zero(XY)
        assert not zero.divides(X)
        assert zero.divides(zero)
        assert X.divides(zero)

    @given(
        polys(XY),
        st.one_of(polys(XY), polys(XY, coeffs=INTEGERS)),
        polys(XY, max_degree=2, max_terms=2),
        st.sampled_from([1, 2, 6, -1, -3]),
    )
    def test_matches_oracle(self, q, b, r, k):
        # k gives divisors with integer content above 1 and negative leads
        assume(not b.is_zero())
        b = b * k
        a = reference_mul(q, b) + r
        want = _b_exact_div(rows(a), rows(b))
        if want is None:
            with pytest.raises(ExactDivisionError):
                a.exact_div(b)
        else:
            assert rows(a.exact_div(b)) == want

    @given(
        polys(XY),
        polys(XY, max_degree=4, max_terms=1).filter(bool),
        polys(XY, max_degree=2, max_terms=2),
    )
    def test_one_term_divisor_matches_oracle(self, q, m, r):
        # COEFFS gives the monomial negative and rational coefficients
        a = reference_mul(q, m) + r
        want = _b_exact_div(rows(a), rows(m))
        if want is None:
            with pytest.raises(ExactDivisionError):
                a.exact_div(m)
        else:
            assert rows(a.exact_div(m)) == want


class TestGcd:
    def test_known_difference_of_squares(self):
        g = poly_gcd(X**2 - Y**2, X - Y)
        assert g == X - Y

    def test_integer_content_retained(self):
        assert poly_gcd(6 * X, 4 * X**2) == 2 * X

    def test_gcd_with_zero(self):
        p = 3 * X**2 - 3 * Y**2
        assert poly_gcd(p, Polynomial.zero(XY)) == X**2 - Y**2

    def test_gcd_zero_zero_undefined(self):
        z = Polynomial.zero(XY)
        with pytest.raises(ValueError):
            poly_gcd(z, z)

    def test_coprime(self):
        g = poly_gcd(X + Y, X - Y)
        assert g.is_constant()

    def test_random_common_factor(self):
        rng = random.Random(47)
        for _ in range(25):
            f = random_poly(rng, XY, 2, 3)
            a = random_poly(rng, XY, 2, 3)
            b = random_poly(rng, XY, 2, 3)
            if f.is_zero() or a.is_zero() or b.is_zero():
                continue
            g = poly_gcd(f * a, f * b)
            # the common factor divides the gcd
            assert g.divides(f * a) and g.divides(f * b)
            assert f.normalized().divides(g)

    def test_trivariate(self):
        u1, u2, u3 = (var(U123, n) for n in U123.names)
        f = u1 * u3 - u2
        g = poly_gcd(f * (u1 + u2), f * u3)
        assert g == f.normalized()

    @pytest.mark.parametrize(
        "ctx, i", [(XY, 0), (XY, 1), (U123, 1)], ids=["xy-x", "xy-y", "u123-u2"]
    )
    @given(data=st.data())
    def test_one_variable_matches_oracle(self, ctx, i, data):
        coeffs = data.draw(st.sampled_from([COEFFS, INTEGERS]), "coefficients")
        f, a1, b1 = (data.draw(st.lists(coeffs, max_size=4), n) for n in ("f", "a1", "b1"))
        k = data.draw(st.integers(1, 6), "shared integer factor")
        a, b = (_u_mul(_u_mul(f, c), [Fraction(k)]) for c in (a1, b1))

        def in_ctx(dense):
            unit = [int(j == i) for j in range(ctx.arity)]
            return Polynomial(ctx, {tuple(d * u for u in unit): c for d, c in enumerate(dense)})

        pa, pb = in_ctx(a), in_ctx(b)
        assume(pa or pb)
        want = in_ctx(_u_gcd(a, b)).normalized()
        if pa and pb:
            want = want * content_gcd(pa, pb)
        assert poly_gcd(pa, pb) == want


def prs_gcd(a, b):
    """poly_gcd with the heuristic switched off: the primitive PRS route."""
    with mock.patch.object(poly, "_gcd_heu", lambda *args: None):
        return poly_gcd(a, b)


YX = VarContext(("y", "x"))


def in_yx(terms):
    """A polynomial in the context (y, x), whose main variable is x."""
    return Polynomial(YX, {(ey, ex): c for (ex, ey), c in terms.items()})


@st.composite
def planted_gcd_pairs(draw):
    """(a, b, g) with a = g*a1*ca(y) and b = g*b1*cb(y); g and the cofactors
    have an x-leading coefficient that is a nonconstant polynomial in y."""

    def non_monic(label):
        dx = draw(st.integers(1, 2), label)
        lower = draw(
            st.dictionaries(
                st.tuples(st.integers(0, dx - 1), st.integers(0, 2)),
                st.integers(-5, 5).filter(bool),
                max_size=3,
            ),
            label,
        )
        lead = {(dx, 1): draw(st.integers(-3, 3).filter(bool), label)}
        lead[(dx, 0)] = draw(st.integers(-3, 3), label)
        return in_yx({**lower, **lead})

    def y_only(label):
        return in_yx(
            {(0, k): c for k, c in enumerate(draw(st.lists(st.integers(-3, 3), max_size=3), label))}
        ) or in_yx({(0, 0): 1})

    g = non_monic("g")
    shared = y_only("shared content")
    a = g * non_monic("a1") * shared * y_only("content of a")
    b = g * non_monic("b1") * shared * y_only("content of b")
    return a, b, g * shared


def coprime(F, G):
    """Oracle test that F, G in Q[y][x] share no nonconstant factor.

    Their contents in x must be coprime in Q[y], and at some integer y = c
    where neither x-leading coefficient vanishes their images must be
    coprime in Q[x]: a common factor of positive x-degree keeps that degree
    at such a point. For coprime inputs only the roots of the resultant and
    of the two leading coefficients fail, fewer than the 81 points tried.
    """

    def x_content(H):
        c = []
        for k in range(len(H)):
            c = _u_gcd(c, _b_row(H, k))
        return c

    if len(_u_gcd(x_content(F), x_content(G))) > 1:
        return False
    for c in range(-40, 41):
        f, g = _b_eval_y(F, c), _b_eval_y(G, c)
        if len(f) == len(F) and len(g) == len(G) and len(_u_gcd(f, g)) == 1:
            return True
    return False


class TestVarContent:
    @pytest.mark.parametrize(
        "ctx, text, i, cont, prim, two_variable_route",
        [
            # coefficients in y alone: one gcd_z fold, integer content kept
            (XY, "6*x^2*y + 4*y", 0, "2*y", "3*x^2 + 2", False),
            (XY, "-x^2*y^2 + x*y", 0, "y", "x^2*y - x", False),
            (XY, "3*x^2 - 5", 0, "1", "3*x^2 - 5", False),
            # coefficients in u2 and u3 take _gcd_many
            (U123, "(u2*u3 + 1)*(u1^2*u3 + u2)", 0, "u2*u3 + 1", "u1^2*u3 + u2", True),
            (U123, "u1*u2*u3 + u2*u3", 0, "u2*u3", "u1 + 1", True),
        ],
    )
    def test_split(self, ctx, text, i, cont, prim, two_variable_route):
        p = parse_poly(text, ctx)
        with mock.patch.object(poly, "_gcd_many", wraps=poly._gcd_many) as spy:
            c, q = poly._split_var_content(p, i)
        assert spy.called == two_variable_route
        assert c * q == p
        # the integer content goes to the content, the sign to either part
        assert c in (parse_poly(cont, ctx), -parse_poly(cont, ctx))


class TestHeuristicGcd:
    @given(planted_gcd_pairs())
    def test_matches_oracle(self, pair):
        a, b, planted = pair
        g = poly_gcd(a, b)
        # rows by x, the second variable of (y, x)
        A, B, G = rows(a, 1), rows(b, 1), rows(g, 1)
        ca, cb = _b_exact_div(A, G), _b_exact_div(B, G)
        assert ca is not None and cb is not None
        assert coprime(ca, cb)
        assert _b_exact_div(G, rows(planted, 1)) is not None
        assert g == content_gcd(a, b) * g.normalized()

    @pytest.mark.parametrize(
        "a, b, gcd, heuristic_answers",
        [
            # at the first point xi = 31 the cofactors y - x and y - 2x + 31
            # share the root y = 31, so the first candidate, y^2 - x^2, has
            # the right degree but does not divide both inputs; the next
            # point works
            ("(y + x)*(y - x)", "(y + x)*(y - 2*x + 31)", "y + x", True),
            # at every integer x the gcd's image (x^2 + x)*y + 2 has content
            # 2, which only the factor gcd(image contents) puts back
            ("(x^2*y + x*y + 2)*(y + 1)", "(x^2*y + x*y + 2)*(y - x)", "x*y + x^2*y + 2", True),
            # the y-leading coefficient of one input vanishes at all four
            # points tried (31, 84, 229, 625), so the PRS answers
            ("(y + x)*((x - 31)*(x - 84)*(x - 229)*(x - 625)*y + 1)", "(y + x)*(y - x)", "y + x", False),
        ],
        ids=["rejected_candidate", "image_content", "prs_fallback"],
    )
    def test_named_inputs(self, a, b, gcd, heuristic_answers):
        a, b, gcd = (parse_poly(t, XY) for t in (a, b, gcd))
        for p, q in ((a, b), (b, a)):
            assert (poly._gcd_heu(p, q, 1, 0) is not None) == heuristic_answers
            assert poly_gcd(p, q) == prs_gcd(p, q) == gcd

    @given(st.one_of(planted_gcd_pairs().map(lambda t: t[:2]), st.tuples(polys(XY), polys(XY))))
    def test_cofactors(self, pair):
        a, b = pair
        assume(a and b)
        g, qa, qb = poly._gcd_cofactors(a, b)
        assert g == poly_gcd(a, b).normalized()
        assert g * qa == a and g * qb == b

    def test_cofactors_are_the_heuristic_proofs_quotients(self):
        # the first candidate is rejected, the second proved by two
        # divisions whose quotients are the cofactors: no third division
        a = parse_poly("(y + x)*(y - x)", XY)
        b = parse_poly("(y + x)*(y - 2*x + 31)", XY)
        with mock.patch.object(
            Polynomial, "exact_div", autospec=True, side_effect=Polynomial.exact_div
        ) as spy:
            g, qa, qb = poly._gcd_cofactors(a, b)
        assert g == parse_poly("y + x", XY)
        assert [c.args[1] for c in spy.call_args_list].count(g) == 2


class TestPrinting:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (Y + X**2, "y + x^2"),
            (X - Y, "-y + x"),
            (Polynomial.zero(XY), "0"),
            (Polynomial.constant(XY, Fraction(-3, 4)), "-3/4"),
            (Fraction(3, 4) * X * Y**2, "3/4*x*y^2"),
            (2 * X - Polynomial.constant(XY, 1), "-1 + 2*x"),
        ],
    )
    def test_known_strings(self, poly, text):
        assert str(poly) == text

    def test_u_contexts(self):
        u1, u2, u3 = (var(U123, n) for n in U123.names)
        assert str(u3**2 - u1) == "u3^2 - u1"
        v1, v2 = (var(U12, n) for n in U12.names)
        assert str(v2 - v1**2) == "u2 - u1^2"


class TestEndomorphism:
    def test_identity(self):
        f = identity_map()
        assert f.p == X and f.q == Y
        assert f.is_keller()

    def test_compose_convention(self):
        # f(x, y) = (x, y + x^2), g = coordinate swap; f o g acts as f after g
        f = Endomorphism(X, Y + X**2)
        g = Endomorphism(Y, X)
        h = compose(f, g)
        assert (h.p, h.q) == (Y, X + Y**2)
        pt = {"x": Fraction(2), "y": Fraction(5)}
        assert h.apply(pt) == f.apply({"x": g.p.evaluate(pt), "y": g.q.evaluate(pt)})

    def test_hashable(self):
        f = Endomorphism(X, Y + X**2)
        g = Endomorphism(X, Y + X * X)
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1

    def test_immutable(self):
        f = identity_map()
        with pytest.raises(AttributeError):
            f.p = X
