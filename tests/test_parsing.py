"""Parser behavior: grammar corners, error positions, and round-trips."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keller.errors import ParseError, UnknownVariableError
from keller.groebner import MAX_COEFF_BITS
from keller.parsing import (
    MAX_EXPANDED_DEGREE,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_TERM_PRODUCTS,
    parse_poly,
)
from keller.poly import U123, XY, Polynomial, VarContext

from oracles import expressions

X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")
# 1200 digits, 3986 bits: within the coefficient cap, its square is not
_A = int("7" * 1200)


def random_poly(rng, ctx, max_degree=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        left = max_degree
        for _ in range(ctx.arity):
            e = rng.randint(0, left)
            exps.append(e)
            left -= e
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(ctx, terms)


class TestBasics:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x", "x"),
            ("x + y", "x+y"),
            ("x+2*y", "x + 2y"),
            ("x^2 - 1", "(x+1)(x-1)"),
            ("x*x*x", "x^3"),
            ("0", "x - x"),
        ],
    )
    def test_equivalent_spellings(self, text, expected):
        assert parse_poly(text, XY) == parse_poly(expected, XY)

    def test_rational_constants(self):
        assert parse_poly("3/4", XY) == Polynomial.constant(XY, Fraction(3, 4))
        assert parse_poly("-3/4", XY) == Polynomial.constant(XY, Fraction(-3, 4))
        assert parse_poly("6/4", XY) == Polynomial.constant(XY, Fraction(3, 2))

    def test_juxtaposition_multiplies(self):
        one = Polynomial.constant(XY, 1)
        assert parse_poly("2x y", XY) == 2 * X * Y
        assert parse_poly("3(x+1)", XY) == 3 * (X + one)
        assert parse_poly("(x+1)(x-1)", XY) == X**2 - one

    def test_constant_powers_fold(self):
        assert parse_poly("2^3", XY) == Polynomial.constant(XY, 8)
        assert parse_poly("x^0", XY) == Polynomial.constant(XY, 1)

    @pytest.mark.parametrize(
        "text, build",
        [
            ("x*x*y^2*x", lambda: X * X * Y**2 * X),
            ("0*x*y", lambda: Polynomial.constant(XY, 0) * X * Y),
            ("2*3*x", lambda: Polynomial.constant(XY, 2) * Polynomial.constant(XY, 3) * X),
            ("x*(y + 1)", lambda: X * (Y + Polynomial.constant(XY, 1))),
            ("-3/4*x^0*y^2*1/2", lambda: Polynomial.constant(XY, Fraction(-3, 8)) * Y**2),
        ],
    )
    def test_products_match_polynomial_arithmetic(self, text, build):
        # a product of constants and powers of variables is built as one
        # term; any other product multiplies Polynomials
        assert parse_poly(text, XY) == build()

    def test_slash_is_not_division(self):
        # '/' only builds rational literals, so x/2 is a syntax error
        with pytest.raises(ParseError):
            parse_poly("x/2", XY)


class TestPrecedence:
    def test_unary_minus_binds_looser_than_power(self):
        assert parse_poly("-x^2", XY) == -(X**2)
        assert parse_poly("(-x)^2", XY) == X**2

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("2*x^3", XY) == 2 * X**3
        assert parse_poly("x^2 y^3", XY) == X**2 * Y**3

    def test_minus_chains_left_to_right(self):
        assert parse_poly("x - y - y", XY) == X - 2 * Y

    def test_double_negation(self):
        assert parse_poly("--x", XY) == X
        assert parse_poly("-(-x + y)", XY) == X - Y


class TestErrors:
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x^-1", "negative exponents are not allowed", 2),
            ("x^y", "the exponent must be a natural number", 2),
            ("x^1/2", "fractional exponents are not allowed", 3),
            ("1/-2", "the denominator must be positive", 2),
            ("1/0", "the denominator must be positive", 2),
            ("1/x", "expected a denominator", 2),
            ("", "empty input", 0),
            ("   ", "empty input", 0),
            ("x + ", "unexpected end of input", 4),
            ("x $ y", "unexpected character '$'", 2),
            (")x", "unexpected ')'", 0),
            # digits are ASCII: a superscript or Arabic-Indic digit is no number
            ("x^\u00b2", "unexpected character '\u00b2'", 2),
            ("2 + \u0663x", "unexpected character '\u0663'", 4),
        ],
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert exc.value.message == message
        assert exc.value.position == position

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("(x + y", XY)
        assert exc.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x)", XY)
        assert exc.value.position == 1

    def test_position_is_in_str(self):
        with pytest.raises(ParseError, match=r"at position 2"):
            parse_poly("x^-1", XY)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError, match=r"unknown variable 'z'"):
            parse_poly("x*z", XY)

    def test_unknown_variable_lists_expected(self):
        with pytest.raises(UnknownVariableError, match=r"expected one of x, y"):
            parse_poly("q", XY)

    def test_nesting_is_capped_at_the_offending_paren(self):
        assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, XY) == X
        for depth in (MAX_NESTING + 1, 400, 5000):
            with pytest.raises(ParseError) as exc:
                parse_poly("(" * depth + "x" + ")" * depth, XY)
            assert exc.value.message == f"parentheses nested deeper than {MAX_NESTING}"
            assert exc.value.position == MAX_NESTING

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("(x+y)^2000", "the power has degree 2000", 5),
            ("x^1001", "the power has degree 1001", 1),
            ("2*(x*y)^501", "the power has degree 1002", 7),
            ("((x+y)^40)^40", "the power has degree 1600", 10),
            ("(x+y)^600*(x-y)^600", "the product has degree 1200", 10),
        ],
    )
    def test_expanded_degree_is_capped(self, text, message, position):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert time.perf_counter() - start < 1
        assert exc.value.message == f"{message}, above the cap of {MAX_EXPANDED_DEGREE}"
        assert exc.value.position == position

    def test_degree_at_the_cap_parses(self):
        assert parse_poly("x^1000", XY) == X**1000
        assert parse_poly("(x*y)^500 + (x^2+y)^10*(x-y)^980", XY).total_degree() == 1000

    @pytest.mark.parametrize(
        "text, bits, position",
        [
            # a constant has degree 0, so only its size bounds its power
            ("3^40000000", 63398501, 1),
            ("2 + 3^647", 1026, 5),
            ("(3*x+y)^600", 1201, 7),
            ("(1/1000*x + y)^52", 1037, 14),
        ],
    )
    def test_coefficient_bits_of_a_power_are_capped(self, text, bits, position):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert time.perf_counter() - start < 1
        assert exc.value.message == (
            f"the power has coefficients of up to {bits} bits, above the cap of {MAX_POWER_BITS}"
        )
        assert exc.value.position == position

    def test_bits_at_the_cap_parse(self):
        assert parse_poly("2^1024", XY).constant_value() == 2**1024
        assert parse_poly("3^646", XY).constant_value() == 3**646
        assert parse_poly("(1/1000*x + y)^51", XY).total_degree() == 51

    @pytest.mark.parametrize(
        "text, position",
        [
            # degree 1000 is within the degree cap, but the power has about
            # 500,000 terms, built from about 10^9 term products
            ("(x+y+1)^1000", 7),
            ("(x+y+1)^110", 7),
            # the work adds up over the text
            ("(x+y+1)^60*(x-y+1)^60", 11),
            ("(x+y)^999 + (x+y)^999 + (x+y)^999 + (x+y)^999 + (x+y)^999", 53),
        ],
    )
    def test_expansion_work_is_capped(self, text, position):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert time.perf_counter() - start < 5
        assert exc.value.message == (
            f"expanding the parentheses takes over {MAX_TERM_PRODUCTS} term products"
        )
        assert exc.value.position == position

    def test_work_under_the_cap_parses(self):
        assert len(parse_poly("(x+y+1)^100", XY).terms) == 5151
        assert parse_poly("(0)^1000000000 + (2)^10", XY).constant_value() == 1024

    @pytest.mark.parametrize(
        "text, position",
        [
            ("7" * 4400 + "*x", 0),
            ("x + 1/" + "7" * 4400, 6),
            ("x^" + "7" * 4400, 2),
        ],
    )
    def test_long_numerals_are_refused_before_conversion(self, text, position):
        # int() of more than 4300 digits raises ValueError in CPython
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert exc.value.message == (
            f"a numeral of 4400 digits is above the cap of {MAX_COEFF_BITS} bits"
        )
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text, big, position",
        [
            # a numeral one bit past the cap
            (str(1 << MAX_COEFF_BITS), 1 << MAX_COEFF_BITS, 0),
            # a term coefficient, at the factor that takes it past the cap
            (f"{_A}*{_A}*{_A}*{_A}*x", _A**2, 1201),
            (f"2/{_A}*x*1/{_A}", _A**2, 1205),
            # a term times a parenthesized sum, at the start of the term
            (f"y + {_A}*({_A}*x + 1)", _A**2, 4),
            # like terms summed over two denominators
            (f"1/{_A}*x + 1/{_A + 1}*x", _A * (_A + 1), 1207),
            # a product of parenthesized factors, at its second '('
            (f"({_A}*x + 1)*({_A}*x - 1)", _A**2, 1209),
        ],
    )
    def test_coefficients_are_capped_where_built(self, text, big, position):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XY)
        assert exc.value.message == (
            f"a coefficient of {big.bit_length()} bits is above the cap of {MAX_COEFF_BITS} bits"
        )
        assert exc.value.position == position

    def test_coefficients_at_the_cap_parse(self):
        top = (1 << MAX_COEFF_BITS) - 1
        assert parse_poly(str(top), XY).constant_value() == top
        assert parse_poly(f"1/{top}*x", XY) == X / top
        # leading zeros are not significant digits
        assert parse_poly("0" * 5000 + "7*x", XY) == 7 * X
        assert parse_poly("x^" + "0" * 5000 + "2", XY) == X**2

    def test_first_error_met_wins(self):
        # one pass: an unknown name read before a syntax error is reported
        with pytest.raises(UnknownVariableError, match=r"unknown variable 'z'"):
            parse_poly("z + )", XY)
        with pytest.raises(ParseError) as exc:
            parse_poly("x + ) z", XY)
        assert (exc.value.message, exc.value.position) == ("unexpected ')'", 4)
        # the text is split into tokens first, so a bad character anywhere
        # comes before either
        with pytest.raises(ParseError) as exc:
            parse_poly("z + ) $", XY)
        assert exc.value.message == "unexpected character '$'"


class TestAgainstEvaluation:
    @settings(max_examples=100, deadline=2000)
    @given(st.sampled_from([XY, U123]).flatmap(expressions))
    def test_parse_equals_polynomial_arithmetic(self, case):
        text, value = case
        assert parse_poly(text, value.context) == value


class TestRoundTrip:
    @pytest.mark.parametrize("ctx", [XY, U123, VarContext(("a", "b"))])
    def test_parse_of_str_is_identity(self, ctx):
        rng = random.Random(20240 + ctx.arity)
        for _ in range(40):
            p = random_poly(rng, ctx)
            assert parse_poly(str(p), ctx) == p

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            max_size=6,
        )
    )
    def test_parse_of_str_property(self, terms):
        p = Polynomial(XY, terms)
        assert parse_poly(str(p), XY) == p

    def test_zero_round_trips(self):
        z = Polynomial.zero(XY)
        assert parse_poly(str(z), XY) == z

    def test_whitespace_invariance(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_poly(rng, XY)
            squeezed = str(p).replace(" ", "")
            assert parse_poly(squeezed, XY) == p
