"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
numeric claim here is exact rational arithmetic; the only tolerances are
wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from keller import (
    GREVLEX,
    LEX,
    U12,
    U123,
    XY,
    Endomorphism,
    Ideal,
    Polynomial,
    VarContext,
    Verdict,
    block_order,
    buchberger,
    classify,
    compose,
    factor_bivariate,
    image_under,
    jacobian_det,
    kernel_generator,
    localization_units_check,
    random_tame,
    stays_irreducible,
    subring_membership,
    uv_decomposition,
    verify_inverse,
)
from keller.parsing import parse_poly

from oracles import is_groebner_basis, reference_factor_bivariate

X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")

CORPUS_SIZE = 100


def _line(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def xy(text):
    return parse_poly(text, XY)


def uu(text):
    return parse_poly(text, U12)


def uuu(text):
    return parse_poly(text, U123)


@pytest.fixture(scope="module")
def corpus():
    """Seeds 0..99, each classified once; reused by several criteria."""
    rows = []
    start = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        f, recipe = random_tame(seed, max_steps=4, degree_cap=12)
        report = classify(f)
        inverse_ok = False
        if report.inverse is not None:
            s, t = report.inverse
            inverse_ok = verify_inverse(f, s, t)
        rows.append((seed, f, report, inverse_ok))
    elapsed = time.perf_counter() - start
    return {"rows": rows, "elapsed": elapsed}


def test_criterion_01_tame_corpus_soundness(corpus):
    rows, elapsed = corpus["rows"], corpus["elapsed"]
    auto = sum(1 for _, _, rep, _ in rows if rep.verdict is Verdict.AUTOMORPHISM)
    verified = sum(1 for _, _, _, ok in rows if ok)
    ok = auto == CORPUS_SIZE and verified == CORPUS_SIZE and elapsed < 120.0
    _line(1, ok, f"classify {auto}/{CORPUS_SIZE}, inverse {verified}/{CORPUS_SIZE}, {elapsed:.1f} s")
    assert auto == CORPUS_SIZE
    assert verified == CORPUS_SIZE
    assert elapsed < 120.0


def test_criterion_02_tfae_consistency(corpus):
    rows = corpus["rows"]
    good = 0
    candidates = 0
    for _, _, rep, _ in rows:
        if rep.verdict is Verdict.COUNTEREXAMPLE_CANDIDATE:
            candidates += 1
        t = rep.tfae
        if t is not None and t.i and t.ii and t.iii and t.consistent:
            good += 1
    ok = good == CORPUS_SIZE and candidates == 0
    _line(2, ok, f"all-true tfae {good}/{CORPUS_SIZE}, candidates {candidates}")
    assert good == CORPUS_SIZE
    assert candidates == 0


def test_criterion_03_hand_oracles():
    timings = []

    start = time.perf_counter()
    rep = classify(Endomorphism(X, Y + X**2))
    assert rep.kernel.generator == uuu("u1 - u3")
    assert rep.kernel.r == 1
    assert rep.uv.u == uuu("u2 - u1^2")
    assert rep.uv.v == uu("1")
    assert rep.inverse == (uu("u1"), uu("u2 - u1^2"))
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    rep = classify(Endomorphism(Y, X))
    assert rep.kernel.generator == uuu("u2 - u3")
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    rep = classify(Endomorphism(X**2, Y), force=True)
    assert rep.verdict is Verdict.NOT_KELLER_NONCONSTANT
    assert rep.kernel.generator == uuu("u3^2 - u1")
    assert rep.kernel.r == 2
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    d = uv_decomposition(Endomorphism(X, X * Y))
    assert d.u == uuu("u2")
    assert d.v == uu("u1")
    timings.append(time.perf_counter() - start)

    worst = max(timings)
    ok = worst < 1.0
    _line(3, ok, f"4/4 exact, slowest case {worst * 1000:.0f} ms")
    assert ok


def test_criterion_04_defining_identity(corpus):
    checked = 0
    for _, f, rep, _ in corpus["rows"]:
        d = rep.uv
        v_img = d.v.substitute({"u1": f.p, "u2": f.q})
        u_img = d.u.substitute({"u1": f.p, "u2": f.q, "u3": X})
        assert (v_img * Y - u_img).is_zero()
        checked += 1
    d = uv_decomposition(Endomorphism(X, X * Y))
    v_img = d.v.substitute({"u1": X, "u2": X * Y})
    u_img = d.u.substitute({"u1": X, "u2": X * Y, "u3": X})
    assert (v_img * Y - u_img).is_zero()
    checked += 1
    _line(4, True, f"v(p,q)*y - u(p,q,x) == 0 for {checked} maps")


def test_criterion_05_degree_agreement(corpus):
    agreed = 0
    for _, f, rep, _ in corpus["rows"]:
        assert rep.uv.r == rep.kernel.r
        agreed += 1
    for a in range(1, 6):
        f = Endomorphism(X**a, Y)
        k = kernel_generator(f)
        d = uv_decomposition(f)
        expected = uuu(f"u3^{a} - u1")
        assert k.r == a and d.r == a
        assert k.generator in (expected, -expected)
        agreed += 1
    _line(5, True, f"r agreement on {agreed} maps, monomial family r == a for a = 1..5")


def _random_mixed_poly(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        dx = rng.randint(0, max_degree)
        dy = rng.randint(0, max_degree - dx)
        terms[(dx, dy)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    p = Polynomial(XY, terms)
    return p if not p.is_zero() else X


def _draw_irreducible(rng, max_degree):
    """Rejection-sample a Q-irreducible polynomial, certified by the oracle."""
    while True:
        p = _random_mixed_poly(rng, max_degree)
        if p.is_constant() or p.total_degree() > max_degree:
            continue
        parts = reference_factor_bivariate(p)
        if len(parts) == 1 and parts[0][1] == 1:
            return parts[0][0]


def test_criterion_06_factorization_round_trip():
    # round trip: rebuild the constructed multiset, factors of degree <= 4
    round_trips = 0
    for seed in range(50):
        rng = random.Random(600 + seed)
        picked = [
            _draw_irreducible(rng, rng.randint(1, 4)),
            _draw_irreducible(rng, rng.randint(1, 4)),
        ]
        content = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
        product = Polynomial.constant(XY, content)
        expected = {}
        for g in picked:
            product = product * g
            expected[g] = expected.get(g, 0) + 1
        fact = factor_bivariate(product)
        assert list(fact.factors) == sorted(
            expected.items(), key=lambda t: (t[0].total_degree(), str(t[0]))
        )
        assert fact.product_in(XY) == product
        round_trips += 1

    # oracle agreement on fresh products of total degree <= 4
    agreements = 0
    for seed in range(50):
        rng = random.Random(6600 + seed)
        product = _draw_irreducible(rng, 2) * _draw_irreducible(rng, 2)
        if list(factor_bivariate(product).factors) == reference_factor_bivariate(product):
            agreements += 1
    ok = round_trips == 50 and agreements == 50
    _line(6, ok, f"round trip {round_trips}/50, oracle agreement {agreements}/50")
    assert agreements == 50


def _all_factors_preserved(f, v):
    if v.is_constant():
        return True
    fact = factor_bivariate(v, degree_cap=max(10, v.total_degree()))
    return all(
        stays_irreducible(vj, f, degree_cap=40).preserved for vj, _ in fact.factors
    )


def test_criterion_07_units_irreducibility_equivalence(corpus):
    cases = 0
    agreements = 0
    for _, f, rep, _ in corpus["rows"]:
        v = rep.uv.v
        units = localization_units_check(f, v, degree_cap=40)
        cases += 1
        if units.all_units_in_Cpq == _all_factors_preserved(f, v):
            agreements += 1
    adversarial_maps = [Endomorphism(X**2, Y), Endomorphism(X**2, Y**2)]
    for f in adversarial_maps:
        for v in [uu("u1"), uu("u1 - u2"), uu("u1*u2")]:
            units = localization_units_check(f, v)
            cases += 1
            if units.all_units_in_Cpq == _all_factors_preserved(f, v):
                agreements += 1
    ok = agreements == cases
    _line(7, ok, f"two routes agree {agreements}/{cases}")
    assert agreements == cases


def test_criterion_08_wang_membership(corpus):
    hits = 0
    total = 0
    for seed, f, _, _ in corpus["rows"][:20]:
        rng = random.Random(800 + seed)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                du = rng.randint(0, 3)
                dv = rng.randint(0, 3 - du)
                terms[(du, dv)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            G = Polynomial(U12, terms)
            w = image_under(f, G)
            total += 1
            G2 = subring_membership(w, f)
            if G2 is not None and image_under(f, G2) == w:
                hits += 1
    negative = subring_membership(X, Endomorphism(X**2, Y**2))
    ok = hits == total == 400 and negative is None
    _line(8, ok, f"membership reconstructed {hits}/{total}, negative case returns none")
    assert hits == total == 400
    assert negative is None


def _kernel_ideal(f):
    ctx = VarContext(("y", "u1", "u2", "u3"))
    u1 = Polynomial.variable(ctx, "u1")
    u2 = Polynomial.variable(ctx, "u2")
    u3 = Polynomial.variable(ctx, "u3")
    yv = Polynomial.variable(ctx, "y")
    images = {"x": u3, "y": yv}
    return ctx, [u1 - f.p.substitute(images), u2 - f.q.substitute(images)], block_order(1)


def _tag_ideal(f):
    ctx = VarContext(("y", "x", "u1", "u2"))
    u1 = Polynomial.variable(ctx, "u1")
    u2 = Polynomial.variable(ctx, "u2")
    images = {"x": Polynomial.variable(ctx, "x"), "y": Polynomial.variable(ctx, "y")}
    return ctx, [u1 - f.p.substitute(images), u2 - f.q.substitute(images)], LEX


def test_criterion_09_groebner_engine(corpus):
    shear = Endomorphism(X, Y + X**2)
    swap = Endomorphism(Y, X)
    jobs = [_kernel_ideal(shear), _kernel_ideal(swap)]
    jobs.append(_kernel_ideal(Endomorphism(X**2, Y)))
    jobs.append(_kernel_ideal(Endomorphism(X, X * Y)))
    for a in (2, 5):
        jobs.append(_kernel_ideal(Endomorphism(X**a, Y)))
    for _, f, _, _ in corpus["rows"][:5]:
        jobs.append(_kernel_ideal(f))
    jobs.append(_tag_ideal(shear))
    jobs.append(_tag_ideal(Endomorphism(X**2, Y**2)))
    jobs.append(_tag_ideal(corpus["rows"][0][1]))
    one = Polynomial.constant(XY, 1)
    jobs.append((XY, [X**2 + Y**2 - one, X - Y], GREVLEX))

    bases = 0
    for i, (ctx, gens, order) in enumerate(jobs):
        basis = buchberger(Ideal(ctx, gens), order)
        assert is_groebner_basis(basis, order, generators=gens)
        rng = random.Random(900 + i)
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert buchberger(Ideal(ctx, shuffled), order) == basis
        bases += 1
    _line(9, True, f"{bases} bases: generators reduce to 0, S-pairs reduce to 0, 3 shuffles stable")


def test_criterion_10_jacobian_chain_rule():
    good = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        f = Endomorphism(_random_mixed_poly(rng, 3), _random_mixed_poly(rng, 3))
        g = Endomorphism(_random_mixed_poly(rng, 3), _random_mixed_poly(rng, 3))
        h = compose(f, g)
        lhs = jacobian_det(h.p, h.q).det
        jf = jacobian_det(f.p, f.q).det.substitute({"x": g.p, "y": g.q})
        rhs = jf * jacobian_det(g.p, g.q).det
        assert lhs == rhs
        good += 1
    _line(10, True, f"Jac(f o g) == Jac(f)(g) * Jac(g) exactly for {good}/50 pairs")
