"""End-to-end classification tests: verdicts, inverses, and the TFAE bits."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keller.factor as factor_module
import keller.groebner as groebner_module
import keller.pipeline as pipeline_module
from keller.errors import (
    InternalInconsistencyError,
    MembershipFailedError,
    ResourceCapExceeded,
)
from keller.factor import localization_units_check
from keller.funcfield import uv_decomposition
from keller.groebner import (
    _TAG_CTX,
    RunStats,
    _by_lead,
    clear_caches,
    kernel_generator,
    subring_membership,
)
from keller.pipeline import TfaeReport, Verdict, classify, invert, verify_inverse
from keller.poly import U12, XY, Endomorphism, Polynomial, compose, identity_map
from keller.tame import (
    Affine,
    ElementaryX,
    TameCertificate,
    TameRecipe,
    decompose,
    generate_tame,
    random_tame,
)

X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")
U1 = Polynomial.variable(U12, "u1")
U2 = Polynomial.variable(U12, "u2")
TY, TX, T1, T2 = (Polynomial.variable(_TAG_CTX, n) for n in ("y", "x", "u1", "u2"))


def patch_tag_basis(monkeypatch, basis):
    """Make invert read ``basis`` in place of the map's lex tag basis."""
    read = _by_lead(basis)
    monkeypatch.setattr(pipeline_module, "tag_basis_by_lead", lambda f, stats: read)


class TestClassifyVerdicts:
    def test_shear_is_automorphism(self):
        report = classify(Endomorphism(X, Y + X**2))
        assert report.verdict is Verdict.AUTOMORPHISM
        assert report.inverse == (U1, U2 - U1**2)
        assert report.tfae == TfaeReport(True, True, True)
        assert report.tfae.consistent

    def test_square_map_not_keller(self):
        report = classify(Endomorphism(X**2, Y))
        assert report.verdict is Verdict.NOT_KELLER_NONCONSTANT
        assert str(report.jacobian.det) == "2*x"
        assert report.kernel is None
        assert report.tfae is None

    def test_zero_jacobian(self):
        report = classify(Endomorphism(X, X))
        assert report.verdict is Verdict.NOT_KELLER_ZERO

    def test_forced_evidence_on_x_times_y(self):
        report = classify(Endomorphism(X, X * Y), force=True)
        assert report.verdict is Verdict.NOT_KELLER_NONCONSTANT
        assert report.kernel is not None and report.kernel.r == 1
        assert report.uv.u == Polynomial.variable(report.uv.u.context, "u2")
        assert report.uv.v == U1
        assert report.units is not None and report.units.all_units_in_Cpq
        # the conclusion must stay gated: evidence is informational only
        assert report.tfae is None
        assert any("informational" in note for note in report.notes)
        # v = u1 is not constant: the units route did real work
        assert not any("bit iii holds without any work" in n for n in report.notes)

    def test_constant_v_note_on_an_automorphism(self):
        report = classify(Endomorphism(X, Y + X**2))
        assert report.uv.v.is_constant()
        assert report.units.witnesses == ()
        (note,) = [n for n in report.notes if "bit iii" in n]
        assert "holds without any work" in note
        assert "Q[p, q]" in note and "C(p, q)" in note
        assert "cannot change a verdict on a Keller map" in note

    def test_identity(self):
        report = classify(identity_map())
        assert report.verdict is Verdict.AUTOMORPHISM
        assert report.inverse == (U1, U2)

    def test_linear_swap(self):
        report = classify(Endomorphism(Y, X))
        assert report.verdict is Verdict.AUTOMORPHISM
        assert report.inverse == (U2, U1)
        assert str(report.kernel.generator) == "-u3 + u2"

    def test_report_carries_stats(self):
        report = classify(Endomorphism(X, Y + X**2))
        assert report.stats.millis >= 0
        assert report.stats.spairs >= 0

    def test_report_stats_are_the_callers(self, monkeypatch):
        # the clock reads 0.0, 0.25, 0.5, ... so one run takes 250 ms
        ticks = iter(range(1000))
        monkeypatch.setattr(groebner_module, "perf_counter", lambda: next(ticks) / 4)
        stats = RunStats(millis=5, spair_budget=100)
        report = classify(Endomorphism(X, Y + X**2), stats=stats)
        assert report.stats is stats
        assert stats.millis == 5 + 250
        assert stats.max_degree > 0

    def test_membership_failure_at_r_1_propagates(self, monkeypatch):
        # r = 1 promises both memberships, so a tag basis that is not
        # {x - s(u), y - t(u)} is an internal error and not a verdict; the
        # basis below is the one of (x^2, y)
        patch_tag_basis(monkeypatch, (TY - T2, TX**2 - T1))
        with pytest.raises(MembershipFailedError):
            classify(Endomorphism(X, Y + X**2))

    def test_spairs_count_work_not_cache_hits(self):
        # seed 50: the kernel generator takes 3 S-pairs and the tag basis 3;
        # a warm rerun reuses the cached tag basis and only redoes the kernel
        f, _ = random_tame(50)
        clear_caches()
        cold = classify(f).stats
        warm = classify(f).stats
        assert (cold.spairs, warm.spairs) == (6, 3)
        assert isinstance(cold.millis, int)

    def test_each_v_image_is_factored_once(self, monkeypatch):
        # stage 4 factors v = u1 once, for the report, and its image once:
        # the units verdict reuses the image factorizations
        calls = []
        real = factor_module.factor_bivariate

        def counting(g, **kwargs):
            calls.append(g)
            return real(g, **kwargs)

        monkeypatch.setattr(factor_module, "factor_bivariate", counting)
        report = classify(Endomorphism(X, X * Y), force=True)
        assert report.units.all_units_in_Cpq
        assert calls.count(X) == 1
        assert calls.count(U1) == 1

    def test_cap_refusal_becomes_degenerate_for_keller_map(self):
        report = classify(
            Endomorphism(X + Y**3, Y + (X + Y**3) ** 2),
            stats=RunStats(degree_budget=2),
        )
        assert report.stats.degree_budget == 2
        assert report.verdict is Verdict.DEGENERATE
        assert report.degenerate_reason is not None
        assert "cap" in report.degenerate_reason


class TestInvert:
    def test_shear(self):
        assert invert(Endomorphism(X, Y + X**2)) == (U1, U2 - U1**2)

    def test_swap(self):
        assert invert(Endomorphism(Y, X)) == (U2, U1)

    def test_identity(self):
        assert invert(identity_map()) == (U1, U2)

    def test_non_birational_fails_membership(self):
        with pytest.raises(MembershipFailedError):
            invert(Endomorphism(X**2, Y))

    def test_leading_coefficients_are_divided_out(self, monkeypatch):
        patch_tag_basis(monkeypatch, (TY - T2, 2 * TX - 3 * T1))
        assert invert(Endomorphism(X, Y)) == (U1 * 3 / 2, U2)

    def test_basis_tail_with_a_plane_variable_fails(self, monkeypatch):
        patch_tag_basis(monkeypatch, (TY - TX * T2, TX - T1))
        with pytest.raises(MembershipFailedError):
            invert(Endomorphism(X, X * Y))

    def test_inverse_above_the_map_degree_is_inconsistent(self, monkeypatch):
        # in the plane deg f^-1 <= deg f, so s = u1^3 for a linear map is a bug
        patch_tag_basis(monkeypatch, (TY - T2, TX - T1**3))
        with pytest.raises(InternalInconsistencyError):
            invert(Endomorphism(X, Y))

    def test_budget_reaches_the_tag_basis(self):
        # seed 50's tag basis takes 3 S-pairs
        f, _ = random_tame(50)
        clear_caches()
        with pytest.raises(ResourceCapExceeded):
            invert(f, stats=RunStats(spair_budget=2))
        stats = RunStats()
        invert(f, stats=stats)
        assert stats.spairs == 3
        invert(f, stats=stats)
        assert stats.spairs == 3

    @given(st.integers(0, 99))
    def test_agrees_with_subring_membership(self, seed):
        f, _ = random_tame(seed)
        assert invert(f) == (subring_membership(X, f), subring_membership(Y, f))

    @given(
        st.sampled_from([Endomorphism(X**2, Y), Endomorphism(X, X * Y)]),
        st.none() | st.integers(0, 99),
    )
    def test_fails_exactly_when_a_membership_fails(self, h, seed):
        # h itself, or h o t for a tame t: neither is an automorphism
        f = h if seed is None else compose(h, random_tame(seed)[0])
        missing = None in (subring_membership(X, f), subring_membership(Y, f))
        try:
            invert(f)
        except MembershipFailedError:
            assert missing
        else:
            assert not missing

    @pytest.mark.parametrize("seed", [11, 17, 23])
    def test_tame_roundtrip(self, seed):
        f, _ = random_tame(seed)
        s, t = invert(f)
        assert verify_inverse(f, s, t)
        g = Endomorphism(
            s.substitute({"u1": X, "u2": Y}),
            t.substitute({"u1": X, "u2": Y}),
        )
        back = compose(g, f)
        assert back.p == X and back.q == Y


class TestVerifyInverse:
    def test_identity_pair(self):
        assert verify_inverse(identity_map(), U1, U2)

    def test_correct_pair(self):
        assert verify_inverse(Endomorphism(X, Y + X**2), U1, U2 - U1**2)

    def test_wrong_pair(self):
        assert not verify_inverse(Endomorphism(X, Y + X**2), U1, U2)


class TestBirationalityDegree:
    @pytest.mark.parametrize(
        "f,expected",
        [
            (Endomorphism(X, Y + X**2), 1),
            (Endomorphism(X**2, Y), 2),
            (Endomorphism(X**3, Y), 3),
        ],
    )
    def test_known_degrees(self, f, expected):
        assert kernel_generator(f).r == expected


class TestCrossCheckTfae:
    """classify evaluates the three bits independently and checks that
    they agree."""

    def test_shear(self):
        t = classify(Endomorphism(X, Y + X**2)).tfae
        assert (t.i, t.ii, t.iii) == (True, True, True)
        assert t.consistent

    def test_swap(self):
        t = classify(Endomorphism(Y, X)).tfae
        assert t.consistent and t.i

    def test_rejects_non_keller(self):
        # no bits for a map that fails the Jacobian gate, even when forced
        assert classify(Endomorphism(X**2, Y)).tfae is None
        assert classify(Endomorphism(X**2, Y), force=True).tfae is None

    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_tame_consistent(self, seed):
        f, _ = random_tame(seed)
        t = classify(f).tfae
        assert (t.i, t.ii, t.iii) == (True, True, True)


class TestTameGeneration:
    def test_single_elementary_step(self):
        from fractions import Fraction

        recipe = TameRecipe((ElementaryX(Fraction(1), 2),))
        f = generate_tame(recipe)
        assert f.p == X and f.q == Y + X**2

    def test_swap_recipe(self):
        from fractions import Fraction

        swap = Affine(
            Fraction(0), Fraction(1), Fraction(1), Fraction(0),
            Fraction(0), Fraction(0),
        )
        f = generate_tame(TameRecipe((swap,)))
        assert f.p == Y and f.q == X

    def test_composite_recipe(self):
        from fractions import Fraction

        swap = Affine(
            Fraction(0), Fraction(1), Fraction(1), Fraction(0),
            Fraction(0), Fraction(0),
        )
        f = generate_tame(TameRecipe((ElementaryX(Fraction(1), 2), swap)))
        assert f.p == Y + X**2 and f.q == X

    def test_seeded_draws_are_reproducible(self):
        a, ra = random_tame(123)
        b, rb = random_tame(123)
        assert a.p == b.p and a.q == b.q
        assert ra == rb

    def test_keller_by_construction(self):
        for seed in range(10):
            f, _ = random_tame(seed)
            assert f.jacobian.kind == "constant"


# 1-4 terms with exponents up to 3 and coefficients +-1..3
_COMPONENT = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1,
    max_size=4,
).map(lambda terms: Polynomial(XY, {(a, b): c for a, b, c in terms}))


# (x, xy), (x, x^2 y), (xy, y) and (x, xy + y), each composed after a tame
# map t, and the one irreducible factor their v can have (or none, v = 1)
_STAGE_FOUR_FAMILIES = [
    (Endomorphism(X, X * Y), U1),
    (Endomorphism(X, X**2 * Y), U1),
    (Endomorphism(X * Y, Y), U2),
    (Endomorphism(X, X * Y + Y), U1 + Polynomial.constant(U12, 1)),
]


class TestStageFour:
    """Stage 4 (the v-factors, their images and the units verdict) on maps
    forced past the Jacobian gate, where v need not be constant."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("outer, factor", _STAGE_FOUR_FAMILIES)
    def test_forced_family(self, outer, factor, seed):
        f = compose(outer, random_tame(seed)[0])
        report = classify(f, force=True)
        assert not report.refused and report.uv is not None
        factors = [vj for vj, _ in report.v_factorization.factors]
        assert factors in ([factor], [])
        assert [r.preserved for r in report.v_reports] == [True] * len(factors)
        assert report.units.all_units_in_Cpq
        assert report.units == localization_units_check(f, report.uv.v)

    def test_failing_units_verdict(self):
        two = Polynomial.constant(XY, 2)
        f = Endomorphism(two - 3 * Y + Y**2 + X**3 * Y**3, 2 * X**2 - 3 * X**3 * Y)
        report = classify(f, force=True)
        assert not report.refused
        minus_three = Polynomial.constant(U12, -3)
        assert [vj for vj, _ in report.v_factorization.factors] == [minus_three + U2, U2]
        assert [r.preserved for r in report.v_reports] == [True, False]
        assert not report.units.all_units_in_Cpq
        assert report.units == localization_units_check(f, report.uv.v)

    def test_membership_refusal_keeps_the_image_reports(self):
        # both images factor under the cap, then a membership query climbs
        # past degree 12: the refused report still shows the image reports
        f = Endomorphism(-3 * X + 2 * X * Y**2 - X**2 * Y, Y**3)
        report = classify(f, force=True, stats=RunStats(degree_budget=12))
        assert report.refused and report.units is None
        assert [vj for vj, _ in report.v_factorization.factors][0] == U1
        assert [r.preserved for r in report.v_reports] == [False, False]


class TestClassifyProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_tame_corpus_sound(self, seed):
        f, _ = random_tame(seed)
        report = classify(f)
        assert report.verdict is Verdict.AUTOMORPHISM
        s, t = report.inverse
        assert verify_inverse(f, s, t)
        assert report.kernel.r == 1
        assert all(r.preserved for r in report.v_reports)

    def test_never_counterexample_on_corpus(self):
        for seed in range(20):
            f, _ = random_tame(seed)
            assert classify(f).verdict is not Verdict.COUNTEREXAMPLE_CANDIDATE

    def test_degree_24_map(self):
        # verify_inverse would compose up to degree 24**2; the certificate
        # needs products of degree at most 24
        f, recipe = random_tame(0, max_steps=8, degree_cap=36)
        assert f.degree() == 24
        report = classify(f)
        assert report.verdict is Verdict.AUTOMORPHISM
        g = generate_tame(recipe.inverse())
        to_u = {"x": "u1", "y": "u2"}
        assert report.inverse == (g.p.reindex(U12, to_u), g.q.reindex(U12, to_u))

    def test_inverse_of_inverse_is_original(self):
        f, _ = random_tame(31)
        s, t = invert(f)
        g = Endomorphism(
            s.substitute({"u1": X, "u2": Y}),
            t.substitute({"u1": X, "u2": Y}),
        )
        report = classify(g)
        assert report.verdict is Verdict.AUTOMORPHISM
        s2, t2 = report.inverse
        assert s2.substitute({"u1": X, "u2": Y}) == f.p
        assert t2.substitute({"u1": X, "u2": Y}) == f.q

    @given(_COMPONENT, _COMPONENT)
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_forced_evidence_never_raises(self, p, q):
        # small random maps, mostly not Keller: a forced run either reaches
        # the units verdict, which must agree with factor preservation, or
        # stops at a cap (refused) or at a dependence or a basis not in
        # shape position, both answers that come before the uv split
        clear_caches()
        report = classify(
            Endomorphism(p, q),
            force=True,
            stats=RunStats(spair_budget=300, degree_budget=24),
        )
        if report.units is not None:
            preserved = all(r.preserved for r in report.v_reports)
            assert report.units.all_units_in_Cpq == preserved
        elif not report.refused:
            assert report.uv is None

    def test_deterministic_report(self):
        f = Endomorphism(X, X * Y)
        a = classify(f, force=True)
        b = classify(f, force=True)
        assert a.verdict == b.verdict
        assert a.kernel.generator == b.kernel.generator
        assert a.uv.u == b.uv.u and a.uv.v == b.uv.v
        assert a.notes == b.notes


def counting_substitute(monkeypatch):
    """Record the images of every Polynomial.substitute call."""
    calls = []
    real = Polynomial.substitute

    def counting(self, images):
        calls.append(images)
        return real(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    return calls


class TestTameCertificate:
    """Bit i at r = 1: the tame certificate must prove the lex inverse."""

    def test_report_carries_the_certificate(self):
        f, _ = random_tame(7)
        report = classify(f)
        assert report.certificate.inverse == report.inverse
        assert generate_tame(report.certificate.recipe) == f

    def test_missing_certificate_at_r_1_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "decompose", lambda f: None)
        with pytest.raises(InternalInconsistencyError, match="tame certificate"):
            classify(Endomorphism(X, Y + X**2))

    def test_disagreeing_certificate_is_inconsistent(self, monkeypatch):
        def wrong(f):
            cert = decompose(f)
            return TameCertificate(cert.recipe, (U1, U2))

        monkeypatch.setattr(pipeline_module, "decompose", wrong)
        with pytest.raises(InternalInconsistencyError, match="tame certificate"):
            classify(Endomorphism(X, Y + X**2))

    @pytest.mark.parametrize("seed", range(5))
    def test_automorphism_needs_no_substitution(self, monkeypatch, seed):
        # verify_inverse reads the certificate and the uv identity check
        # is proved by it: neither substitutes
        f, _ = random_tame(seed)
        calls = counting_substitute(monkeypatch)
        assert classify(f).verdict is Verdict.AUTOMORPHISM
        assert calls == []

    def test_verify_inverse_with_a_certificate_compares(self, monkeypatch):
        f = Endomorphism(X, Y + X**2)
        cert = decompose(f)
        calls = counting_substitute(monkeypatch)
        assert verify_inverse(f, U1, U2 - U1**2, certificate=cert)
        assert not verify_inverse(f, U1, U2, certificate=cert)
        assert calls == []

    def test_forced_x_xy_keeps_the_substitution_check(self, monkeypatch):
        # v = u1 is not constant, and the map gets no certificate
        calls = counting_substitute(monkeypatch)
        report = classify(Endomorphism(X, X * Y), force=True)
        assert report.uv.v == U1 and report.certificate is None
        assert any("u3" in images for images in calls)

    def test_uv_check_runs_when_u_is_not_v_t(self, monkeypatch):
        # t = u2 is not the second inverse component of this shear
        f = Endomorphism(X, Y + X**2)
        calls = counting_substitute(monkeypatch)
        uv_decomposition(f, certified_t=U2)
        assert any("u3" in images for images in calls)
        calls.clear()
        uv_decomposition(f, certified_t=U2 - U1**2)
        assert calls == []

    @pytest.mark.parametrize("seed, degree, seconds", [(30, 18, 10), (36, 36, 30)])
    def test_ladder_maps(self, seed, degree, seconds):
        # verify_inverse took 18.8 s on seed 30 and over 10 min on seed 36
        f, recipe = random_tame(seed, max_steps=8, degree_cap=36)
        assert f.degree() == degree
        start = time.perf_counter()
        report = classify(f)
        assert time.perf_counter() - start < seconds
        assert report.verdict is Verdict.AUTOMORPHISM
        assert report.certificate.inverse == report.inverse
        g = generate_tame(recipe.inverse())
        to_u = {"x": "u1", "y": "u2"}
        assert report.inverse == (g.p.reindex(U12, to_u), g.q.reindex(U12, to_u))
