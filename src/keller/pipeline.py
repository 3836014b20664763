"""End-to-end classification of plane polynomial endomorphisms.

The decision procedure is staged. Stage 1 tests the Jacobian; maps whose
Jacobian is not a nonzero constant are rejected there (the later criteria
assume it). Stage 2 computes the kernel generator H and the degree r of x
over the image field. Stage 3 produces the y = u/v decomposition, stage 4
factors v and checks the localization units, and stage 5 draws the final
verdict: r = 1 means the map is invertible, and the inverse is read off
the lex tag basis, as ``groebner.tag_basis_by_lead`` parses it once for
both this and stage 3's shape basis; r >= 2 on a map that passed
stage 1 would be a loud counterexample candidate and is treated as an
artifact bug elsewhere.

The automorphism conclusion is always derived twice, once from r and once
from the units check; the two routes must agree or the run aborts. The
inverse is certified a third time by a tame certificate
(``tame.decompose``): Jung-van der Kulk degree reduction, which proves both
composition identities with products of degree at most deg f, must find
the same inverse as the lex basis, or the run aborts. ``verify_inverse``
is given that certificate and compares the two inverses; it composes up
to degree (deg f)^2 only when called without one, which ``classify``
never does. At r = 1 the certificate is made before stage 3, whose
identity check v(p, q) y = u(p, q, x) it then proves when v is constant
and u = v t; every other map keeps that check by substitution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import (
    AlgebraicallyDependentError,
    DegreeCapExceeded,
    InternalInconsistencyError,
    MembershipFailedError,
    NotShapePositionError,
    ResourceCapExceeded,
    ZeroKernelError,
)
from .factor import (
    Factorization,
    PreservationReport,
    UnitsVerdict,
    factor_v,
    localization_stage,
)
from .funcfield import UVDecomposition, uv_decomposition
from .groebner import KernelGenerator, RunStats, kernel_generator, tag_basis_by_lead
from .poly import U12, XY, Endomorphism, JacobianInfo, Polynomial
from .tame import TameCertificate, decompose

__all__ = [
    "Verdict",
    "ClassificationReport",
    "TfaeReport",
    "certified_inverse",
    "classify",
    "invert",
    "verify_inverse",
]


class Verdict(enum.Enum):
    NOT_KELLER_NONCONSTANT = "NotKellerNonConstantJacobian"
    NOT_KELLER_ZERO = "NotKellerZeroJacobian"
    DEGENERATE = "Degenerate"
    AUTOMORPHISM = "Automorphism"
    COUNTEREXAMPLE_CANDIDATE = "CounterexampleCandidate"


@dataclass(frozen=True)
class TfaeReport:
    """The three equivalent conditions, evaluated independently.

    i: the lex tag basis gives an inverse and a tame certificate proves
    the same one; ii: x has degree 1 over the image field; iii: all unit
    generators of the localization at v lie in the image subalgebra.
    """

    i: bool
    ii: bool
    iii: bool

    @property
    def consistent(self) -> bool:
        return self.i == self.ii == self.iii


@dataclass
class ClassificationReport:
    verdict: Verdict
    jacobian: JacobianInfo
    kernel: Optional[KernelGenerator] = None
    uv: Optional[UVDecomposition] = None
    v_factorization: Optional[Factorization] = None
    v_reports: Tuple[PreservationReport, ...] = ()
    units: Optional[UnitsVerdict] = None
    inverse: Optional[Tuple[Polynomial, Polynomial]] = None
    # the tame recipe whose inverse equals ``inverse``: bit i's evidence
    certificate: Optional[TameCertificate] = None
    tfae: Optional[TfaeReport] = None
    degenerate_reason: Optional[str] = None
    # a budget stopped a stage, so the evidence is incomplete
    refused: bool = False
    notes: Tuple[str, ...] = ()
    stats: RunStats = field(default_factory=RunStats)


_GATE_NOTE = (
    "the Jacobian determinant is not a nonzero constant, so the automorphism "
    "criteria do not apply; any evidence below is informational only"
)
_CANDIDATE_NOTE = (
    "a map with constant nonzero Jacobian and r >= 2 would be invertible-"
    "breaking; expect an artifact bug rather than a genuine example"
)
_CONSTANT_V_NOTE = (
    "v is constant, so there is nothing to factor and bit iii holds without "
    "any work: it is not independent evidence here. Bit iii factors over Q "
    "and tests units in Q[p, q], where the paper asks about C(p, q); this "
    "cannot change a verdict on a Keller map, which rests on r and the "
    "verified inverse, with bit iii checked against r"
)


def invert(
    f: Endomorphism,
    *,
    stats: Optional[RunStats] = None,
) -> Tuple[Polynomial, Polynomial]:
    """Inverse components (s, t) with s(p,q) = x and t(p,q) = y.

    They are read off the reduced lex basis of the tag ideal
    I = (u1 - p, u2 - q) with y > x > u1 > u2, by (x, y)-lead, as the
    shape basis reads it too. f is an automorphism with inverse (s, t)
    exactly when that basis is {c*x - S(u), c'*y - T(u)}, with s = S/c and
    t = T/c. That is when its reading has the leads x and y only, each with
    a constant coefficient and a u-only tail: a reduced basis holds no
    further element, whose lead x or y would divide.

    - If x = s(p, q) and y = t(p, q), then x - s(u) and y - t(u) lie in I,
      since u1 = p and u2 = q modulo I. Modulo the ideal J they generate,
      u1 - p(x, y) = u1 - p(s(u), t(u)) = 0 and likewise u2 - q = 0, so
      J = I. Their leading terms x and y are coprime, so they form a
      Groebner basis, and it is reduced because neither tail contains x
      or y. The reduced basis is unique, so it is this one.
    - Conversely, setting u = (p, q) in x - s(u) and y - t(u), which lie
      in I, gives x = s(p, q) and y = t(p, q).

    Any other shape of basis means f is not an automorphism and raises
    MembershipFailedError, the sentinel ``classify`` lets propagate at
    r = 1. In the plane deg f^-1 <= deg f (Bass, Connell and Wright, Bull.
    AMS 1982: deg F^-1 <= (deg F)^(n-1)), so an inverse of higher degree
    raises InternalInconsistencyError. The basis is computed under the
    budgets of ``stats`` and charged to it only when this call computed it.
    """
    read = tag_basis_by_lead(f, stats)
    if set(read) != {(1, 0), (0, 1)} or any(
        set(c) != {e, (0, 0)} or not c[e].is_constant() for e, c in read.items()
    ):
        raise MembershipFailedError(
            "the lex tag basis is not {x - s(u), y - t(u)}, so x or y is not "
            "in the image subalgebra"
        )
    # c*x - S(u) reads {(1, 0): c, (0, 0): -S}, and s = S / c; likewise t
    s, t = (read[e][(0, 0)].exact_div(-read[e][e]) for e in ((1, 0), (0, 1)))
    if max(s.total_degree(), t.total_degree()) > f.degree():
        raise InternalInconsistencyError(
            f"an inverse of degree above deg f = {f.degree()} contradicts "
            "the plane inverse degree bound"
        )
    return s, t


def verify_inverse(
    f: Endomorphism,
    s: Polynomial,
    t: Polynomial,
    *,
    certificate: Optional[TameCertificate] = None,
) -> bool:
    """True when (s, t) is the two-sided inverse of f: s(p, q) = x,
    t(p, q) = y, p(s, t) = u1 and q(s, t) = u2, all exactly.

    Given a tame certificate of f (``tame.decompose``), this holds exactly
    when (s, t) is the certificate's inverse: the certificate proves both
    identities for its inverse with products of degree at most deg f, and
    an inverse is unique. Without one, both identities are checked by
    substitution, which expands compositions up to degree (deg f)^2.
    """
    if certificate is not None:
        return certificate.inverse == (s, t)
    xv = Polynomial.variable(XY, "x")
    yv = Polynomial.variable(XY, "y")
    u1 = Polynomial.variable(U12, "u1")
    u2 = Polynomial.variable(U12, "u2")
    back = {"u1": f.p, "u2": f.q}
    if s.substitute(back) != xv or t.substitute(back) != yv:
        return False
    fwd = {"x": s, "y": t}
    return f.p.substitute(fwd) == u1 and f.q.substitute(fwd) == u2


def certified_inverse(
    f: Endomorphism, *, stats: Optional[RunStats] = None
) -> Tuple[Tuple[Polynomial, Polynomial], Optional[TameCertificate]]:
    """The lex inverse (s, t) of ``invert`` and the tame certificate of f,
    when ``decompose`` finds one that proves exactly this (s, t); else None
    in its place.

    Two unrelated algorithms, Groebner bases and degree reduction, must
    agree, and the certificate proves s(p, q) = x, t(p, q) = y and
    p(s, t) = u1, q(s, t) = u2 with products alone (see ``decompose``).
    Raises what ``invert`` raises.
    """
    inverse = invert(f, stats=stats)
    certificate = decompose(f)
    if certificate is None or not verify_inverse(f, *inverse, certificate=certificate):
        return inverse, None
    return inverse, certificate


def classify(
    f: Endomorphism,
    *,
    stats: Optional[RunStats] = None,
    force: bool = False,
    absolute: bool = False,
) -> ClassificationReport:
    """Run the staged decision procedure and assemble the evidence.

    Every stage charges ``stats`` (a fresh ``RunStats`` when None), whose
    budgets cap the Groebner work, and the run's wall time is added to
    ``stats.millis``. ``force`` computes the evidence for a map that fails
    the Jacobian gate; ``absolute`` also certifies absolute irreducibility
    of the v-factors.
    """
    stats = RunStats() if stats is None else stats
    with stats.timed():
        return _classify(f, stats, force, absolute)


def _classify(
    f: Endomorphism, stats: RunStats, force: bool, absolute: bool
) -> ClassificationReport:
    jac = f.jacobian
    keller = jac.kind == "constant"
    report = ClassificationReport(Verdict.DEGENERATE, jac, stats=stats)
    notes = []
    if not keller:
        report.verdict = (
            Verdict.NOT_KELLER_ZERO
            if jac.kind == "zero"
            else Verdict.NOT_KELLER_NONCONSTANT
        )
        if not force:
            return report
        notes.append(_GATE_NOTE)

    def degenerate(exc: Exception) -> ClassificationReport:
        report.refused = isinstance(exc, (ResourceCapExceeded, DegreeCapExceeded))
        if keller:
            report.degenerate_reason = str(exc)
        else:
            notes.append(f"evidence stopped early: {exc}")
        report.notes = tuple(notes)
        return report

    try:
        kernel = kernel_generator(f, stats=stats)
    except (
        AlgebraicallyDependentError,
        ZeroKernelError,
        ResourceCapExceeded,
        DegreeCapExceeded,
    ) as exc:
        return degenerate(exc)
    report.kernel = kernel

    # at r = 1 the map is an automorphism: a basis that is not
    # {x - s(u), y - t(u)} raises MembershipFailedError, and there must be
    # a certificate, since every plane automorphism is tame
    if keller and kernel.r == 1:
        try:
            inverse, certificate = certified_inverse(f, stats=stats)
        except (ResourceCapExceeded, DegreeCapExceeded) as exc:
            return degenerate(exc)
        if certificate is None:
            raise InternalInconsistencyError(
                "no tame certificate proves the inverse read off the lex basis"
            )
        report.inverse, report.certificate = inverse, certificate

    certified_t = report.inverse[1] if report.certificate else None
    try:
        uv = uv_decomposition(f, kernel=kernel, stats=stats, certified_t=certified_t)
    except (NotShapePositionError, ResourceCapExceeded, DegreeCapExceeded) as exc:
        return degenerate(exc)
    report.uv = uv

    # stage 4: the reports are set before the membership step, so a
    # refusal there still reports v's factors and their images
    try:
        report.v_factorization = factor_v(uv.v, absolute=absolute)
        stage = localization_stage(f, report.v_factorization, stats=stats)
        report.v_reports = next(stage)
        report.units = units = next(stage)
    except (ResourceCapExceeded, DegreeCapExceeded) as exc:
        return degenerate(exc)

    all_preserved = all(r.preserved for r in report.v_reports)
    if units.all_units_in_Cpq != all_preserved:
        raise InternalInconsistencyError(
            "units verdict disagrees with factor preservation"
        )

    bit_ii = kernel.r == 1
    bit_iii = units.all_units_in_Cpq
    if keller and bit_ii != bit_iii:
        raise InternalInconsistencyError(
            "the birationality route and the units route disagree"
        )

    # a non-Keller map gets no inverse claim: its evidence is informational
    if keller:
        if bit_ii:
            bit_i = True  # the certificate above proves the lex inverse
            report.verdict = Verdict.AUTOMORPHISM
        else:
            try:
                bit_i = certified_inverse(f, stats=stats)[1] is not None
            except MembershipFailedError:
                bit_i = False
            report.verdict = Verdict.COUNTEREXAMPLE_CANDIDATE
            notes.append(_CANDIDATE_NOTE)
        report.tfae = TfaeReport(bit_i, bit_ii, bit_iii)
        if uv.v.is_constant():
            notes.append(_CONSTANT_V_NOTE)

    report.notes = tuple(notes)
    return report
