"""Command-line interface.

One subcommand per construction: check (full classification), kernel, uv,
invert, member, factor, units, gen, gb. Output is deterministic
text on stdout; --json PATH additionally writes a machine-readable report.
Exit codes: 0 for a completed run, 1 for a mathematical refusal (resource
caps, degenerate input, failed preconditions), 2 for usage or syntax
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction
from typing import List, Optional

from .errors import (
    AlgebraicallyDependentError,
    DegreeCapExceeded,
    MembershipFailedError,
    NotShapePositionError,
    ParseError,
    RecipeError,
    ResourceCapExceeded,
    UnknownVariableError,
    ZeroKernelError,
)
from .factor import DEFAULT_FACTOR_DEGREE_CAP, factor_bivariate, localization_units_check
from .funcfield import uv_decomposition
from .groebner import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_SPAIRS,
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    RunStats,
    block_order,
    buchberger,
    kernel_generator,
    subring_membership,
)
from .parsing import parse_poly
from .pipeline import ClassificationReport, Verdict, certified_inverse, classify
from .poly import U12, XY, Endomorphism, VarContext
from .tame import Affine, TameCertificate, random_tame

SCHEMA_VERSION = 3

_REFUSALS = (
    ResourceCapExceeded,
    DegreeCapExceeded,
    AlgebraicallyDependentError,
    NotShapePositionError,
    ZeroKernelError,
    MembershipFailedError,
    RecipeError,
)


class UsageError(Exception):
    """A command's input lies outside its domain (exit 2)."""


def _budget(text: str, minimum: int = 0) -> int:
    """A budget or count: an integer of at least minimum, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return value


def _steps(text: str) -> int:
    return _budget(text, minimum=1)


def _run_stats(args) -> RunStats:
    """The run's budgets: the flags, else ``KELLER_MAX_SPAIRS`` for the
    S-pair budget, else the defaults."""
    spair_budget = args.max_spairs
    if spair_budget is None:
        raw = os.environ.get("KELLER_MAX_SPAIRS")
        try:
            spair_budget = DEFAULT_MAX_SPAIRS if raw is None else _budget(raw)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"KELLER_MAX_SPAIRS {exc}") from None
    return RunStats(spair_budget=spair_budget, degree_budget=args.max_degree)


def _parse_map(p_text: str, q_text: str) -> Endomorphism:
    return Endomorphism(parse_poly(p_text, XY), parse_poly(q_text, XY))


def _envelope(inputs: dict, stats: Optional[RunStats], **body) -> dict:
    """A ``--json`` document: ``schema_version``, the parsed ``input``, the
    command's own sections and, when the command counts work, ``stats``."""
    doc = {"schema_version": SCHEMA_VERSION, "input": inputs, **body}
    if stats is not None:
        doc["stats"] = {
            "spairs": stats.spairs,
            "max_degree": stats.max_degree,
            "millis": stats.millis,
        }
    return doc


def _map_input(f: Endomorphism, **extra) -> dict:
    return {"p": str(f.p), "q": str(f.q), **{k: str(v) for k, v in extra.items()}}


def _jacobian_doc(jac) -> dict:
    doc = {"poly": str(jac.det), "is_constant": jac.kind != "nonconstant"}
    if jac.kind != "nonconstant":
        doc["value"] = str(jac.value if jac.value is not None else Fraction(0))
    return doc


def _kernel_doc(kernel) -> dict:
    return {
        "H": str(kernel.generator),
        "r": kernel.r,
        "coeffs": [str(c) for c in kernel.coeffs],
    }


def _uv_doc(dec) -> dict:
    return {"u": str(dec.u), "v": str(dec.v), "g": str(dec.g)}


def _step_doc(step) -> dict:
    """A recipe step: its kind and exact coefficients."""
    if isinstance(step, Affine):
        coeffs = {k: str(getattr(step, k)) for k in "abcdef"}
    else:
        coeffs = {"coeff": str(step.coeff), "power": step.power}
    return {"kind": type(step).__name__, **coeffs}


def _certificate_doc(certificate: Optional[TameCertificate]) -> Optional[list]:
    """The recipe steps, first applied first."""
    if certificate is None:
        return None
    return [_step_doc(step) for step in certificate.recipe.steps]


def _units_doc(verdict) -> dict:
    return {
        "all_in_subring": verdict.all_units_in_Cpq,
        "witnesses": [
            {
                "factor": str(w.factor),
                "inside": w.inside,
                "G": str(w.membership) if w.membership is not None else None,
            }
            for w in verdict.witnesses
        ],
    }


def _report_doc(f: Endomorphism, report: ClassificationReport) -> dict:
    def section(value, doc):
        return None if value is None else doc(value)

    doc = {
        "jacobian": _jacobian_doc(report.jacobian),
        "kernel": section(report.kernel, _kernel_doc),
        "uv": section(report.uv, _uv_doc),
        "v_factors": None,
        "units": section(report.units, _units_doc),
        "verdict": report.verdict.value,
        "inverse": section(report.inverse, lambda st: {"s": str(st[0]), "t": str(st[1])}),
        "certificate": _certificate_doc(report.certificate),
        "tfae": section(report.tfae, lambda t: {
            "i": t.i, "ii": t.ii, "iii": t.iii, "consistent": t.consistent,
        }),
    }
    if report.v_factorization is not None:
        by_poly = {r.source: r for r in report.v_reports}
        doc["v_factors"] = [
            {
                "factor": str(vj),
                "multiplicity": mult,
                "preserved": by_poly[vj].preserved if vj in by_poly else None,
                "image_factors": [
                    {"factor": str(w), "multiplicity": m}
                    for w, m in by_poly[vj].image_factors.factors
                ]
                if vj in by_poly
                else [],
            }
            for vj, mult in report.v_factorization.factors
        ]
    if report.degenerate_reason:
        doc["reason"] = report.degenerate_reason
    if report.refused:
        doc["refused"] = True
    if report.notes:
        doc["notes"] = list(report.notes)
    return _envelope(_map_input(f), report.stats, **doc)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _list_entry(doc: dict, first: bool) -> str:
    """``doc`` as the next entry of a list that ``_write_json`` writes: one
    level deeper, after "[" or ","."""
    text = json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n  ")
    return ("[" if first else ",") + "\n  " + text


def _print_report(f: Endomorphism, report: ClassificationReport) -> None:
    print(f"p = {f.p}")
    print(f"q = {f.q}")
    jac = report.jacobian
    if jac.kind == "constant":
        print(f"jacobian = {jac.det} (nonzero constant)")
    elif jac.kind == "zero":
        print("jacobian = 0")
    else:
        print(f"jacobian = {jac.det} (not constant)")
    if report.kernel is not None:
        print(f"H = {report.kernel.generator}")
        print(f"r = {report.kernel.r}")
    if report.uv is not None:
        print(f"u = {report.uv.u}")
        print(f"v = {report.uv.v}")
    if report.v_factorization is not None and report.v_factorization.factors:
        for rep in report.v_reports:
            state = "preserved" if rep.preserved else "splits"
            images = ", ".join(
                f"{w}" + (f" ^{m}" if m > 1 else "")
                for w, m in rep.image_factors.factors
            )
            print(f"v-factor {rep.source}: {state} ({images})")
    if report.units is not None:
        print(f"units all in subring: {report.units.all_units_in_Cpq}")
    print(f"verdict = {report.verdict.value}")
    if report.degenerate_reason:
        print(f"reason: {report.degenerate_reason}")
    if report.inverse is not None:
        print(f"inverse: s = {report.inverse[0]}")
        print(f"inverse: t = {report.inverse[1]}")
    if report.tfae is not None:
        t = report.tfae
        mark = "consistent" if t.consistent else "INCONSISTENT"
        print(f"tfae: i={t.i} ii={t.ii} iii={t.iii} ({mark})")
    for note in report.notes:
        print(f"note: {note}")


def _cmd_check(args) -> int:
    if not args.batch and (args.p is None or args.q is None):
        raise UsageError("check needs -p and -q, or --batch FILE")
    # read before a batch starts, so a bad KELLER_MAX_SPAIRS fails at once
    stats = _run_stats(args)
    if args.batch:
        return _cmd_check_batch(args)
    f = _parse_map(args.p, args.q)
    report = classify(f, stats=stats, force=args.force, absolute=args.absolute)
    _print_report(f, report)
    if args.json:
        _write_json(args.json, _report_doc(f, report))
    return 1 if report.verdict is Verdict.DEGENERATE or report.refused else 0


def _cmd_check_batch(args) -> int:
    worst = 0
    with open(args.batch, "r", encoding="utf-8") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    # opened before the first map, so an unwritable path fails at once; each
    # entry is written as soon as its map is done
    out = open(args.json, "w", encoding="utf-8") if args.json else None
    entries = 0

    def emit(doc: dict) -> None:
        nonlocal entries
        if out is not None:
            out.write(_list_entry(doc, first=not entries))
            out.flush()
        entries += 1

    try:
        for index, line in enumerate(lines):
            if ";" not in line:
                print(f"[{index}] skipped (expected 'p ; q'): {line}", flush=True)
                worst = max(worst, 2)
                continue
            p_text, q_text = line.split(";", 1)
            try:
                f = _parse_map(p_text.strip(), q_text.strip())
            except (ParseError, UnknownVariableError) as exc:
                print(f"[{index}] parse error: {exc}")
                worst = max(worst, 2)
                continue
            # each map gets its own budgets and counters; no exception one map
            # raises, an internal error included, stops the maps after it
            try:
                report = classify(
                    f, stats=_run_stats(args), force=args.force, absolute=args.absolute
                )
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                print(f"[{index}] error: {error}", flush=True)
                traceback.print_exc()
                emit(_envelope(_map_input(f), None, error=error))
                worst = max(worst, 1)
                continue
            print(f"[{index}] {f.p} ; {f.q} -> {report.verdict.value}")
            emit(_report_doc(f, report))
            if report.verdict is Verdict.DEGENERATE or report.refused:
                worst = max(worst, 1)
    finally:
        if out is not None:
            out.write("\n]\n" if entries else "[]\n")
            out.close()
    return worst


def _cmd_kernel(args) -> int:
    stats = _run_stats(args)
    f = _parse_map(args.p, args.q)
    with stats.timed():
        kernel = kernel_generator(f, stats=stats)
    print(f"H = {kernel.generator}")
    print(f"r = {kernel.r}")
    for i, c in enumerate(kernel.coeffs):
        print(f"H_{i} = {c}")
    if args.json:
        _write_json(args.json, _envelope(_map_input(f), stats, kernel=_kernel_doc(kernel)))
    return 0


def _cmd_uv(args) -> int:
    stats = _run_stats(args)
    f = _parse_map(args.p, args.q)
    with stats.timed():
        dec = uv_decomposition(f, stats=stats)
    print(f"u = {dec.u}")
    print(f"v = {dec.v}")
    print(f"r = {dec.r}")
    print(f"g = {dec.g}")
    if args.json:
        _write_json(args.json, _envelope(_map_input(f), stats, uv=_uv_doc(dec), r=dec.r))
    return 0


def _cmd_invert(args) -> int:
    stats = _run_stats(args)
    f = _parse_map(args.p, args.q)
    if f.jacobian.kind != "constant":
        print(
            "refused: the Jacobian determinant is not a nonzero constant, "
            "so no inverse is claimed",
            file=sys.stderr,
        )
        return 1
    with stats.timed():
        (s, t), certificate = certified_inverse(f, stats=stats)
    ok = certificate is not None
    print(f"s = {s}")
    print(f"t = {t}")
    for doc in _certificate_doc(certificate) or ():
        kind = doc.pop("kind")
        print(f"step: {kind} " + " ".join(f"{k}={v}" for k, v in doc.items()))
    print(f"verified = {ok}")
    if args.json:
        _write_json(args.json, _envelope(
            _map_input(f),
            stats,
            inverse={"s": str(s), "t": str(t)},
            certificate=_certificate_doc(certificate),
            verified=ok,
        ))
    return 0 if ok else 1


def _cmd_member(args) -> int:
    stats = _run_stats(args)
    f = _parse_map(args.p, args.q)
    w = parse_poly(args.w, XY)
    with stats.timed():
        G = subring_membership(w, f, stats=stats)
    if G is None:
        print("not a member of the image subalgebra")
    else:
        print(f"G = {G}")
    if args.json:
        _write_json(args.json, _envelope(
            _map_input(f, w=w),
            stats,
            member=G is not None,
            G=str(G) if G is not None else None,
        ))
    return 0


def _context_from(names_text: str) -> VarContext:
    names = tuple(n.strip() for n in names_text.split(",") if n.strip())
    if not names:
        raise UsageError("no variables given")
    try:
        return VarContext(names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_factor(args) -> int:
    ctx = _context_from(args.vars)
    poly = parse_poly(args.expr, ctx)
    if poly.is_zero():
        raise UsageError("cannot factor the zero polynomial")
    used = poly.variables_used()
    if len(used) > 2:
        raise UsageError(
            f"factor takes at most two variables, the expression uses {', '.join(used)}"
        )
    fact = factor_bivariate(poly, degree_cap=args.degree_cap, absolute=args.absolute)
    print(f"content = {fact.content}")
    for i, (g, mult) in enumerate(fact.factors):
        note = ""
        if fact.absolute is not None:
            flag = fact.absolute[i]
            if flag is True:
                note = "  [absolutely irreducible]"
            elif flag is False:
                note = "  [splits over C]"
            else:
                note = "  [absolute status undetermined]"
        print(f"factor: {g}  multiplicity {mult}{note}")
    if args.json:
        factors = [{"factor": str(g), "multiplicity": m} for g, m in fact.factors]
        if fact.absolute is not None:
            for entry, flag in zip(factors, fact.absolute):
                entry["absolutely_irreducible"] = flag
        _write_json(args.json, _envelope(
            {"expr": str(poly), "vars": list(ctx.names)},
            None,
            content=str(fact.content),
            factors=factors,
        ))
    return 0


def _cmd_units(args) -> int:
    stats = _run_stats(args)
    f = _parse_map(args.p, args.q)
    v = parse_poly(args.v, U12)
    if v.is_zero():
        raise UsageError("v must be a nonzero polynomial")
    with stats.timed():
        verdict = localization_units_check(f, v, degree_cap=args.degree_cap, stats=stats)
    print(f"all units in subring: {verdict.all_units_in_Cpq}")
    for w in verdict.witnesses:
        if w.inside:
            print(f"factor {w.factor}: inside (G = {w.membership})")
        else:
            print(f"factor {w.factor}: outside")
    if args.json:
        _write_json(args.json, _envelope(_map_input(f, v=v), stats, units=_units_doc(verdict)))
    return 0


def _cmd_gen(args) -> int:
    maps = []
    for k in range(args.count):
        f, recipe = random_tame(
            args.seed + k, max_steps=args.steps, degree_cap=args.degree_cap
        )
        maps.append((f, recipe))
        print(f"{f.p} ; {f.q}")
    if args.json:
        _write_json(
            args.json,
            [
                {
                    "schema_version": SCHEMA_VERSION,
                    "seed": rec.seed,
                    "p": str(f.p),
                    "q": str(f.q),
                    "steps": [type(s).__name__ for s in rec.steps],
                }
                for f, rec in maps
            ],
        )
    return 0


def _order_from(text: str, arity: int) -> MonomialOrder:
    if text == "lex":
        return LEX
    if text == "grevlex":
        return GREVLEX
    if text.startswith("block:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            k = 0
        if not 0 < k < arity:
            raise UsageError(f"block size must be between 1 and {arity - 1}")
        return block_order(k)
    raise UsageError(f"unknown order {text!r}")


def _cmd_gb(args) -> int:
    stats = _run_stats(args)
    ctx = _context_from(args.vars)
    gens = [parse_poly(g, ctx) for g in args.gens]
    order = _order_from(args.order, ctx.arity)
    ideal = Ideal(ctx, gens)
    if not ideal.generators:
        raise UsageError("every generator is zero: the zero ideal has no basis here")
    with stats.timed():
        basis = buchberger(ideal, order, stats=stats)
    for g in basis:
        print(g)
    if args.json:
        _write_json(args.json, _envelope(
            {"generators": [str(g) for g in gens], "vars": list(ctx.names)},
            stats,
            order=args.order,
            basis=[str(g) for g in basis],
        ))
    return 0


def _add_map_args(sub) -> None:
    sub.add_argument("-p", required=True, help="image of x, e.g. \"x\"")
    sub.add_argument("-q", required=True, help="image of y, e.g. \"y + x^2\"")


def _add_json(sub) -> None:
    sub.add_argument("--json", metavar="PATH", help="write a JSON report to PATH")


def _add_shared(sub) -> None:
    _add_json(sub)
    sub.add_argument("--max-spairs", type=_budget, default=None,
                     help="S-pair budget of each basis computation")
    sub.add_argument("--max-degree", type=_budget, default=DEFAULT_MAX_DEGREE,
                     help="intermediate degree cap for basis computations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keller",
        description="Exact tools for plane polynomial maps: Jacobian tests, "
        "image-algebra relations, inverses, factor preservation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="full classification of a map")
    p.add_argument("-p", help="image of x")
    p.add_argument("-q", help="image of y")
    p.add_argument("--batch", metavar="FILE", help="classify 'p ; q' lines from FILE")
    p.add_argument("--force", action="store_true",
                   help="compute all evidence even for non-Keller maps")
    p.add_argument("--absolute", action="store_true",
                   help="also certify absolute irreducibility of v-factors")
    _add_shared(p)
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("kernel", help="relation ideal generator H and degree r")
    _add_map_args(p)
    _add_shared(p)
    p.set_defaults(fn=_cmd_kernel)

    p = subs.add_parser("uv", help="decomposition y = u(p,q,x)/v(p,q)")
    _add_map_args(p)
    _add_shared(p)
    p.set_defaults(fn=_cmd_uv)

    p = subs.add_parser("invert", help="inverse components for a Keller map")
    _add_map_args(p)
    _add_shared(p)
    p.set_defaults(fn=_cmd_invert)

    p = subs.add_parser("member", help="express w(x,y) as G(p,q) when possible")
    _add_map_args(p)
    p.add_argument("-w", required=True, help="polynomial in x, y to test")
    _add_shared(p)
    p.set_defaults(fn=_cmd_member)

    p = subs.add_parser("factor", help="factor a polynomial over Q")
    p.add_argument("-e", "--expr", required=True, help="polynomial to factor")
    p.add_argument("--vars", default="x,y", help="comma-separated variable names")
    p.add_argument("--degree-cap", type=_budget, default=DEFAULT_FACTOR_DEGREE_CAP)
    p.add_argument("--absolute", action="store_true",
                   help="certify absolute irreducibility per factor")
    _add_json(p)
    p.set_defaults(fn=_cmd_factor)

    p = subs.add_parser("units", help="unit-group membership check at v")
    _add_map_args(p)
    p.add_argument("-v", required=True, help="polynomial in u1, u2")
    p.add_argument("--degree-cap", type=_budget, default=DEFAULT_FACTOR_DEGREE_CAP)
    _add_shared(p)
    p.set_defaults(fn=_cmd_units)

    p = subs.add_parser("gen", help="generate seeded tame automorphisms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_budget, default=1)
    p.add_argument("--steps", type=_steps, default=4, help="maximum steps per recipe")
    p.add_argument("--degree-cap", type=_budget, default=12)
    _add_json(p)
    p.set_defaults(fn=_cmd_gen)

    p = subs.add_parser("gb", help="reduced Groebner basis of an ideal")
    p.add_argument("-g", dest="gens", action="append", required=True,
                   help="generator (repeatable)")
    p.add_argument("--vars", default="x,y", help="comma-separated variable names")
    p.add_argument("--order", default="grevlex", help="lex | grevlex | block:K")
    _add_shared(p)
    p.set_defaults(fn=_cmd_gb)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ParseError, UnknownVariableError, UsageError, OSError) as exc:
        # the format argparse uses for a bad flag value
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except _REFUSALS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
