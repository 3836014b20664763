"""Spans around keller's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``keller`` module namespace that holds it (``subring_membership`` is bound in
``groebner``, ``pipeline``, ``factor`` and the package itself), and wraps
``Polynomial.__mul__``/``substitute`` on the class. Nothing below the
wrapped functions, such as Fraction arithmetic, is touched. Spans stay in
memory until the run ends.

A span is (name, start, end, parent index, item id, self seconds, info):
self time is the span's duration minus the durations of its child spans,
which never overlap because the benchmark is single-threaded. ``info`` is
the exact term-product count for ``Polynomial.__mul__`` and 1 for a
``solve_sparse`` call that returned None.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

# (module, attribute, span name); attribute "Polynomial.x" wraps a method
TRACED = (
    ("parsing", "parse_poly", "parsing.parse_poly"),
    ("poly", "jacobian_det", "poly.jacobian_det"),
    ("poly", "poly_gcd", "poly.poly_gcd"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.substitute", "poly.substitute"),
    ("linalg", "solve_sparse", "linalg.solve_sparse"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "subring_membership", "groebner.subring_membership"),
    ("groebner", "kernel_generator", "groebner.kernel_generator"),
    ("funcfield", "shape_basis", "funcfield.shape_basis"),
    ("funcfield", "uv_decomposition", "funcfield.uv_decomposition"),
    ("factor", "factor_bivariate", "factor.factor_bivariate"),
    ("factor", "squarefree_decomposition", "factor.squarefree_decomposition"),
    ("factor", "stays_irreducible", "factor.stays_irreducible"),
    ("factor", "localization_units_check", "factor.localization_units_check"),
    ("univariate", "factor_squarefree_monic", "univariate.factor_squarefree_monic"),
    ("pipeline", "classify", "pipeline.classify"),
    ("pipeline", "invert", "pipeline.invert"),
    ("pipeline", "verify_inverse", "pipeline.verify_inverse"),
)

# item id of the spans recorded while set-up parses the inputs
SETUP = "setup"

# stages classify calls directly; reported as pipeline.<stage>
PIPELINE_STAGES = {
    "groebner.kernel_generator": "kernel_generator",
    "funcfield.uv_decomposition": "uv_decomposition",
    "factor.factor_bivariate": "factor_bivariate",
    "factor.stays_irreducible": "stays_irreducible",
    "factor.localization_units_check": "localization_units_check",
    "pipeline.invert": "invert",
    "pipeline.verify_inverse": "verify_inverse",
}


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.item = SETUP
        self._stack: List[list] = []
        self._restore: List[tuple] = []

    def _wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            stack.append((frame, index))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0][0] += end - start
                extra = info(args, result) if info else 0
                spans[index] = (name, start, end, parent, self.item, end - start - frame[0], extra)

        return traced

    def install(self, keller_modules: Dict[str, object]) -> None:
        """Wrap every traced function; ``uninstall`` puts the originals back."""
        poly = keller_modules["poly"]
        for mod_name, attr, name in TRACED:
            module = keller_modules[mod_name]
            if attr.startswith("Polynomial."):
                cls, meth = poly.Polynomial, attr.split(".", 1)[1]
                orig = cls.__dict__[meth]
                info = _term_products(poly.Polynomial) if meth == "__mul__" else None
                wrapped = self._wrap(name, orig, info)
                targets = ["__mul__", "__rmul__"] if meth == "__mul__" else [meth]
                for t in targets:
                    self._restore.append((cls, t, cls.__dict__[t]))
                    setattr(cls, t, wrapped)
                continue
            orig = getattr(module, attr)
            info = _missed if name == "linalg.solve_sparse" else None
            wrapped = self._wrap(name, orig, info)
            for mod in list(keller_modules.values()):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def metrics(self, setup: bool) -> Dict[str, float]:
        """Per-layer totals keyed ``<module>.<function>.<quantity>``, over the
        spans of set-up (``setup=True``) or of the measured items."""
        calls: Dict[str, int] = defaultdict(int)
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        info: Dict[str, int] = defaultdict(int)
        miss_self: float = 0.0
        stage_calls: Dict[str, int] = defaultdict(int)
        stage_s: Dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, item, own, extra in spans:
            if (item == SETUP) != setup:
                continue
            calls[name] += 1
            self_s[name] += own
            info[name] += extra
            if name == "linalg.solve_sparse" and extra:
                miss_self += own
            # inclusive time counts only the outermost span of a recursion
            outer, p = True, parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                incl[name] += end - start
            if parent >= 0 and spans[parent][0] == "pipeline.classify" and name in PIPELINE_STAGES:
                stage_calls[PIPELINE_STAGES[name]] += 1
                stage_s[PIPELINE_STAGES[name]] += end - start
        out: Dict[str, float] = {}
        for _, _, name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.s"] = incl[name]
        out["poly.mul.term_products"] = info["poly.mul"]
        solves = calls["linalg.solve_sparse"]
        out["linalg.solve_sparse.misses"] = info["linalg.solve_sparse"]
        out["linalg.solve_sparse.miss_ratio"] = info["linalg.solve_sparse"] / solves if solves else 0.0
        out["linalg.solve_sparse.miss_self_s"] = miss_self
        for stage in PIPELINE_STAGES.values():
            out[f"pipeline.{stage}.calls"] = stage_calls[stage]
            out[f"pipeline.{stage}.s"] = stage_s[stage]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one list per span in span order:
        name, start, end, parent index, item, self seconds, info."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _term_products(polynomial_cls):
    def count(args, _result):
        a, b = args
        return len(a.terms) * len(b.terms) if isinstance(b, polynomial_cls) else 0

    return count


def _missed(_args, result) -> int:
    return 1 if result is None else 0


def keller_modules() -> Dict[str, object]:
    """The imported ``keller`` package and submodules, keyed by short name."""
    return {
        (name.split(".", 1)[1] if "." in name else "keller"): mod
        for name, mod in sys.modules.items()
        if name == "keller" or name.startswith("keller.")
    }
