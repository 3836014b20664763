"""Run one keller benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload tame_classify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: keller is imported from
``src/`` next to this directory, never from an installed copy. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(host, every raw number, per-item latencies, output digest, spans) is
written to ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

# name -> (unit, better); the end-to-end metrics of an untraced run. The
# latency percentiles go to the record and the summary line instead: on a
# shared 2-vCPU host they spread by up to 0.31 between runs of the same
# code, more than the 0.25 a regression bound may allow.
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_CALLS, _S = ("count", "lower"), ("s", "lower")
# name -> (unit, better); the per-layer metrics of a traced run
PER_LAYER = {
    "parsing.parse_poly.calls": _CALLS,
    "parsing.parse_poly.self_s": _S,
    "parsing.parse_poly.s": _S,
    "poly.jacobian_det.calls": _CALLS,
    "poly.jacobian_det.self_s": _S,
    "poly.mul.calls": _CALLS,
    "poly.mul.self_s": _S,
    "poly.mul.term_products": _CALLS,
    "poly.substitute.calls": _CALLS,
    "poly.substitute.self_s": _S,
    "poly.poly_gcd.calls": _CALLS,
    "poly.poly_gcd.self_s": _S,
    "linalg.solve_sparse.calls": _CALLS,
    "linalg.solve_sparse.self_s": _S,
    "linalg.solve_sparse.misses": _CALLS,
    "linalg.solve_sparse.miss_ratio": ("ratio", "lower"),
    "linalg.solve_sparse.miss_self_s": _S,
    "groebner.buchberger.calls": _CALLS,
    "groebner.buchberger.self_s": _S,
    "groebner.buchberger.s": _S,
    "groebner.normal_form.calls": _CALLS,
    "groebner.normal_form.self_s": _S,
    "groebner.subring_membership.calls": _CALLS,
    "groebner.subring_membership.s": _S,
    "groebner.tag_basis.lookups": _CALLS,
    "groebner.tag_basis.hit_ratio": ("ratio", "higher"),
    "groebner.image_powers.lookups": _CALLS,
    "groebner.image_powers.hit_ratio": ("ratio", "higher"),
    "groebner.spairs_reported": _CALLS,
    "groebner.millis_reported": ("ms", "lower"),
    "funcfield.shape_basis.s": _S,
    "funcfield.uv_decomposition.s": _S,
    "factor.factor_bivariate.calls": _CALLS,
    "factor.factor_bivariate.self_s": _S,
    "factor.squarefree_decomposition.s": _S,
    "factor.stays_irreducible.s": _S,
    "factor.localization_units_check.s": _S,
    "univariate.factor_squarefree_monic.calls": _CALLS,
    "univariate.factor_squarefree_monic.self_s": _S,
    "pipeline.classify.s": _S,
    **{
        f"pipeline.{stage}.{q}": (_CALLS if q == "calls" else _S)
        for stage in spans.PIPELINE_STAGES.values()
        for q in ("calls", "s")
    },
    "bench.untraced.items_per_s": ("1/s", "higher"),
    "bench.traced.items_per_s": ("1/s", "higher"),
    "bench.trace.overhead": ("ratio", "lower"),
}


class UsageError(Exception):
    """The checkout cannot run the benchmark (no keller sources next to it)."""


def import_keller():
    """Import keller from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "keller" / "__init__.py").is_file():
        raise UsageError(f"no keller sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    keller = importlib.import_module("keller")
    if Path(keller.__file__).resolve().parent != (SRC / "keller").resolve():
        raise UsageError(f"imported keller from {keller.__file__}, not from {SRC}")
    return keller


def purge_keller() -> None:
    for name in [n for n in sys.modules if n == "keller" or n.startswith("keller.")]:
        del sys.modules[name]


def host_info() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def item_groups(items) -> List[List[int]]:
    """Runs of consecutive items on the same map: the unit caches serve."""
    groups: List[List[int]] = []
    for i, item in enumerate(items):
        if groups and items[groups[-1][0]].texts[0] == item.texts[0]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


class Round:
    """The runs of one round: per-item latencies, checks and counters."""

    def __init__(self, keller, wl, items, args, tracer=None):
        self.keller, self.wl, self.items, self.args = keller, wl, items, args
        self.tracer = tracer
        groebner = keller.groebner
        self.caches = {"tag_basis": groebner._tag_basis, "image_powers": groebner._image_powers}
        self.lookups = {name: {"hits": 0, "misses": 0} for name in self.caches}
        n = len(items)
        self.latencies: List[List[float]] = [[] for _ in range(n)]
        self.oks: List[List[bool]] = [[] for _ in range(n)]
        self.texts: List[Optional[str]] = [None] * n
        self.errors: Dict[str, str] = {}
        self.stable = True
        self.spairs = self.millis = 0.0
        self.wall = 0.0

    def run_group(self, group: List[int]) -> None:
        """Run one map's items in order, caches cold at the start; only the
        keller call is timed, the oracle check is not."""
        keller, wl, items, tracer = self.keller, self.wl, self.items, self.tracer
        keller.groebner.clear_caches()
        if tracer is not None:
            tracer.install(spans.keller_modules())
        try:
            for i in group:
                if tracer is not None:
                    tracer.item = items[i].id
                start = time.perf_counter()
                try:
                    out, stats = wl.call(keller, self.args[i])
                except Exception as exc:  # a refusal or a crash is a failed item
                    latency = time.perf_counter() - start
                    ok, text = False, f"error {type(exc).__name__}"
                    self.errors[items[i].id] = f"{type(exc).__name__}: {exc}"
                else:
                    latency = time.perf_counter() - start
                    if stats is not None:
                        self.spairs += stats.spairs
                        self.millis += stats.millis
                    try:
                        ok, text = wl.check(keller, items[i], out)
                    except Exception as exc:  # an answer the oracle cannot read is wrong
                        ok, text = False, f"check error {type(exc).__name__}: {exc}"
                self.latencies[i].append(latency)
                self.oks[i].append(bool(ok))
                if self.texts[i] is None:
                    self.texts[i] = text
                self.stable = self.stable and self.texts[i] == text
        finally:
            if tracer is not None:
                tracer.uninstall()
        for name, cached in self.caches.items():
            info = cached.cache_info()
            self.lookups[name]["hits"] += info.hits
            self.lookups[name]["misses"] += info.misses

    def summary(self) -> dict:
        digest = hashlib.sha256(
            "\n".join(f"{item.id}\t{t}" for item, t in zip(self.items, self.texts)).encode()
        ).hexdigest()
        return {
            "traced": self.tracer is not None,
            "wall_s": self.wall,
            "timed_s": sum(map(sum, self.latencies)),
            "calls": sum(map(len, self.latencies)),
            "failed": sum(o.count(False) for o in self.oks),
            "errors": self.errors,
            "digest": digest,
            "outputs_stable": self.stable,
            "caches": self.lookups,
            "spairs_reported": self.spairs,
            "millis_reported": self.millis,
            "latencies": self.latencies,
            "ok": self.oks,
            "outputs": self.texts,
        }


def run_round(keller, wl, items, args) -> dict:
    """One untraced closed-loop pass over every item. Each group of queries
    on one map starts with cold caches and shares them, as several queries
    on one map do in real use."""
    r = Round(keller, wl, items, args)
    gc.collect()
    start = time.perf_counter()
    for group in item_groups(items):
        r.run_group(group)
    r.wall = time.perf_counter() - start
    return r.summary()


def run_traced_round(keller, wl, items, args, tracer) -> tuple:
    """Every group once untraced and right after that once traced, so the
    tracing overhead compares runs made under the same conditions of the
    host. Returns the untraced and the traced round."""
    plain, traced = Round(keller, wl, items, args), Round(keller, wl, items, args, tracer)
    gc.collect()
    for group in item_groups(items):
        for r in (plain, traced):
            start = time.perf_counter()
            r.run_group(group)
            r.wall += time.perf_counter() - start
    return plain.summary(), traced.summary()


def _hit_ratio(info: dict) -> float:
    lookups = info["hits"] + info["misses"]
    return info["hits"] / lookups if lookups else 0.0


def percentile_nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def summarize(rounds: List[dict]) -> dict:
    """Per-item latency is the median of the item's runs, one per round.
    Throughput counts an item only when every run answered it correctly."""
    n = len(rounds[0]["latencies"])
    per_item = [statistics.median(t for r in rounds for t in r["latencies"][i]) for i in range(n)]
    good = sum(all(all(r["ok"][i]) for r in rounds) for i in range(n))
    return {
        "items": n,
        "items_per_s": good / sum(per_item),
        "latency_p50_ms": statistics.median(per_item) * 1000,
        "latency_p90_ms": percentile_nearest_rank(per_item, 0.9) * 1000,
        "p90_samples_beyond": n - math.ceil(0.9 * n),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    limit: Optional[int] = None,
    mutate_items: Optional[Callable[[list], None]] = None,
) -> dict:
    """Generate, set up and measure one workload; returns the full record.

    ``limit`` shrinks the workload for self-tests; ``mutate_items`` lets a
    self-test corrupt expected answers before the run.
    """
    host = host_info()
    wl = workloads.WORKLOADS[name]
    keller = import_keller()
    gen_start = time.perf_counter()
    items = wl.items(keller, seed, limit)
    generate_s = time.perf_counter() - gen_start
    if mutate_items is not None:
        mutate_items(items)

    tracer = spans.Tracer() if trace else None
    setups = []
    for rep in range(SETUP_REPEATS):
        purge_keller()
        start = time.perf_counter()
        keller = import_keller()
        import_s = time.perf_counter() - start
        traced_setup = tracer is not None and rep == SETUP_REPEATS - 1
        if traced_setup:
            tracer.install(spans.keller_modules())
        maps: dict = {}
        args = [wl.parse(keller, item, maps) for item in items]
        if traced_setup:
            tracer.uninstall()
        setups.append({"total_s": time.perf_counter() - start, "import_s": import_s})

    rounds: List[dict] = []
    measure_start = time.perf_counter()
    traced_rounds: List[dict] = []
    if tracer is None:
        rounds.append(run_round(keller, wl, items, args))
        while time.perf_counter() - measure_start + rounds[-1]["wall_s"] <= seconds:
            rounds.append(run_round(keller, wl, items, args))
    else:
        plain_round, traced_round = run_traced_round(keller, wl, items, args, tracer)
        rounds.append(plain_round)
        traced_rounds.append(traced_round)
    every = rounds + traced_rounds

    untraced = summarize(rounds)
    attempted = sum(r["calls"] for r in every)
    failed = sum(r["failed"] for r in every)
    end_to_end = {
        "items_per_s": untraced["items_per_s"],
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "limit": limit,
        "host": host,
        "git_commit": git_commit(),
        "generate_s": generate_s,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": rounds[0]["digest"],
        "outputs_stable": all(r["outputs_stable"] for r in every)
        and len({r["digest"] for r in every}) == 1,
        "end_to_end": end_to_end,
        "latency": {
            "p50_ms": untraced["latency_p50_ms"],
            "p90_ms": untraced["latency_p90_ms"],
            "samples": untraced["items"],
            "samples_beyond_p90": untraced["p90_samples_beyond"],
        },
        "rounds": [
            {k: v for k, v in r.items() if k not in ("latencies", "ok", "outputs")}
            for r in every
        ],
        "items": {
            item.id: {
                "group": item.group,
                "latency_ms": [t * 1000 for r in rounds for t in r["latencies"][i]],
                "traced_latency_ms": [t * 1000 for r in traced_rounds for t in r["latencies"][i]],
                "ok": all(all(r["ok"][i]) for r in every),
                "output": rounds[0]["outputs"][i],
            }
            for i, item in enumerate(items)
        },
    }
    if tracer is not None:
        traced = summarize(traced_rounds)
        # parsing and the Jacobian run in set-up; everything else in the items
        layer = tracer.metrics(setup=False)
        layer.update(
            (k, v)
            for k, v in tracer.metrics(setup=True).items()
            if k.startswith(("parsing.", "poly.jacobian_det."))
        )
        tp = traced_rounds[0]
        layer.update(
            {
                "groebner.tag_basis.lookups": tp["caches"]["tag_basis"]["hits"]
                + tp["caches"]["tag_basis"]["misses"],
                "groebner.tag_basis.hit_ratio": _hit_ratio(tp["caches"]["tag_basis"]),
                "groebner.image_powers.lookups": tp["caches"]["image_powers"]["hits"]
                + tp["caches"]["image_powers"]["misses"],
                "groebner.image_powers.hit_ratio": _hit_ratio(tp["caches"]["image_powers"]),
                "groebner.spairs_reported": tp["spairs_reported"],
                "groebner.millis_reported": tp["millis_reported"],
                "bench.untraced.items_per_s": untraced["items_per_s"],
                "bench.traced.items_per_s": traced["items_per_s"],
                "bench.trace.overhead": untraced["items_per_s"] / traced["items_per_s"],
            }
        )
        record["per_layer"] = {k: layer[k] for k in PER_LAYER}
        record["per_layer_all"] = layer
        record["spans"] = len(tracer.spans)
        record["_tracer"] = tracer
    return record


def result_line(record: dict) -> dict:
    """The result line: correct, attempted, failed and the metric values."""
    table, values = (
        (PER_LAYER, record["per_layer"]) if record["trace"] else (END_TO_END, record["end_to_end"])
    )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }


def write_record(record: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.jsonl"
        tracer.dump(RESULTS_DIR / record["spans_file"])
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    try:
        record = run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    except UsageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    e2e, lat = record["end_to_end"], record["latency"]
    print(
        f"{opts.workload} seed {opts.seed}: {record['attempted']} attempted, "
        f"{record['failed']} failed, {len(record['rounds'])} rounds, "
        f"{e2e['items_per_s']:.3f} items/s, p50 {lat['p50_ms']:.1f} ms, "
        f"p90 {lat['p90_ms']:.1f} ms ({lat['samples']} samples), "
        f"setup {e2e['setup_s']:.3f} s; record in {path.relative_to(ROOT)}"
    )
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
