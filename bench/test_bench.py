"""Self-tests of the benchmark: ``python3 -m pytest -q bench``.

Tiny runs of each workload must report every metric named in
``BENCHMARK.json`` with its unit, and a deliberately corrupted expected
answer must be counted as a failure, which shows that the oracles catch
wrong answers.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(name, trace=False, mutate_items=None):
    record = run.run_workload(name, 0, 0, trace, limit=2, mutate_items=mutate_items)
    record.pop("_tracer", None)
    return record


def test_spec_lists_the_metrics_the_runner_prints():
    assert set(WORKLOADS) == set(run.workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    line = run.result_line(_tiny(name, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_tame_run_sees_each_pipeline_stage():
    layer = _tiny("tame_classify", trace=True)["per_layer"]
    assert layer["pipeline.invert.calls"] == layer["pipeline.verify_inverse.calls"] == 2
    assert layer["poly.mul.calls"] > 0 and layer["poly.mul.term_products"] > 0
    assert layer["poly.jacobian_det.calls"] == 2
    assert layer["linalg.solve_sparse.miss_ratio"] == 0.0


def _perturb(poly):
    out = dict(poly)
    e = next(iter(out))
    out[e] += Fraction(1, 7)
    return out


def _corrupt_tame(items):
    s, t = items[0].expect
    items[0].expect = (_perturb(s), t)


def _corrupt_membership(items):
    first_member = next(i for i in items if i.expect is not None)
    first_member.expect = None
    first_outsider = next(i for i in items if i.expect is None and i is not first_member)
    first_outsider.expect = {(1, 0): Fraction(1)}


def _corrupt_factor(items):
    W, factors = items[0].expect
    g, m = factors[0]
    items[0].expect = (W, [(g, m + 1)] + factors[1:])


@pytest.mark.parametrize(
    "name, corrupt, wrong",
    [
        ("tame_classify", _corrupt_tame, 1),
        ("membership_mixed", _corrupt_membership, 2),
        ("factor_images", _corrupt_factor, 1),
    ],
)
def test_corrupted_expected_answer_is_a_failure(name, corrupt, wrong):
    record = _tiny(name, mutate_items=corrupt)
    assert sum(not v["ok"] for v in record["items"].values()) == wrong
    assert record["fail_ratio"] > 0
    assert not run.result_line(record)["correct"]


def test_runner_refuses_a_directory_without_keller_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = run.spans.Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.item = "x"
    outer()
    (name, start, end, parent, item, own, _), *children = tracer.spans
    assert (name, parent, item) == ("outer", -1, "x")
    assert [(c[0], c[3]) for c in children] == [("inner", 0)] * 3
    assert own == pytest.approx((end - start) - sum(c[2] - c[1] for c in children), abs=1e-9)
