"""The workloads at a tiny size, traced and untraced."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {"N": 8, "corpus": 2, "pool": 2}
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the span that carries each workload, and its calls per corpus tuple
CARRIER = {
    "control-orlicz": ("verify.verify_control", 0),
    "bilinear-commutator": ("operators.apply_potential", 3),
    "cz-dyadic-2d": ("dyadic.cz_decompose", 2),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    w = WORKLOADS[name]
    plain, rows = run.run_pass(w, 0, TINY, traced=False)
    assert "error" not in plain
    assert len(rows) == TINY["corpus"]
    assert all(len(r) == len(w.outputs) and all(math.isfinite(v) for v in r) for r in rows)
    assert run.compare(rows, rows) == (0, 0.0)
    bumped = [list(r) for r in rows]
    bumped[1][0] = bumped[1][0] * (1 + 1e-3) + 1e-3
    assert run.compare(bumped, rows)[0] == 1
    nan = [list(r) for r in rows]
    nan[0][0] = float("nan")
    assert run.compare(nan, rows) == (1, math.inf)

    traced, again = run.run_pass(w, 0, TINY, traced=True)
    assert again == rows  # tracing changes no output
    span, per_tuple = CARRIER[name]
    calls = traced["trace"]["spans"][span]["calls"]
    assert calls == (per_tuple * TINY["corpus"] or 1)

    layer = run.per_layer([plain, traced])
    assert sorted(layer) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = run.end_to_end([plain], TINY["corpus"])
    assert sorted(e2e) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert all(v > 0 for v, _ in e2e.values())


def test_benchmark_names_the_workloads():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)
