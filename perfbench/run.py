"""Run one benchmark workload against the multipot sources of this checkout.

    python3 perfbench/run.py --workload control-orlicz --seed 3 --seconds 20 --trace 0

A run is one process, one client and a closed loop of passes while one
more pass still fits in --seconds.  Each pass imports the package afresh
and builds the workload's inputs from the seed (set-up), SETUPS_PER_PASS
times, then runs the harness once over the corpus (the timed pass), and
checks every output row against the references recorded in references.json.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and the object holds the per-layer metrics of the traced passes.
Both modes write the per-pass details to results/ next to this file.
The exit code is 0 when every output matched, 1 when one did not, and 2
when the package sources are not where this file expects them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
RESULTS = HERE / "results"

import numpy as np  # noqa: E402

from layertrace import LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOLERANCE = 1e-6  # relative, per output value
# A set-up is ~3 % of a pass, so a few per pass give setup_s more samples
# at little cost in harness passes.
SETUPS_PER_PASS = 3
# layers with a layer.<name>_s metric; no harness pass calls weights or cli
SHARE_LAYERS = ("grid", "orlicz", "kernels", "operators", "dyadic", "verify")


def fresh_import():
    """Import the package and its layer modules as a new process would."""
    for name in [n for n in sys.modules if n == "multipot" or n.startswith("multipot.")]:
        del sys.modules[name]
    package = importlib.import_module("multipot")
    return package, {name: importlib.import_module(f"multipot.{name}") for name in LAYERS}


def set_up(workload, seed: int, size: dict, tracer=None):
    """A fresh import and the workload's inputs; returns (seconds, mp, inputs)."""
    gc.collect()  # so earlier garbage is not collected inside the timed span
    t0 = time.perf_counter()
    package, layers = fresh_import()
    if tracer is not None:
        install(tracer, package, layers)
    mp = SimpleNamespace(**layers)
    inputs = workload.setup(mp, seed, size)
    return time.perf_counter() - t0, mp, inputs


def run_pass(workload, seed: int, size: dict, traced: bool):
    """SETUPS_PER_PASS set-ups, then one harness pass on the inputs of the
    last; returns (record, output rows or None)."""
    rows = None
    rec = {"traced": traced, "setup_s": []}
    try:
        for _ in range(SETUPS_PER_PASS - 1):
            rec["setup_s"].append(set_up(workload, seed, size)[0])
        tracer = Tracer() if traced else None
        dt, mp, inputs = set_up(workload, seed, size, tracer)
        rec["setup_s"].append(dt)
        if tracer is not None:
            rec["setup_trace"] = tracer.snapshot()
            tracer.reset()
        t1 = time.perf_counter()
        rows = workload.run(mp, inputs)
        rec["run_s"] = time.perf_counter() - t1
        if tracer is not None:
            rec["trace"] = tracer.snapshot()
    except Exception:
        rec["error"] = traceback.format_exc()
    return rec, rows


def compare(rows, expected):
    """(failed rows, largest relative deviation) of rows against references."""
    if rows is None or len(rows) != len(expected):
        return len(expected), float("inf")
    failed, worst = 0, 0.0
    for row, ref in zip(rows, expected):
        bad = len(row) != len(ref)
        for got, want in zip(row, ref):
            got = float(got)
            if not np.isfinite(got):
                err = float("inf")
            else:
                err = abs(got - want) / abs(want) if want else abs(got)
            if not err <= TOLERANCE:
                bad = True
            worst = max(worst, err)
        failed += bad
    return failed, worst


def end_to_end(passes, corpus: int) -> dict:
    """Times over the whole run.  The harness time is averaged, not taken
    as a median: on a host whose speed switches between two modes, the
    median of a run jumps to whichever mode held most passes.  Set-up
    times are short, and a host hiccup can stretch one several times
    over, so setup_s is the mean of their middle half."""
    run_s = statistics.fmean(p["run_s"] for p in passes)
    setups = sorted(t for p in passes for t in p["setup_s"])
    quarter = len(setups) // 4
    return {
        "run_s": (run_s, "s"),
        "tuples_per_s": (corpus / run_s, "1/s"),
        "setup_s": (statistics.fmean(setups[quarter:len(setups) - quarter]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(setup: dict, trace: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    `_s` metrics are self time (span minus child spans) unless noted;
    kernels.cell_value_s and kernels.phi_theta_s are inclusive, since
    their children are kernel-layer helpers.
    """
    def get(tr, name, key):
        return tr["spans"].get(name, {}).get(key, 0)

    def self_s(name, tr=trace):
        return get(tr, name, "self_s")

    def count(name, tr=trace):
        return tr["counters"].get(name, 0)

    def busy(prefix, tr=trace):
        return sum(s["self_s"] for k, s in tr["spans"].items() if k.startswith(prefix))

    out = {
        "orlicz.luxemburg_s": (self_s("orlicz.luxemburg_norm"), "s"),
        "orlicz.luxemburg_calls": (get(trace, "orlicz.luxemburg_norm", "calls"), "count"),
        "orlicz.luxemburg_young_calls": (count("orlicz.luxemburg_young_calls"), "count"),
        "orlicz.luxemburg_lr_calls": (count("orlicz.luxemburg_lr_calls"), "count"),
        "orlicz.young_evals": (count("orlicz.young_evals"), "count"),
        "operators.maximal_s": (self_s("operators.maximal"), "s"),
        "operators.maximal_cubes": (count("operators.maximal_cubes"), "count"),
        "operators.potential_s": (self_s("operators.apply_potential"), "s"),
        "operators.potential_calls": (get(trace, "operators.apply_potential", "calls"), "count"),
        "operators.potential_macs": (count("operators.potential_macs"), "count"),
        "kernels.cell_value_s": (get(trace, "kernels.kernel_cell_value", "total_s"), "s"),
        "kernels.cell_value_calls": (get(trace, "kernels.kernel_cell_value", "calls"), "count"),
        "kernels.radial_s": (self_s("kernels.Kernel.radial"), "s"),
        "kernels.radial_points": (count("kernels.radial_points"), "count"),
        "kernels.phi_theta_s": (get(trace, "kernels.phi_theta", "total_s"), "s"),
        "kernels.phi_theta_hits": (count("kernels.phi_theta_hits"), "count"),
        "dyadic.cz_decompose_s": (self_s("dyadic.cz_decompose"), "s"),
        "dyadic.m3d_s": (self_s("dyadic.m3d"), "s"),
        "dyadic.discretization_rhs_s": (self_s("dyadic.discretization_rhs"), "s"),
        "dyadic.levels": (count("dyadic.levels"), "count"),
        "dyadic.cubes_selected": (count("dyadic.cubes_selected"), "count"),
        "verify.harness_s": (busy("verify.verify_"), "s"),
        "verify.lorentz_s": (self_s("verify.lorentz_weak_quasinorm"), "s"),
        "grid.cube_family_s": (self_s("grid.cube_family", setup), "s"),
        "grid.family_cubes": (count("grid.family_cubes", setup), "count"),
        "verify.make_corpus_s": (self_s("verify.make_corpus", setup), "s"),
        "weights.gen_s": (busy("weights.", setup), "s"),
    }
    for layer in SHARE_LAYERS:
        self_total = busy(layer + ".")
        out[f"layer.{layer}_s"] = (self_total, "s")
        out[f"layer.{layer}_share"] = (100.0 * self_total / run_s, "%")
    out["trace.pass_s"] = (run_s, "s")
    return {k: (int(v) if u == "count" else float(v), u) for k, (v, u) in out.items()}


def per_layer(passes) -> dict:
    """Medians of the traced passes' layer metrics, and the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    rows = [layer_metrics(p["setup_trace"], p["trace"], p["run_s"]) for p in traced]
    out = {}
    for k, (_, unit) in rows[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        out[k] = (median(r[k][0] for r in rows), unit)
    mean = {t: statistics.fmean(p["run_s"] for p in passes if p["traced"] == t) for t in (0, 1)}
    out["trace.overhead_s"] = (mean[1] - mean[0], "s")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "multipot").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """The checked-out commit, when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(seed: int, corpus_seed: int) -> dict:
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "corpus_seed": corpus_seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multipot" / "__init__.py").is_file():
        print(f"error: no multipot sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    refs = json.loads(REFERENCES.read_text())
    corpus_seed = args.seed % refs["seeds"]
    expected = refs["workloads"][workload.name][str(corpus_seed)]
    size = workload.size

    passes, attempted, failed, worst = [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec, rows = run_pass(workload, corpus_seed, size, traced)
        bad, err = compare(rows, expected)
        rec.update(failed=bad, max_rel_err=err)
        passes.append(rec)
        attempted += len(expected)
        failed += bad
        worst = max(worst, err)
        now = time.perf_counter()
        # stop when another pass of this length would overrun --seconds
        if len(passes) >= 1 + args.trace and now - start + (now - begun) > args.seconds:
            break

    correct = failed == 0  # so no pass raised
    metrics = {}
    if correct:
        metrics = per_layer(passes) if args.trace else end_to_end(passes, size["corpus"])
    env = environment(args.seed, corpus_seed)
    summary = {
        "workload": workload.name,
        "trace": args.trace,
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "max_rel_err": worst,
        "tolerance": TOLERANCE,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_records": passes,
    }
    RESULTS.mkdir(exist_ok=True)
    side = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(summary, indent=1, default=float) + "\n")

    print(f"workload {workload.name}  seed {args.seed} (corpus seed {corpus_seed})  "
          f"passes {len(passes)}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})  "
          f"max_rel_err {worst:.3g} (tolerance {TOLERANCE:g})")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    for p in passes:
        if "error" in p:
            print(p["error"], file=sys.stderr)
            break
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
