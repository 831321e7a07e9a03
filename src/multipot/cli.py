"""Batch experiment runner: configs in, reports and plot data out.

Identical config and seed must produce byte-identical JSON, so reports
never contain wall-clock data; timings go to the CSV summary only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dyadic import DyadicLattice, cz_decompose, default_cz_base
from .grid import Grid, GridFunction, cube_family
from .kernels import (
    Kernel,
    bessel_fourier_probe,
    condition_d_check,
    parse_kernel,
)
from .operators import PhiScaling, apply_commutator, apply_potential, maximal
from .orlicz import NormSpec, parse_norm_spec
from .verify import (
    HypothesisUnmet,
    make_corpus,
    verify_coifman,
    verify_control,
    verify_fefferman_stein,
    verify_ftd,
    verify_strong,
    verify_weak_maximal,
)
from .weights import gen_bmo_log, parse_weight

CSV_HEADER = "theorem,case,m,n,N,kernel,ell,max_ratio,stable,wall_ms"

_DEFAULTS = {
    "command": None,
    "m": 1,
    "n": 1,
    "N": 32,
    "L": 1.0,
    "kernel": "frac0.5",
    "weights": ["one"],
    "norms": ["L^1"],
    "exponents": {"p": [2.0], "q": 1.0},
    "ell": 0,
    "case": "i",
    "theorem": "coifman",
    "p": 1.0,
    "delta": 0.5,
    "seed": 0,
    "corpus": 20,
    "a": None,
    "k_range": "-5..0",
    "alpha": 1.0,
    "out_dir": "out",
    "unchecked": False,
}


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key, val in vars(args).items():
        if key in ("config",):
            continue
        if val is not None:
            cfg[key] = val
    return cfg


def _write_report(cfg: dict, payload: dict, rows: list, plots: dict) -> None:
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    doc = {"config": _clean(cfg), "version": __version__, "result": payload}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    for name, cols in plots.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            for a, b in cols:
                fh.write(f"{a} {b}\n")


def _clean(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if v is not None}


def _required(cfg: dict, path: str):
    """The config value at a dotted path such as "exponents.q"; a missing
    key is a configuration error that names the path."""
    val = cfg
    for key in path.split("."):
        if not isinstance(val, dict) or key not in val:
            raise ValueError(f"config is missing {path}")
        val = val[key]
    return val


def _grid(cfg) -> Grid:
    return Grid(int(cfg["n"]), float(cfg["L"]), int(cfg["N"]))


def _kernel(cfg) -> Kernel:
    return parse_kernel(cfg["kernel"], int(cfg["n"]), int(cfg["m"]))


def _weights(cfg, grid, count) -> list:
    specs = cfg["weights"]
    if isinstance(specs, str):
        specs = specs.split(",")
    if len(specs) == 1 and count > 1:
        specs = specs * count
    return [parse_weight(s, grid) for s in specs]


def _cmd_eval_op(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    fs = _weights(cfg, grid, K.m)
    out = apply_potential(K, fs)
    path = os.path.join(cfg["out_dir"], "operator_output.csv")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out.to_csv(path)
    return {"max": float(out.values.max()), "min": float(out.values.min()),
            "output": "operator_output.csv"}, [], {}


def _cmd_eval_commutator(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    fs = _weights(cfg, grid, K.m)
    bs = [gen_bmo_log(grid)] * K.m
    out = apply_commutator(K, bs, fs)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out.to_csv(os.path.join(cfg["out_dir"], "commutator_output.csv"))
    return {"max_abs": float(np.abs(out.values).max()),
            "output": "commutator_output.csv"}, [], {}


def _cmd_maximal(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    fs = _weights(cfg, grid, K.m)
    norms = cfg["norms"]
    if isinstance(norms, str):
        norms = norms.split(",")
    if len(norms) == 1:
        norms = norms * K.m
    specs = [parse_norm_spec(s) for s in norms]
    family = cube_family(grid, "centered")
    out = maximal(PhiScaling.from_kernel(K, theta=1.0), specs, fs, grid, family)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out.to_csv(os.path.join(cfg["out_dir"], "maximal_output.csv"))
    return {"max": float(out.values.max()), "output": "maximal_output.csv"}, [], {}


def _cmd_cz_decompose(cfg) -> dict:
    grid = _grid(cfg)
    m = int(cfg["m"])
    hs = make_corpus(grid, m, count=1, seed=int(cfg["seed"]))[0]
    a = cfg["a"] or default_cz_base(grid.n, m)
    cz = cz_decompose(list(hs), float(a), DyadicLattice(grid))
    os.makedirs(cfg["out_dir"], exist_ok=True)
    with open(os.path.join(cfg["out_dir"], "cz.json"), "w") as fh:
        fh.write(cz.to_json())
        fh.write("\n")
    ncubes = sum(len(lev.cubes) for lev in cz.levels)
    return {"a": float(a), "levels": len(cz.levels), "cubes": ncubes,
            "output": "cz.json"}, [], {}


def _cmd_check_condition_d(cfg) -> dict:
    K = _kernel(cfg)
    lo, hi = (int(s) for s in str(cfg["k_range"]).split(".."))
    rep = condition_d_check(K, k_range=range(lo, hi + 1))
    table = sorted(rep["per_k"].items())
    plots = {"condition_d.dat": [(k, r) for k, r in table]}
    return {"per_k": {str(k): r for k, r in table}, "C_max": rep["C_max"],
            "unbounded_growth_flag": rep["unbounded_growth_flag"]}, [], plots


def _cmd_bessel_probe(cfg) -> dict:
    rep = bessel_fourier_probe(float(cfg["alpha"]))
    return rep, [], {}


def _cmd_verify(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    m = K.m
    family = cube_family(grid, "centered")
    corpus = make_corpus(grid, m, count=int(cfg["corpus"]), seed=int(cfg["seed"]))
    theorem = cfg["theorem"]
    ell = int(cfg["ell"])
    bs = [gen_bmo_log(grid)] * m if ell else None
    if theorem == "coifman":
        w = _weights(cfg, grid, 1)[0]
        rep = verify_coifman(cfg["case"], ell, float(cfg["p"]), K, w, corpus,
                             family, bs)
    elif theorem == "ftd":
        u = _weights(cfg, grid, 1)[0]
        rep = verify_ftd(cfg["case"], ell, float(cfg["p"]), K, u, corpus,
                         family, bs)
    elif theorem == "fefferman-stein":
        us = _weights(cfg, grid, m)
        ps = [float(p) for p in _required(cfg, "exponents.p")]
        rep = verify_fefferman_stein(cfg["case"], ell, ps,
                                     float(cfg["delta"]), K, us, corpus, family, bs)
    elif theorem == "strong":
        us = _weights(cfg, grid, 1 + m)
        ps = [float(p) for p in _required(cfg, "exponents.p")]
        rep = verify_strong(ell, ps, float(_required(cfg, "exponents.q")),
                            K, us[0], us[1:], corpus, family, bs,
                            delta_rem=float(cfg["delta"]))
    elif theorem == "weak-maximal":
        us = _weights(cfg, grid, m)
        spec = parse_norm_spec(cfg["norms"][0] if isinstance(cfg["norms"], list)
                               else cfg["norms"])
        B = spec.young if spec.young is not None else _power_young(spec.r)
        rep = verify_weak_maximal(PhiScaling.constant(1.0), B, us, corpus, family)
    elif theorem == "control":
        u = _weights(cfg, grid, 1)[0]
        rep = verify_control(ell, float(cfg["delta"]), K, u, corpus, family, bs)
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    rows = [[
        rep.theorem, cfg.get("case", ""), m, grid.n, grid.N, cfg["kernel"],
        ell, f"{rep.max_ratio:.6g}", rep.stable, "{wall_ms}",
    ]]
    plots = {
        "ratios.dat": [(i, inst["ratio"]) for i, inst in enumerate(rep.instances)],
    }
    return rep.to_dict(), rows, plots


_COMMANDS = {
    "eval-op": _cmd_eval_op,
    "eval-commutator": _cmd_eval_commutator,
    "maximal": _cmd_maximal,
    "cz-decompose": _cmd_cz_decompose,
    "check-condition-d": _cmd_check_condition_d,
    "verify": _cmd_verify,
    "bessel-probe": _cmd_bessel_probe,
}


def _power_young(r):
    from .orlicz import YoungFunction

    return YoungFunction("identity") if r == 1 else YoungFunction("power-log", p=r)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="multipot")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config")
    ap.add_argument("--m", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--N", type=int)
    ap.add_argument("--L", type=float)
    ap.add_argument("--kernel")
    ap.add_argument("--weights", nargs="+")
    ap.add_argument("--w", dest="weights", nargs="+")
    ap.add_argument("--norms", nargs="+")
    ap.add_argument("--ell", type=int)
    ap.add_argument("--case")
    ap.add_argument("--theorem")
    ap.add_argument("--p", type=float)
    ap.add_argument("--delta", type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--corpus", type=int)
    ap.add_argument("--a", type=float)
    ap.add_argument("--k", dest="k_range")
    ap.add_argument("--alpha", type=float)
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--unchecked", action="store_true", default=None)
    return ap


def run(cfg: dict) -> int:
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    start = time.monotonic()
    payload, rows, plots = _COMMANDS[command](cfg)
    wall_ms = int((time.monotonic() - start) * 1000)
    rows = [
        [c if c != "{wall_ms}" else wall_ms for c in row] for row in rows
    ]
    _write_report(cfg, payload, rows, plots)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return run(cfg)
    except HypothesisUnmet as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
