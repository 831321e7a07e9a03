"""Batch experiment runner: configs in, reports and plot data out.

Identical config and seed must produce byte-identical JSON, so reports
never contain wall-clock data; timings go to the CSV summary only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .dyadic import cz_decompose, default_cz_base
from .grid import Grid, cube_family
from .kernels import Kernel, condition_d_check, parse_kernel, phi_theta
from .operators import apply_commutator, apply_potential, maximal
from .orlicz import parse_norm_spec
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

CSV_HEADER = "theorem,case,m,n,N,kernel,ell,max_ratio,wall_ms"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_exponents(v) -> bool:
    p = v.get("p", [1.0]) if isinstance(v, dict) else None
    return isinstance(p, list) and bool(p) and all(map(_is_number, p)) and _is_number(v.get("q", 1.0))


def _coifman(cfg, grid, K, corpus, family, bs):
    w = _weights(cfg, grid, 1)[0]
    return verify_coifman(cfg["case"], int(cfg["ell"]), float(cfg["p"]), K, w, corpus, family, bs)


def _ftd(cfg, grid, K, corpus, family, bs):
    u = _weights(cfg, grid, 1)[0]
    return verify_ftd(cfg["case"], int(cfg["ell"]), float(cfg["p"]), K, u, corpus, family, bs)


def _fefferman_stein(cfg, grid, K, corpus, family, bs):
    us = _weights(cfg, grid, K.m)
    ps = [float(p) for p in _required(cfg, "exponents.p")]
    return verify_fefferman_stein(cfg["case"], int(cfg["ell"]), ps, float(cfg["delta"]), K, us, corpus,
                                  family, bs)


def _strong(cfg, grid, K, corpus, family, bs):
    us = _weights(cfg, grid, 1 + K.m)
    ps = [float(p) for p in _required(cfg, "exponents.p")]
    return verify_strong(int(cfg["ell"]), ps, float(_required(cfg, "exponents.q")), K, us[0], us[1:],
                         corpus, family, bs, delta_rem=float(cfg["delta"]))


def _weak_maximal(cfg, grid, K, corpus, family, bs):
    us = _weights(cfg, grid, K.m)
    # the Young function of the first norm, t^r for L^r, as B^1(...) reads it
    B = parse_norm_spec(f"B^1({_specs(cfg, 'norms')[0]})").young
    return verify_weak_maximal(lambda Q: 1.0, B, us, corpus, family)


def _control(cfg, grid, K, corpus, family, bs):
    u = _weights(cfg, grid, 1)[0]
    return verify_control(int(cfg["ell"]), float(cfg["delta"]), K, u, corpus, family, bs)


# theorem: its verify branch, called with (cfg, grid, kernel, corpus, centred family, BMO symbols)
_THEOREMS = {"coifman": _coifman, "ftd": _ftd, "fefferman-stein": _fefferman_stein, "strong": _strong,
             "weak-maximal": _weak_maximal, "control": _control}

# kind: (argparse options of its flag, check of a config value, what the check wants)
_KINDS = {
    "integer": ({"type": int}, lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "number": ({"type": float}, _is_number, "a number"),
    "string": ({}, lambda v: isinstance(v, str), "a string"),
    "range": ({}, lambda v: isinstance(v, str) and re.fullmatch(r"-?\d+\.\.-?\d+", v), "a string lo..hi"),
    "specs": ({"nargs": "+"}, lambda v: isinstance(v, str) or (isinstance(v, list) and bool(v)
              and all(isinstance(s, str) for s in v)), "a non-empty list of strings"),
    "exponents": ({}, _is_exponents, 'a dict {"p": [numbers], "q": number}'),
    "theorem": ({"choices": list(_THEOREMS)}, lambda v: isinstance(v, str) and v in _THEOREMS,
                f"one of {', '.join(_THEOREMS)}"),
}

# key: (default, kind, flag); null passes the check only where it is the default
_KEYS = {
    "m": (1, "integer", "--m"),
    "n": (1, "integer", "--n"),
    "N": (32, "integer", "--N"),
    "L": (1.0, "number", "--L"),
    "kernel": ("frac0.5", "string", "--kernel"),
    "weights": (["one"], "specs", "--weights"),
    "norms": (["L^1"], "specs", "--norms"),
    "exponents": ({"p": [2.0], "q": 2.0}, "exponents", None),
    "ell": (0, "integer", "--ell"),
    "case": ("i", "string", "--case"),
    "theorem": ("coifman", "theorem", "--theorem"),
    "p": (1.0, "number", "--p"),
    "delta": (0.5, "number", "--delta"),
    "seed": (0, "integer", "--seed"),
    "corpus": (20, "integer", "--corpus"),
    "a": (None, "number", "--a"),
    "k_range": ("-5..0", "range", "--k"),
    "out_dir": ("out", "string", "--out-dir"),
}


def _load_config(args) -> dict:
    """Defaults, then the config file, then the flags; every key is checked
    against its kind before any command runs, and no value is rewritten."""
    cfg = {key: default for key, (default, _, _) in _KEYS.items()}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    for key, (default, kind, _) in _KEYS.items():
        _, check, want = _KINDS[kind]
        if not (check(cfg[key]) or cfg[key] is None and default is None):
            raise ValueError(f"config {key} must be {want}, got {cfg[key]!r}")
    return cfg


def _write_report(cfg: dict, payload: dict, rows: list, plots: dict) -> None:
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    config = {k: v for k, v in cfg.items() if v is not None}
    doc = {"config": config, "version": __version__, "result": payload}
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


def _required(cfg: dict, path: str):
    """The config value at a two-part path such as "exponents.q"; a
    missing key is a configuration error that names the path."""
    head, key = path.split(".")
    if key not in cfg[head]:
        raise ValueError(f"config is missing {path}")
    return cfg[head][key]


def _specs(cfg: dict, key: str) -> list:
    """A spec-list key as a list, a comma-separated string being split."""
    return cfg[key].split(",") if isinstance(cfg[key], str) else cfg[key]


def _grid(cfg) -> Grid:
    return Grid(int(cfg["n"]), float(cfg["L"]), int(cfg["N"]))


def _kernel(cfg) -> Kernel:
    return parse_kernel(cfg["kernel"], int(cfg["n"]), int(cfg["m"]))


def _weights(cfg, grid, count) -> list:
    """count weights from the config: one spec serves every place, or
    there is one spec per place."""
    specs = _specs(cfg, "weights")
    if len(specs) not in (1, count):
        raise ValueError(f"config weights needs 1 or {count} entries here, got {len(specs)}")
    return [parse_weight(s, grid) for s in specs * (count // len(specs))]


def _cmd_eval_op(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    fs = _weights(cfg, grid, K.m)
    out = apply_potential(K, fs)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out.to_csv(os.path.join(cfg["out_dir"], "operator_output.csv"))
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
    norms = _specs(cfg, "norms")
    if len(norms) == 1:
        norms = norms * K.m
    specs = [parse_norm_spec(s) for s in norms]
    family = cube_family(grid, "centered")
    out = maximal(lambda Q: phi_theta(K, 1.0, Q.side), specs, fs, grid, family)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out.to_csv(os.path.join(cfg["out_dir"], "maximal_output.csv"))
    return {"max": float(out.values.max()), "output": "maximal_output.csv"}, [], {}


def _cmd_cz_decompose(cfg) -> dict:
    grid = _grid(cfg)
    m = int(cfg["m"])
    hs = make_corpus(grid, m, count=1, seed=int(cfg["seed"]))[0]
    a = default_cz_base(grid.n, m) if cfg["a"] is None else cfg["a"]
    cz = cz_decompose(list(hs), float(a), grid)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    with open(os.path.join(cfg["out_dir"], "cz.json"), "w") as fh:
        fh.write(cz.to_json())
        fh.write("\n")
    ncubes = sum(len(lev.cubes) for lev in cz.levels)
    return {"a": float(a), "levels": len(cz.levels), "cubes": ncubes,
            "output": "cz.json"}, [], {}


def _cmd_check_condition_d(cfg) -> dict:
    K = _kernel(cfg)
    lo, hi = (int(s) for s in cfg["k_range"].split(".."))
    rep = condition_d_check(K, k_range=range(lo, hi + 1))
    table = sorted(rep["per_k"].items())
    plots = {"condition_d.dat": [(k, r) for k, r in table]}
    return {"per_k": {str(k): r for k, r in table}, "C_max": rep["C_max"],
            "unbounded_growth_flag": rep["unbounded_growth_flag"]}, [], plots


def _cmd_verify(cfg) -> dict:
    grid = _grid(cfg)
    K = _kernel(cfg)
    m = K.m
    count = int(cfg["corpus"])
    if count < 1:
        raise ValueError(f"corpus must be at least 1, got {count}")
    family = cube_family(grid, "centered")
    corpus = make_corpus(grid, m, count=count, seed=int(cfg["seed"]))
    ell = int(cfg["ell"])
    bs = [gen_bmo_log(grid)] * m if ell else None
    rep = _THEOREMS[cfg["theorem"]](cfg, grid, K, corpus, family, bs)
    rows = [[rep.theorem, cfg.get("case", ""), m, grid.n, grid.N, cfg["kernel"], ell,
             f"{rep.max_ratio:.6g}"]]
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
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error (bad flag, value or command) is a configuration
        error: exit 1 with one line, not argparse's exit 2."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="multipot")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config")
    for key, (_, kind, flag) in _KEYS.items():
        if flag:
            ap.add_argument(flag, dest=key, **_KINDS[kind][0])
    return ap


def run(cfg: dict) -> int:
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    start = time.monotonic()
    payload, rows, plots = _COMMANDS[command](cfg)
    wall_ms = int((time.monotonic() - start) * 1000)
    rows = [row + [wall_ms] for row in rows]
    _write_report(cfg, payload, rows, plots)
    return 0


def main(argv=None) -> int:
    try:
        return run(_load_config(build_parser().parse_args(argv)))
    except HypothesisUnmet as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
