"""The benchmark's workloads: inputs from a seed, then one harness pass.

Each workload has a `setup(mp, seed, size)` that builds everything the
harness needs (grid, kernel, weights, corpus, cube family or lattice)
and a `run(mp, inputs)` that is the timed pass and returns one output
row per corpus tuple.  `mp` is a namespace holding a fresh import of the
package's layer modules, so a pass starts with the cold caches a fresh
`multipot` process would have.

The corpus comes from `verify.make_corpus`.  The cost of the
cube-statistics layer grows with the support of the inputs, so instead
of the first `corpus` tuples the corpus is the tuples at evenly spaced
support-size ranks of a pool of `corpus * pool` tuples: every seed gives
different inputs with the same spread of support sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def stratified_corpus(mp, grid, m: int, count: int, pool: int, seed: int) -> list:
    tuples = mp.verify.make_corpus(grid, m, count=count * pool, seed=seed)
    support = [sum(int(np.count_nonzero(f.values)) for f in fs) for fs in tuples]
    order = sorted(range(len(tuples)), key=lambda i: (support[i], i))
    return [tuples[order[pool * k + pool // 2]] for k in range(count)]


def _instances(report) -> list:
    return [[inst["lhs"], inst["rhs"], inst["ratio"]] for inst in report.instances]


@dataclass(frozen=True)
class Workload:
    name: str
    outputs: tuple  # names of the columns of one output row
    size: dict  # default size; a test passes a tiny one

    def setup(self, mp, seed: int, size: dict) -> dict:
        raise NotImplementedError

    def run(self, mp, inputs: dict) -> list:
        raise NotImplementedError


class ControlOrlicz(Workload):
    """`multipot verify --theorem control --ell 1 --kernel frac0.5 --n 1
    --m 1`: weak-quasinorm control, L log L maximal over centred cubes."""

    def setup(self, mp, seed, size):
        grid = mp.grid.Grid(1, 1.0, size["N"])
        return {
            "kernel": mp.kernels.parse_kernel("frac0.5", 1, 1),
            "family": mp.grid.cube_family(grid, "centered"),
            "u": mp.weights.parse_weight("one", grid),
            "bs": [mp.weights.gen_bmo_log(grid)],
            "corpus": stratified_corpus(mp, grid, 1, size["corpus"], size["pool"], seed),
        }

    def run(self, mp, inp):
        rep = mp.verify.verify_control(1, 0.5, inp["kernel"], inp["u"], inp["corpus"],
                                       inp["family"], inp["bs"])
        return _instances(rep)


class BilinearCommutator(Workload):
    """`multipot verify` with theorem fefferman-stein, case iii, ell 1,
    n 1, m 2, kernel frac0.5, p (1.5, 1.5) and weights pow0.3: the m=2
    commutator, three potential applications per tuple."""

    def setup(self, mp, seed, size):
        grid = mp.grid.Grid(1, 1.0, size["N"])
        return {
            "kernel": mp.kernels.parse_kernel("frac0.5", 1, 2),
            "family": mp.grid.cube_family(grid, "centered"),
            "us": [mp.weights.parse_weight("pow0.3", grid) for _ in range(2)],
            "bs": [mp.weights.gen_bmo_log(grid)] * 2,
            "corpus": stratified_corpus(mp, grid, 2, size["corpus"], size["pool"], seed),
        }

    def run(self, mp, inp):
        rep = mp.verify.verify_fefferman_stein("iii", 1, [1.5, 1.5], 0.5, inp["kernel"],
                                               inp["us"], inp["corpus"], inp["family"],
                                               inp["bs"])
        return _instances(rep)


class CzDyadic2d(Workload):
    """Library-level workload on a 2-D grid with m=1: per tuple, CZ decompositions
    with base 2 of f and of u=pow0.3, then the discretization bound with
    kernel frac0.5, q=0.5, ell=1, j=0."""

    def setup(self, mp, seed, size):
        grid = mp.grid.Grid(2, 1.0, size["N"])
        return {
            "kernel": mp.kernels.parse_kernel("frac0.5", 2, 1),
            "lattice": mp.dyadic.DyadicLattice(grid),
            "u": mp.weights.parse_weight("pow0.3", grid),
            "corpus": stratified_corpus(mp, grid, 1, size["corpus"], size["pool"], seed),
        }

    def run(self, mp, inp):
        lat, u = inp["lattice"], inp["u"]
        rows = []
        for fs in inp["corpus"]:
            cz_f = mp.dyadic.cz_decompose(list(fs), 2.0, lat)
            cz_u = mp.dyadic.cz_decompose([u], 2.0, lat)
            rhs = mp.dyadic.discretization_rhs(inp["kernel"], fs, u, 0.5, 1, cz_f, cz_u, j=0)
            rows.append([rhs, *_cz_counts(cz_f), *_cz_counts(cz_u)])
        return rows


def _cz_counts(cz) -> list:
    return [len(cz.levels), sum(len(lev.cubes) for lev in cz.levels)]


WORKLOADS = {
    w.name: w
    for w in (
        ControlOrlicz(
            "control-orlicz",
            ("lhs", "rhs", "ratio"),
            {"N": 128, "corpus": 10, "pool": 16},
        ),
        BilinearCommutator(
            "bilinear-commutator",
            ("lhs", "rhs", "ratio"),
            {"N": 256, "corpus": 10, "pool": 16},
        ),
        CzDyadic2d(
            "cz-dyadic-2d",
            ("rhs", "levels_f", "cubes_f", "levels_u", "cubes_u"),
            {"N": 32, "corpus": 10, "pool": 16},
        ),
    )
}
