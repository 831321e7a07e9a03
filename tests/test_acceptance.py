"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite output doubles as
an acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import e_masks_per_cube, log_lambda_samples, spike_tuple, weak_maximal_lhs_at

from multipot import (
    Grid,
    GridFunction,
    Kernel,
    NormSpec,
    condition_d_check,
    cube_family,
    h_alpha,
    integrate,
    luxemburg_norm,
    make_grid,
    parse_weight,
)
from multipot.cli import main as cli_main
from multipot.dyadic import (
    cz_decompose,
    default_cz_base,
    discretization_rhs,
)
from multipot.operators import (
    apply_commutator,
    apply_potential,
    apply_potential_reference,
    maximal,
)
from multipot.orlicz import YoungFunction
from multipot.verify import make_corpus, verify_coifman, verify_weak_maximal
from multipot.weights import gen_bmo_log


def report(num, name, ok):
    print(f"\nacceptance criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def frac(alpha, n=1, m=1):
    return Kernel("fractional", n, m, alpha=alpha)


def test_01_growth_condition_certification():
    start = time.monotonic()
    rep = condition_d_check(frac(0.5), delta=1.0, eps=0.0, k_range=range(-5, 1))
    elapsed = time.monotonic() - start
    expected = 0.5 / (2.0 * (2.0**0.5 - 1.0))
    ok = all(
        abs(r - expected) / expected < 0.02 for r in rep["per_k"].values()
    )
    ok = ok and set(rep["per_k"]) == set(range(-5, 1))
    ok = ok and elapsed < 5.0
    report(1, "growth condition ratio", ok)


def test_02_luxemburg_closed_forms():
    g = make_grid(1, 1.0, 32)
    Q = g.whole_box()
    ok = True
    # constant 1 against e^t - 1: norm is 1/ln 2
    got = luxemburg_norm(
        GridFunction.constant(g, 1.0), Q, NormSpec.orlicz(YoungFunction("exp"))
    )
    ok = ok and abs(got - 1.0 / math.log(2.0)) < 1e-8
    # two-level function against t^2: norm is sqrt(2)
    vals = np.where(g.centers_1d() < 0, 2.0, 0.0)
    got = luxemburg_norm(
        GridFunction(g, vals), Q,
        NormSpec.orlicz(YoungFunction("power-log", p=2.0)),
    )
    ok = ok and abs(got - math.sqrt(2.0)) < 1e-8
    # t^r Young spec against the closed-form L^r path
    rng = np.random.default_rng(0)
    fam = cube_family(g, "centered")
    for _ in range(100):
        r = float(rng.uniform(1.0, 3.0))
        f = GridFunction(g, rng.uniform(0.1, 2.0, size=g.shape))
        Q = fam[int(rng.integers(0, len(fam)))]
        slow = luxemburg_norm(
            f, Q, NormSpec.orlicz(YoungFunction("power-log", p=r)), tol=1e-12
        )
        fast = luxemburg_norm(f, Q, NormSpec.lebesgue(r))
        ok = ok and abs(slow - fast) / fast < 1e-9
    report(2, "Luxemburg norms", ok)


def test_03_operator_oracle_and_speed():
    K = frac(1.0, 1, 2)
    g = make_grid(1, 1.0, 32)
    rng = np.random.default_rng(1)
    fs = [GridFunction(g, rng.uniform(size=g.shape)) for _ in range(2)]
    fast = apply_potential(K, fs)
    slow = apply_potential_reference(K, fs)
    ok = bool(np.max(np.abs(fast.values - slow.values)) < 1e-12)
    # performance at the doubled resolution
    g = make_grid(1, 1.0, 64)
    fs = [GridFunction(g, rng.uniform(size=g.shape)) for _ in range(2)]
    t0 = time.monotonic()
    apply_potential(K, fs)
    t_fast = time.monotonic() - t0
    t0 = time.monotonic()
    apply_potential_reference(K, fs)
    t_slow = time.monotonic() - t0
    ok = ok and t_slow >= 5.0 * t_fast
    report(3, "operator oracle equivalence and speed", ok)


def test_04_commutator_vanishing():
    K = frac(1.0, 1, 2)
    g = make_grid(1, 1.0, 32)
    rng = np.random.default_rng(2)
    ok = True
    for seed in range(10):
        fs = list(make_corpus(g, 2, count=1, seed=seed)[0])
        bs = [GridFunction.constant(g, float(c)) for c in rng.normal(size=2)]
        out = apply_commutator(K, bs, fs)
        ok = ok and float(np.abs(out.values).max()) < 1e-10
    report(4, "constant-symbol commutator vanishing", ok)


def _cz_invariants(g, hs, a):
    cz = cz_decompose(list(hs), a, g)
    m = len(hs)
    vals = cz.maximal_values.values
    cell = g.cell_volume
    ok = bool(cz.levels)
    global_e = np.zeros(g.shape, dtype=int)
    tot_q = tot_e = 0.0
    for lev in cz.levels:
        thr = a**lev.k
        level_mask = np.zeros(g.shape, dtype=int)
        for Q, p, E in zip(lev.cubes, lev.prod_norms, e_masks_per_cube(cz, lev)):
            ok = ok and thr < p <= 2.0 ** (g.n * m) * thr
            level_mask[Q.slices()] += 1
            global_e += E.astype(int)
            tot_q += Q.measure
            tot_e += float(E.sum()) * cell
        ok = ok and level_mask.max() <= 1
        ok = ok and bool(np.array_equal(level_mask.astype(bool), vals > thr))
    ok = ok and global_e.max() <= 1
    ratio = tot_q / tot_e if tot_e > 0 else math.inf
    return ok, ratio


def test_05_cz_invariants_and_stability():
    ok = True
    for m in (1, 2):
        a = default_cz_base(1, m)
        for seed in range(10):
            ratios = {}
            for N in (128, 256):
                g = make_grid(1, 1.0, N)
                inv_ok, ratio = _cz_invariants(g, spike_tuple(g, m, seed), a)
                ok = ok and inv_ok and math.isfinite(ratio)
                ratios[N] = ratio
            ok = ok and abs(ratios[256] - ratios[128]) / ratios[256] < 0.25
    report(5, "CZ decomposition invariants", ok)


def test_06_discretization_ratio_stability():
    K = frac(0.5)
    ok = True
    for q in (0.6, 1.0):
        for ell in (0, 1):
            ratios = {}
            for N in (64, 128):
                g = make_grid(1, 1.0, N)
                f = spike_tuple(g, 1, 0)[0]
                u = GridFunction.constant(g, 1.0)
                b = gen_bmo_log(g)
                a = default_cz_base(1, 1)
                cz = cz_decompose([f], a, g)
                # the commutator sum runs over the cubes selected with u in slot j = 0
                kw = {"czj": cz_decompose([u], a, g), "j": 0} if ell else {}
                if ell == 0:
                    T = apply_potential(K, [f])
                else:
                    T = apply_commutator(K, [b], [f])
                lhs = integrate(T.map(lambda v: np.abs(v) ** q))
                rhs = discretization_rhs(K, [f], u, q, ell, cz, **kw)
                ratios[N] = lhs / rhs
                ok = ok and math.isfinite(ratios[N]) and ratios[N] > 0
                if N == 64:
                    cz2 = cz_decompose([f], a / 2.0, g)
                    kw2 = {"czj": cz_decompose([u], a / 2.0, g), "j": 0} if ell else {}
                    rhs2 = discretization_rhs(K, [f], u, q, ell, cz2, **kw2)
                    sweep = max(rhs, rhs2) / min(rhs, rhs2)
                    ok = ok and sweep < 4.0
            ok = ok and abs(ratios[128] - ratios[64]) / ratios[64] < 0.25
    report(6, "discretization bound ratio", ok)


def test_07_coifman_harness_stability():
    start = time.monotonic()
    K = frac(1.0, 1, 2)
    ok = True
    for wname in ("one", "pow0.3"):
        ratios = {}
        for N in (32, 64):
            g = make_grid(1, 1.0, N)
            fam = cube_family(g, "centered")
            corpus = make_corpus(g, 2, count=10, seed=0)
            w = parse_weight(wname, g)
            rep = verify_coifman("i", 0, 1.0, K, w, corpus, fam)
            ratios[N] = rep.max_ratio
            ok = ok and math.isfinite(ratios[N]) and ratios[N] > 0
        ok = ok and abs(ratios[64] - ratios[32]) / ratios[64] < 0.25
    ok = ok and (time.monotonic() - start) < 600.0
    report(7, "Coifman harness", ok)


def test_08_weak_maximal_harness():
    g = make_grid(1, 1.0, 32)
    fam = cube_family(g, "centered")
    corpus = make_corpus(g, 2, count=5, seed=0)
    one = GridFunction.constant(g, 1.0)
    ok = True
    youngs = (
        YoungFunction("power-log"),  # t
        YoungFunction("power-log", p=1.0, alpha=1.0),
    )
    scalings = (
        lambda Q: 1.0,
        lambda Q: math.sqrt(Q.measure),
    )
    for B in youngs:
        spec, Bm = NormSpec.orlicz(B), B.iterate(2)
        for phi in scalings:
            rep = verify_weak_maximal(phi, B, [one, one], corpus, fam)
            ok = ok and math.isfinite(rep.max_ratio)
            for fs, inst in zip(corpus, rep.instances):
                M = maximal(phi, [spec] * 2, fs, g, fam)
                for points in (64, 128):
                    sampled = weak_maximal_lhs_at(M, one, Bm, 2,
                                                  log_lambda_samples(M, points))
                    # the exact sup is never below a sample, up to rounding
                    ok = ok and inst["lhs"] >= sampled * (1.0 - 1e-12)
                    if sampled > 0:
                        ok = ok and abs(inst["lhs"] - sampled) / sampled <= 0.05
    report(8, "weak-type maximal harness", ok)


def test_09_bessel_kernel_properties():
    K = Kernel("bessel", 1, 1, alpha=0.5)
    ok = all(K.radial(float(s)) > 0 for s in np.logspace(-3, np.log10(6), 30))
    # exponentially damped tail stays bounded
    damped = [K.radial(float(s)) * math.exp(s / 2.0) for s in
              np.linspace(2.0, 6.0, 9)]
    ok = ok and all(math.isfinite(d) and 0 < d < 10.0 for d in damped)
    # near-origin profile comparison sits in one constant band
    Kz = Kernel("bessel", 1, 1, alpha=0.5, T=1e9, Mt=2**14)
    ratios = [
        Kz.radial(float(s)) / h_alpha(0.5, 1, 1, [float(s)])
        for s in np.logspace(-3, 0, 15)
    ]
    ok = ok and all(math.isfinite(r) and r > 0 for r in ratios)
    ok = ok and max(ratios) / min(ratios) < 15.0
    # quadrature truncation refinement
    coarse = Kernel("bessel", 1, 1, alpha=0.5, T=1e3, Mt=4096)
    fine = coarse.with_quadrature(1e4, 16384)
    ok = ok and abs(coarse.radial(0.5) - fine.radial(0.5)) / fine.radial(0.5) < 1e-6
    report(9, "Bessel kernel properties", ok)


def test_10_cli_determinism(tmp_path):
    args = ["verify", "--theorem", "coifman", "--case", "i", "--p", "1.0",
            "--kernel", "frac0.5", "--m", "1", "--N", "16", "--corpus", "3",
            "--seed", "1", "--out-dir", str(tmp_path)]
    ok = cli_main(args) == 0
    first = (tmp_path / "report.json").read_bytes()
    ok = ok and cli_main(args) == 0
    second = (tmp_path / "report.json").read_bytes()
    ok = ok and first == second
    ok = ok and json.loads(first)["result"]["max_ratio"] > 0
    report(10, "verify subcommand determinism", ok)
