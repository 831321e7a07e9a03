import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from conftest import e_masks_per_cube, spike_tuple
from hypothesis import given, settings
from hypothesis import strategies as st

from multipot import (
    Cube,
    CubeSet,
    GridFunction,
    Kernel,
    NormSpec,
    cz_decompose,
    default_cz_base,
    discretization_rhs,
    integrate,
    cube_family,
    luxemburg_norm,
    luxemburg_norms,
    make_grid,
    parse_weight,
    phi_theta,
)
from multipot import dyadic
from multipot.dyadic import CZDecomposition, CZLevel, _cube_terms, _dyadic_tables, _triple_products
from multipot.verify import make_corpus
from multipot.operators import apply_potential


def frac(alpha, n=1, m=1):
    return Kernel("fractional", n, m, alpha=alpha)


class TestM3d:
    def test_constant_interior_value_and_max(self):
        g = make_grid(1, 1.0, 16)
        hs = [GridFunction.constant(g, 2.0), GridFunction.constant(g, 3.0)]
        out = cz_decompose(hs, 2.0, g).maximal_values
        # interior cells see a fully inside triple cube, so the sup is the
        # plain product; near the box edge every 3Q loses mass to the
        # zero extension and the sup drops below it
        assert out.values.max() == pytest.approx(6.0, rel=1e-12)
        mid = g.N // 2
        assert out.values[mid] == pytest.approx(6.0, rel=1e-12)
        assert out.values[0] < 6.0
        assert out.values[0] >= 6.0 / 9.0 - 1e-12

    def test_indicator_support_lower_bound(self):
        g = make_grid(1, 2.0, 16)
        x = g.centers_1d()
        h = GridFunction(g, np.where((0 <= x) & (x < 1), 1.0, 0.0), nonneg=True)
        out = cz_decompose([h], 2.0, g).maximal_values
        sup_cells = np.flatnonzero(h.values > 0)
        assert np.all(out.values[sup_cells] >= 1.0 / 3.0)

    def test_brute_force_oracle(self):
        g = make_grid(1, 1.0, 8)
        rng = np.random.default_rng(0)
        hs = [GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
              for _ in range(2)]
        got = cz_decompose(hs, 2.0, g).maximal_values
        # independent direct computation
        expected = np.zeros(g.shape)
        fam = cube_family(g, "dyadic")
        for Q, Q3 in zip(fam, fam.dilate3()):
            prod = 1.0
            for h in hs:
                sl = Q3.slices()[0]
                prod *= h.values[sl].sum() * g.cell_volume / Q3.measure
            sl = Q.slices()
            expected[sl] = np.maximum(expected[sl], prod)
        np.testing.assert_allclose(got.values, expected, rtol=1e-12)

    def test_monotone(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(1)
        h = GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        bigger = GridFunction(g, h.values + rng.uniform(size=g.shape), nonneg=True)
        lo, hi = (cz_decompose([x], 2.0, g).maximal_values.values for x in (h, bigger))
        assert np.all(lo <= hi + 1e-14)


class TestCzDecompose:
    def test_invariants_on_spike_tuples(self):
        for m in (1, 2):
            a = default_cz_base(1, m)
            g = make_grid(1, 1.0, 128)
            for seed in range(3):
                hs = spike_tuple(g, m, seed)
                cz = cz_decompose(hs, a, g)
                assert cz.levels
                vals = cz.maximal_values.values
                global_e = np.zeros(g.shape, dtype=int)
                for lev in cz.levels:
                    thr = a**lev.k
                    # per-level cubes disjoint, selection bound two-sided
                    level_mask = np.zeros(g.shape, dtype=int)
                    for Q, p, E in zip(lev.cubes, lev.prod_norms, e_masks_per_cube(cz, lev)):
                        assert thr < p <= 2.0 ** (g.n * m) * thr
                        level_mask[Q.slices()] += 1
                        assert np.all(E[~np.asarray(
                            _mask_of(Q, g), dtype=bool)] == 0)
                        global_e += E.astype(int)
                    assert level_mask.max() <= 1
                    # union identity: selected cubes tile {m3d > a^k}
                    np.testing.assert_array_equal(
                        level_mask.astype(bool), vals > thr
                    )
                assert global_e.max() <= 1

    def test_constant_input(self):
        g = make_grid(1, 1.0, 16)
        h = GridFunction.constant(g, 5.0)
        cz = cz_decompose([h], 8.0, g)
        for lev in cz.levels:
            thr = 8.0**lev.k
            for p in lev.prod_norms:
                assert thr < p <= 2.0 * thr

    def test_values_in_one_band_give_a_level(self):
        # m3d runs from 5/3 to 5, all inside (8^0, 8^1]
        g = make_grid(1, 1.0, 16)
        h = GridFunction.constant(g, 5.0)
        cz = cz_decompose([h], 8.0, g)
        assert [lev.k for lev in cz.levels] == [0]
        covered = np.zeros(g.shape, dtype=bool)
        for Q in cz.levels[0].cubes:
            covered[Q.slices()] = True
        np.testing.assert_array_equal(covered, cz.maximal_values.values > 1.0)
        rhs = discretization_rhs(frac(0.5), [h], GridFunction.constant(g, 1.0), 1.0, 0, cz)
        assert rhs > 0

    def test_two_bumps_separate(self):
        g = make_grid(1, 1.0, 64)
        x = g.centers_1d()
        vals = 0.01 + 5.0 * (np.exp(-((x + 0.6) / 0.05) ** 2)
                             + np.exp(-((x - 0.6) / 0.05) ** 2))
        h = GridFunction(g, vals, nonneg=True)
        cz = cz_decompose([h], 8.0, g)
        top = cz.levels[-1]
        assert len(top.cubes) >= 2
        corners = sorted(-g.L + Q.lo[0] * g.h for Q in top.cubes)
        assert corners[-1] - corners[0] > 0.5

    def test_bad_base(self):
        g = make_grid(1, 1.0, 16)
        with pytest.raises(ValueError):
            cz_decompose([GridFunction.constant(g, 1.0)], 1.0, g)

    def test_zero_input_rejected(self):
        g = make_grid(1, 1.0, 16)
        with pytest.raises(ValueError):
            cz_decompose([GridFunction.constant(g, 0.0)], 8.0, g)

    def test_json_export(self):
        g = make_grid(1, 1.0, 64)
        cz = cz_decompose(spike_tuple(g, 1, 0), 8.0, g)
        doc = json.loads(cz.to_json())
        assert doc["a"] == 8.0
        assert doc["levels"]
        lev = doc["levels"][0]
        assert set(lev) == {"k", "cubes", "E_masks"}
        assert set(lev["cubes"][0]) == {"corner", "side", "prod_norm"}
        # masks round-trip through the run-length encoding
        for runs, E in zip(lev["E_masks"], e_masks_per_cube(cz, cz.levels[0])):
            flat = np.zeros(E.size, dtype=bool)
            for start, length in runs:
                flat[start:start + length] = True
            np.testing.assert_array_equal(flat, E.ravel())


class TestDiscretizationRhs:
    def test_zero_slot_gives_zero(self):
        g = make_grid(1, 1.0, 32)
        K = frac(0.5)
        z = GridFunction.constant(g, 0.0)
        u = GridFunction.constant(g, 1.0)
        cz = cz_decompose([z, GridFunction.constant(g, 1.0)], 32.0, g)
        got = discretization_rhs(frac(1.0, 1, 2), [z, GridFunction.constant(g, 1.0)],
                                 u, 1.0, 0, cz)
        assert got == 0.0

    def test_ratio_finite_simple_case(self):
        g = make_grid(1, 1.0, 64)
        K = frac(0.5)
        f = spike_tuple(g, 1, 0)[0]
        u = GridFunction.constant(g, 1.0)
        cz = cz_decompose([f], default_cz_base(1, 1), g)
        rhs = discretization_rhs(K, [f], u, 1.0, 0, cz)
        T = apply_potential(K, [f])
        lhs = integrate(T.map(np.abs))
        assert rhs > 0
        assert math.isfinite(lhs / rhs)

    def test_parameter_validation(self):
        g = make_grid(1, 1.0, 32)
        f = spike_tuple(g, 1, 0)[0]
        u = GridFunction.constant(g, 1.0)
        cz = cz_decompose([f], 8.0, g)
        K = frac(0.5)
        with pytest.raises(ValueError):
            discretization_rhs(K, [f], u, 1.5, 0, cz)
        with pytest.raises(ValueError):
            discretization_rhs(K, [f], u, 1.0, 2, cz)
        with pytest.raises(ValueError):
            discretization_rhs(K, [f], u, 1.0, 1, cz)  # missing czj

    def test_decompositions_of_other_functions_raise(self):
        g = make_grid(1, 1.0, 32)
        f = spike_tuple(g, 1, 0)[0]
        u = parse_weight("pow0.3", g)
        cz_f, cz_u = cz_decompose([f], 2.0, g), cz_decompose([u], 2.0, g)
        K = frac(0.5)
        with pytest.raises(ValueError, match="czj"):
            discretization_rhs(K, [f], u, 0.5, 1, cz_f, cz_f, j=0)
        with pytest.raises(ValueError, match="cz0"):
            discretization_rhs(K, [f], u, 0.5, 0, cz_u)
        with pytest.raises(ValueError, match="cz0"):
            discretization_rhs(K, [f, f], u, 0.5, 0, cz_f)
        # equal values in other GridFunctions are the same functions
        copies = [GridFunction(g, h.values.copy()) for h in (f, u)]
        want = discretization_rhs(K, [f], u, 0.5, 1, cz_f, cz_u, j=0)
        assert discretization_rhs(K, copies[:1], copies[1], 0.5, 1, cz_f, cz_u, j=0) == want


class _BoxSummer:
    """O(1) sums of a sampled function over aligned index boxes."""

    def __init__(self, values):
        p = values
        for ax in range(values.ndim):
            p = np.cumsum(p, axis=ax)
        self.prefix = np.pad(p, [(1, 0)] * values.ndim)
        self.shape = values.shape

    def box_sum(self, lo, hi):
        # half-open [lo, hi) per axis, clipped to the array
        lo = [max(l, 0) for l in lo]
        hi = [min(h, s) for h, s in zip(hi, self.shape)]
        if any(h <= l for l, h in zip(lo, hi)):
            return 0.0
        total = 0.0
        ndim = len(lo)
        for corner in np.ndindex(*((2,) * ndim)):
            idx = tuple(h if c else l for c, l, h in zip(corner, lo, hi))
            sign = (-1) ** (ndim - sum(corner))
            total += sign * self.prefix[idx]
        return float(total)


def _triple_average_products(hs, grid):
    """Per-cube oracle: prod_i (avg of h_i over 3Q) keyed (lo, w)."""
    summers = [_BoxSummer(h.values) for h in hs]
    cellvol = grid.cell_volume
    out = {}
    fam = cube_family(grid, "dyadic")
    for Q, Q3 in zip(fam, fam.dilate3()):
        meas = Q3.measure
        lo = Q3.lo
        hi = tuple(l + Q3.w for l in lo)
        prod = 1.0
        for s in summers:
            prod *= s.box_sum(lo, hi) * cellvol / meas
        out[(Q.lo, Q.w)] = prod
    return out


def _m3d_per_cube(prods, grid):
    out = np.zeros(grid.shape)
    for Q in cube_family(grid, "dyadic"):
        sl = Q.slices()
        np.maximum(out[sl], prods[(Q.lo, Q.w)], out=out[sl])
    return out


def _stack_walk(prods, grid, thr):
    """Maximal dyadic cubes with product > thr, sorted by (-w, lo)."""
    selected = []
    stack = [grid.whole_box()]
    while stack:
        Q = stack.pop()
        if prods[(Q.lo, Q.w)] > thr:
            selected.append(Q)
        elif Q.w > 1:  # the 2^n dyadic children
            half = Q.w // 2
            stack.extend(Cube(grid, tuple(l + o * half for l, o in zip(Q.lo, off)), half)
                         for off in np.ndindex(*((2,) * grid.n)))
    selected.sort(key=lambda Q: (-Q.w, Q.lo))
    return selected


def _inputs(n, m, N, kind, seed):
    g = make_grid(n, 1.0, N)
    rng = np.random.default_rng(seed)
    hs = []
    for _ in range(m):
        if kind == "constant":
            # every fully inside triple averages to 2 = a exactly
            vals = np.full(g.shape, 2.0)
        elif kind == "sparse":
            vals = rng.uniform(0.0, 8.0, size=g.shape) * (rng.uniform(size=g.shape) < 0.1)
            vals[tuple(rng.integers(0, N, size=n))] = 1.0
        else:
            vals = rng.uniform(0.0, 4.0, size=g.shape)
        hs.append(GridFunction(g, vals, nonneg=True))
    return g, hs


# the largest N per dimension that keeps the per-cube oracles fast
_MAX_LOG2_N = {1: 6, 2: 4, 3: 3}


class TestPyramidAgainstPerCubeLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([1, 2]),
        log2_N=st.integers(2, 6),
        kind=st.sampled_from(["uniform", "sparse", "constant"]),
        seed=st.integers(0, 2**16),
    )
    def test_pyramid_m3d_and_selection(self, n, m, log2_N, kind, seed):
        g, hs = _inputs(n, m, 2 ** min(log2_N, _MAX_LOG2_N[n]), kind, seed)
        prods = _triple_average_products(hs, g)
        products = _triple_products(hs, g)
        assert len(products) == len(cube_family(g, "dyadic"))
        for Q, p in zip(cube_family(g, "dyadic"), products.tolist()):
            assert p == prods[(Q.lo, Q.w)]
        expected_m3d = _m3d_per_cube(prods, g)
        a = 2.0
        cz = cz_decompose(hs, a, g)
        np.testing.assert_array_equal(cz.maximal_values.values, expected_m3d)
        # the k band can be empty, e.g. for a constant input at N = 4
        ks = [lev.k for lev in cz.levels]
        for k in range(min(ks, default=0), max(ks, default=-1) + 1):
            if k not in ks:
                assert _stack_walk(prods, g, a**k) == []
        for lev in cz.levels:
            expected = _stack_walk(prods, g, a**lev.k)
            assert [(Q.lo, Q.w) for Q in lev.cubes] == [(Q.lo, Q.w) for Q in expected]
            assert lev.prod_norms == [prods[(Q.lo, Q.w)] for Q in expected]
            assert all(type(p) is float for p in lev.prod_norms)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_products_at_the_threshold_are_not_selected(self, n, m):
        g, hs = _inputs(n, m, 8, "constant", 0)
        prods = _triple_average_products(hs, g)
        # interior triples sit exactly at a^m, which strict > leaves out
        assert max(prods.values()) == 2.0**m
        cz = cz_decompose(hs, 2.0, g)
        assert all(lev.k < m for lev in cz.levels)
        for lev in cz.levels:
            expected = _stack_walk(prods, g, 2.0**lev.k)
            assert [(Q.lo, Q.w) for Q in lev.cubes] == [(Q.lo, Q.w) for Q in expected]


def _pyramid(hs, grid):
    """The triple-average products as one array per level, level l with
    (2^l)^n products indexed by the corner of Q in units of its width."""
    products, levels, start = _triple_products(hs, grid), [], 0
    for level in range(grid.num_levels):
        side = 1 << level
        levels.append(products[start : start + side**grid.n].reshape((side,) * grid.n))
        start += side**grid.n
    return levels


class TestDyadicTables:
    @pytest.mark.parametrize("n,N", [(1, 4), (1, 64), (2, 4), (2, 16), (3, 4), (3, 8)])
    def test_against_cube_family(self, n, N):
        g = make_grid(n, 1.3, N)
        starts, cells, w, meas, corners, zpos = _dyadic_tables(g)
        family = cube_family(g, "dyadic")
        assert all(a.dtype == np.int32 for a in (cells, w, corners, zpos))
        assert not any(a.flags.writeable for a in (cells, w, meas, corners, zpos))
        assert cells.tolist() == np.ravel_multi_index(family.lo.T, g.shape).tolist()
        assert w.tolist() == family.w.tolist()
        assert starts == np.flatnonzero(np.diff(family.w, prepend=0, append=0)).tolist()  # where each width starts
        assert meas.tolist() == [Q3.measure for Q3 in family.dilate3()]
        assert sorted(zpos.tolist()) == list(range(N**n))
        # the cells of a cube fill the Morton positions from its corner cell's on
        for Q, z in zip(family, zpos[cells].tolist()):
            assert sorted(zpos[_mask_of(Q, g).ravel()].tolist()) == list(range(z, z + Q.w**n))
        # the corners of 3Q, clipped into the (N + 1)^n summed-area table
        for corner, idx in zip(np.ndindex(*((2,) * n)), corners):
            for Q, k in zip(family, idx.tolist()):
                want = [min(max(l - Q.w if c == 0 else l + 2 * Q.w, 0), N) for l, c in zip(Q.lo, corner)]
                assert np.unravel_index(k, (N + 1,) * n) == tuple(want)

    def test_cached_per_grid(self):
        g = make_grid(2, 1.0, 8)
        assert _dyadic_tables(g) is _dyadic_tables(make_grid(2, 1.0, 8))
        assert _dyadic_tables(g) is not _dyadic_tables(make_grid(2, 1.0, 16))


def cz_per_threshold(hs, a, grid, max_levels=64):
    """cz_decompose as a loop over the thresholds a^k: per k, the cubes of
    every level with anc <= a^k < prod, coarse to fine, and one (cubes x
    grid) mask tensor for E.  Returns (k, lo, w, prod_norms, e_masks) per
    level that selects a cube."""
    pyramid = _pyramid(hs, grid)
    vals = cz_decompose(hs, 2.0, grid).maximal_values.values
    pos = vals[vals > 0]
    vmin, vmax = float(pos.min()), float(vals.max())
    k_lo = math.ceil(math.log(vmin) / math.log(a) - 1e-12)
    k_hi = math.floor(math.log(vmax) / math.log(a) + 1e-12)
    if a**k_hi >= vmax:
        k_hi -= 1
    ks = list(range(min(k_lo, k_hi), k_hi + 1))[-max_levels:]
    ancestors = [np.full((1,) * grid.n, -np.inf)]
    for prod in pyramid[:-1]:
        up = np.maximum(ancestors[-1], prod)
        for ax in range(grid.n):
            up = np.repeat(up, 2, axis=ax)
        ancestors.append(up)
    levels = []
    for k in ks:
        thr = a**k
        lo, ws, prod_norms = [], [], []
        for level, (prod, anc) in enumerate(zip(pyramid, ancestors)):
            idx = np.nonzero((prod > thr) & (anc <= thr))
            w = grid.N >> level
            lo += (np.stack(idx, axis=1) * w).tolist()
            ws += [w] * idx[0].size
            prod_norms.extend(prod[idx].tolist())
        if not lo:
            continue
        e = np.broadcast_to(vals <= a ** (k + 1), (len(lo),) + grid.shape).copy()
        for ax, corner in enumerate(np.array(lo).T):
            inside = (corner[:, None] <= np.arange(grid.N)) & (np.arange(grid.N) < (corner + ws)[:, None])
            e &= inside.reshape((-1,) + (1,) * ax + (grid.N,) + (1,) * (grid.n - ax - 1))
        levels.append((k, lo, ws, prod_norms, list(e)))
    return levels


def _tie_heavy(n, m, N, seed, kind):
    """Data whose products land on the thresholds 2^k: powers of two, or a
    constant 2, with zeros between them for kind 'pow2'."""
    g = make_grid(n, 1.0, N)
    rng = np.random.default_rng(seed)
    hs = []
    for _ in range(m):
        if kind == "pow2":
            vals = 2.0 ** rng.integers(-3, 4, g.shape) * (rng.uniform(size=g.shape) < 0.5)
            vals[(0,) * n] = 1.0
        else:
            vals = np.full(g.shape, 2.0)
        hs.append(GridFunction(g, vals, nonneg=True))
    return g, hs


class TestCzAgainstPerThresholdLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([1, 2]),
        log2_N=st.integers(2, 6),
        kind=st.sampled_from(["uniform", "sparse", "pow2", "constant"]),
        a=st.sampled_from([1.5, 2.0, 4.0, None]),
        max_levels=st.sampled_from([64, 1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_levels_cubes_and_carved_sets(self, n, m, log2_N, kind, a, max_levels, seed):
        N = 2 ** min(log2_N, _MAX_LOG2_N[n])
        if kind in ("pow2", "constant"):
            g, hs = _tie_heavy(n, m, N, seed, kind)
        else:
            g, hs = _inputs(n, m, N, kind, seed)
        a = default_cz_base(n, m) if a is None else a
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dyadic, "_MAX_CZ_LEVELS", max_levels)
            cz = cz_decompose(hs, a, g)
        expected = cz_per_threshold(hs, a, g, max_levels)
        assert len(cz.levels) == len(expected)
        for lev, (k, lo, ws, prod_norms, e_masks) in zip(cz.levels, expected):
            assert lev.k == k
            assert lev.cubes.lo.tolist() == lo and lev.cubes.w.tolist() == ws
            assert lev.prod_norms == prod_norms
            assert all(type(p) is float for p in lev.prod_norms)
            assert lev.e_counts.tolist() == [int(E.sum()) for E in e_masks]
            below_next = cz.maximal_values.values <= a ** (k + 1)  # the E mask of to_json
            for Q, want in zip(lev.cubes, e_masks):
                np.testing.assert_array_equal(below_next[Q.slices()], want[Q.slices()])


def _rle(mask):
    """Run-length encoding of a flattened boolean mask: [start, length] runs."""
    idx = np.flatnonzero(np.diff(np.concatenate([[0], np.asarray(mask).ravel().view(np.int8), [0]])))
    return [[int(start), int(stop - start)] for start, stop in zip(idx[::2], idx[1::2])]


def to_json_per_cube(cz):
    """CZDecomposition.to_json with one full-grid mask per selected cube,
    run-length encoded over the whole grid."""
    return json.dumps({
        "a": cz.a,
        "levels": [{
            "k": lev.k,
            "cubes": [{"corner": [-cz.grid.L + l * cz.grid.h for l in Q.lo], "side": Q.side, "prod_norm": p}
                      for Q, p in zip(lev.cubes, lev.prod_norms)],
            "E_masks": [_rle(E) for E in e_masks_per_cube(cz, lev)],
        } for lev in cz.levels],
    }, sort_keys=True)


class TestToJsonAgainstFullGridMasks:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([1, 2]),
        log2_N=st.integers(2, 6),
        kind=st.sampled_from(["uniform", "sparse", "pow2", "constant"]),
        a=st.sampled_from([1.5, 2.0, 8.0, None]),
        L=st.sampled_from([1.0, 1.3]),
        seed=st.integers(0, 2**16),
    )
    def test_decompositions(self, n, m, log2_N, kind, a, L, seed):
        N = 2 ** min(log2_N, _MAX_LOG2_N[n])
        if kind in ("pow2", "constant"):
            _, hs = _tie_heavy(n, m, N, seed, kind)
        else:
            _, hs = _inputs(n, m, N, kind, seed)
        g = make_grid(n, L, N)  # the corners and sides scale with L
        hs = [GridFunction(g, h.values, nonneg=True) for h in hs]
        cz = cz_decompose(hs, default_cz_base(n, m) if a is None else a, g)
        assert cz.to_json() == to_json_per_cube(cz)

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 16), (3, 8)])
    def test_constant_input_selects_the_whole_box(self, n, N):
        # M runs from 1.1 (the box) to 1.1 * 3^n, all inside (1, 4^n]
        g = make_grid(n, 1.0, N)
        cz = cz_decompose([GridFunction.constant(g, 1.1 * 3**n)], 4.0**n, g)
        assert cz.levels[0].cubes.w.tolist() == [N]
        assert json.loads(cz.to_json())["levels"][0]["E_masks"] == [[[0, N**n]]]
        assert cz.to_json() == to_json_per_cube(cz)

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("density", [0.2, 0.9, 1.0])
    def test_runs_across_grid_rows(self, n, N, density):
        # cubes of width N and N/2; in a width-N cube a run goes on from
        # the end of one grid row to the start of the next
        g = make_grid(n, 1.0, N)
        vals = np.where(np.random.default_rng(N).uniform(size=g.shape) < density, 1.0, 4.0)
        cubes = CubeSet(g, [[0] * n, [N // 2] * n, [0] * (n - 1) + [N // 2]], [N, N // 2, N // 2])
        # M > a^(k+1) = 2 where vals is 4; to_json reads no counts and no functions
        lev = CZLevel(0, cubes, [3.0] * 3, np.zeros(3, dtype=np.int64))
        cz = CZDecomposition(2.0, g, [lev], GridFunction(g, vals, nonneg=True), [])
        assert cz.to_json() == to_json_per_cube(cz)
        if density == 1.0:
            assert json.loads(cz.to_json())["levels"][0]["E_masks"][0] == [[0, N**n]]


def all_cubes(cz):
    """(k, Q, prod_norm, E_Q) for every selected cube, level by level."""
    for lev in cz.levels:
        yield from ((lev.k, Q, p, E) for Q, p, E in zip(lev.cubes, lev.prod_norms, e_masks_per_cube(cz, lev)))


def _rhs_per_cube(K, fs, u, q, ell, cz0, czj=None, j=None):
    """discretization_rhs with one luxemburg_norm call per cube and factor."""
    cellvol = cz0.grid.cell_volume
    uq = GridFunction(cz0.grid, u.values**q)
    L1 = NormSpec.lebesgue(1.0)
    total = 0.0
    for _, Q, _, E in all_cubes(cz0):
        esize = float(E.sum()) * cellvol
        if esize == 0.0:
            continue
        Q3 = CubeSet.of(Q.grid, [Q]).dilate3()[0]
        term = phi_theta(K, q, Q.side) ** q
        term *= luxemburg_norm(uq, Q3, NormSpec.power_log(1.0, ell * q))
        for f in fs:
            term *= luxemburg_norm(f, Q3, L1) ** q
        total += term * esize
    if ell == 1:
        for _, Q, _, E in all_cubes(czj):
            esize = float(E.sum()) * cellvol
            if esize == 0.0:
                continue
            Q3 = CubeSet.of(Q.grid, [Q]).dilate3()[0]
            term = phi_theta(K, q, Q.side) ** q
            term *= luxemburg_norm(u, Q3, L1) ** q
            for i, f in enumerate(fs):
                spec = NormSpec.power_log(1.0, 1.0 if i == j else 0.0)
                term *= luxemburg_norm(f, Q3, spec) ** q
            total += term * esize
    return total


class TestDiscretizationRhsBatched:
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n,m,N", [(1, 1, 64), (1, 2, 32), (2, 1, 16), (2, 2, 8)])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_matches_per_cube_norms(self, ell, n, m, N, q):
        g, fs = _inputs(n, m, N, "uniform", N + m)
        K = Kernel("fractional", n, m, alpha=0.5)
        rng = np.random.default_rng(7)
        u = GridFunction(g, rng.uniform(0.5, 3.0, size=g.shape), nonneg=True)
        cz0 = cz_decompose(fs, 2.0, g)
        czj = cz_decompose([u] + fs[1:], 2.0, g)
        # data filling the box gives selected cubes at its edge, whose
        # triples are clipped
        # 3Q has corner lo - w and width 3w, so it is clipped where it leaves [0, N)
        clipped = [any(l < Q.w or l + 2 * Q.w > N for l in Q.lo) for _, Q, _, E in all_cubes(cz0) if E.any()]
        assert any(clipped) and not all(clipped)
        got = discretization_rhs(K, fs, u, q, ell, cz0, czj, j=0)
        expected = _rhs_per_cube(K, fs, u, q, ell, cz0, czj, j=0)
        assert expected > 0
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,m,N", [(1, 1, 64), (1, 2, 32), (2, 1, 16), (2, 2, 8)])
def test_discretization_rhs_matches_recording(n, m, N):
    # recorded when every L^1 factor was its own luxemburg_norms call
    rows = json.loads((Path(__file__).parent / "data" / "discretization_rhs_pow0.3.json").read_text())
    rows = [r for r in rows if (r["n"], r["m"], r["N"]) == (n, m, N)]
    assert len(rows) == 8
    g = make_grid(n, 1.0, N)
    K = Kernel("fractional", n, m, alpha=0.5)
    u = parse_weight("pow0.3", g)
    for seed in (0, 1):
        fs = list(make_corpus(g, m, count=1, seed=seed)[0])
        cz0 = cz_decompose(fs, 2.0, g)
        czj = cz_decompose([u] + fs[1:], 2.0, g)
        for r in (r for r in rows if r["seed"] == seed):
            got = discretization_rhs(K, fs, u, r["q"], r["ell"], cz0, czj, j=0)
            assert got == pytest.approx(r["rhs"], rel=1e-12)


def _mask_of(Q, grid):
    out = np.zeros(grid.shape, dtype=bool)
    out[Q.slices()] = True
    return out


def cube_terms_per_cube(K, q, cz, g, spec, power):
    """_cube_terms with |E|, phi_theta, the product and the triple taken cube by cube."""
    cellvol = cz.grid.cell_volume
    cubes, prod_norms, esizes = [], [], []
    for _, Q, p, E in all_cubes(cz):
        esize = float(E.sum()) * cellvol
        if esize != 0.0:
            cubes.append(Q)
            prod_norms.append(p)
            esizes.append(esize)
    terms = np.array([phi_theta(K, q, Q.side) ** q for Q in cubes])
    terms *= np.array(prod_norms) ** q
    triples = CubeSet.of(cz.grid, cubes).dilate3()
    terms *= luxemburg_norms(g, triples, spec) ** power
    return terms * np.array(esizes)


def _rhs_factors(fs, u, q, ell, j):
    """The (g, spec, power) factors discretization_rhs hands to _cube_terms:
    the L^1 factors are the products of the decompositions."""
    uq = GridFunction(u.grid, u.values**q)
    return (uq, NormSpec.power_log(1.0, ell * q), 1.0), (fs[j], NormSpec.power_log(1.0, 1.0), q)


class TestCzArraysAgainstPerCubeLoops:
    @pytest.mark.parametrize("kind", ["uniform", "sparse"])
    @pytest.mark.parametrize("n,m,N", [(1, 1, 64), (1, 2, 32), (2, 1, 16), (2, 2, 8), (3, 1, 8)])
    def test_e_masks_and_cube_terms(self, n, m, N, kind):
        g, fs = _inputs(n, m, N, kind, 11 * N + m)
        rng = np.random.default_rng(N)
        u = GridFunction(g, rng.uniform(0.5, 3.0, size=g.shape), nonneg=True)
        cz0 = cz_decompose(fs, 2.0, g)
        czj = cz_decompose([u] + fs[1:], 2.0, g)
        assert cz0.levels and czj.levels
        for cz in (cz0, czj):
            for lev in cz.levels:
                assert isinstance(lev.cubes, CubeSet)
                assert len(lev.e_counts) == len(lev.cubes)
                for count, expected in zip(lev.e_counts, e_masks_per_cube(cz, lev)):
                    assert count == np.count_nonzero(expected)
        K = Kernel("fractional", n, m, alpha=0.5)
        for q in (0.5, 1.0):
            for ell in (0, 1):
                first, second = _rhs_factors(fs, u, q, ell, 0)
                for cz, factor in [(cz0, first)] + [(czj, second)] * ell:
                    got = _cube_terms(K, q, [(cz, *factor)])
                    expected = cube_terms_per_cube(K, q, cz, *factor)
                    assert got.size > 0
                    np.testing.assert_array_equal(got, expected)

    def test_empty_carved_sets_are_skipped(self):
        g, fs = _inputs(1, 1, 32, "uniform", 5)
        cz = cz_decompose(fs, 2.0, g)
        K = frac(0.5)
        for lev in cz.levels:
            lev.e_counts = np.zeros_like(lev.e_counts)
        cz.levels[0].e_counts[0] = g.N
        got = _cube_terms(K, 1.0, [(cz, fs[0], NormSpec.lebesgue(1.0), 1.0)])
        Q = cz.levels[0].cubes[0]
        norm = luxemburg_norms(fs[0], CubeSet.of(g, [Q]).dilate3(), NormSpec.lebesgue(1.0))[0]
        assert got.shape == (1,)
        assert got[0] == phi_theta(K, 1.0, Q.side) * cz.levels[0].prod_norms[0] * norm * (g.N * g.cell_volume)

    def test_hand_built_levels_with_cube_lists(self):
        g, fs = _inputs(2, 1, 16, "uniform", 9)
        cz = cz_decompose(fs, 2.0, g)
        K = frac(0.5, 2)
        factor = (fs[0], NormSpec.power_log(1.0, 1.0), 0.5)
        expected = _cube_terms(K, 0.5, [(cz, *factor)])
        for lev in cz.levels:
            lev.cubes = list(lev.cubes)
        np.testing.assert_array_equal(_cube_terms(K, 0.5, [(cz, *factor)]), expected)

    def test_factors_share_one_norm_call(self, monkeypatch):
        g, fs = _inputs(2, 1, 16, "uniform", 9)
        u = parse_weight("pow0.3", g)
        cz0, czj = cz_decompose(fs, 2.0, g), cz_decompose([u], 2.0, g)
        K = frac(0.5, 2)
        first, second = _rhs_factors(fs, u, 0.5, 1, 0)
        expected = np.concatenate([cube_terms_per_cube(K, 0.5, cz0, *first),
                                   cube_terms_per_cube(K, 0.5, czj, *second)])
        calls, norms = [], dyadic.luxemburg_norms
        monkeypatch.setattr(dyadic, "luxemburg_norms", lambda *a, **k: calls.append(a) or norms(*a, **k))
        np.testing.assert_array_equal(_cube_terms(K, 0.5, [(cz0, *first), (czj, *second)]), expected)
        assert len(calls) == 1
        # a factor without cubes adds no rows
        empty = CZDecomposition(2.0, g, [], cz0.maximal_values, fs)
        np.testing.assert_array_equal(_cube_terms(K, 0.5, [(empty, *first), (czj, *second)]),
                                      cube_terms_per_cube(K, 0.5, czj, *second))
        assert _cube_terms(K, 0.5, [(empty, *first)]).shape == (0,)
        calls.clear()
        discretization_rhs(K, fs, u, 0.5, 1, cz0, czj, j=0)
        assert len(calls) == 1


class TestCzMemo:
    @pytest.fixture
    def decompositions(self, monkeypatch):
        """An empty memo, and a list that gets one entry per decomposition made."""
        made, decompose = [], dyadic._decompose
        monkeypatch.setattr(dyadic, "_MEMO", OrderedDict())
        monkeypatch.setattr(dyadic, "_decompose", lambda *a: made.append(a) or decompose(*a))
        return made

    def test_equal_values_hit(self, decompositions):
        g, fs = _inputs(2, 2, 16, "uniform", 4)
        first = cz_decompose(fs, 2.0, g)
        copies = [GridFunction(g, f.values.copy()) for f in fs]
        second = cz_decompose(copies, 2.0, g)
        assert len(decompositions) == 1
        assert first.functions == fs and second.functions == copies
        assert second.to_json() == first.to_json()
        for x, y in zip(first.levels, second.levels):
            assert x is not y and x.prod_norms is not y.prod_norms
            assert x.e_counts is y.e_counts and not y.e_counts.flags.writeable
            assert not (y.cubes.lo.flags.writeable or y.cubes.w.flags.writeable)
        assert not second.maximal_values.values.flags.writeable

    def test_a_caller_mutation_does_not_reach_the_next(self, decompositions):
        g, fs = _inputs(1, 1, 64, "sparse", 5)
        first = cz_decompose(fs, 2.0, g)
        want = first.to_json()
        levels = [(lev.k, lev.cubes.lo.copy(), list(lev.prod_norms), lev.e_counts.copy()) for lev in first.levels]
        with pytest.raises(ValueError):
            first.levels[0].e_counts[0] = 0
        first.levels[0].prod_norms[0] = -1.0
        first.levels[0].e_counts = np.zeros_like(first.levels[0].e_counts)
        first.levels[-1].cubes = list(first.levels[-1].cubes)[:1]
        first.levels.pop(0)
        again = cz_decompose(fs, 2.0, g)
        assert len(decompositions) == 1 and again.to_json() == want
        for lev, (k, lo, prod_norms, e_counts) in zip(again.levels, levels, strict=True):
            assert lev.k == k and lev.prod_norms == prod_norms
            np.testing.assert_array_equal(lev.cubes.lo, lo)
            np.testing.assert_array_equal(lev.e_counts, e_counts)

    def test_another_level_cap_or_base_misses(self, decompositions, monkeypatch):
        g, fs = _inputs(2, 1, 16, "uniform", 6)
        wide, cap = cz_decompose(fs, 1.5, g), dyadic._MAX_CZ_LEVELS
        monkeypatch.setattr(dyadic, "_MAX_CZ_LEVELS", 1)
        capped = cz_decompose(fs, 1.5, g)
        other_base = cz_decompose(fs, 2.0, g)
        assert len(decompositions) == 3
        assert len(wide.levels) > 1 and len(capped.levels) == 1 and capped.levels[0].k == wide.levels[-1].k
        assert other_base.to_json() != wide.to_json()
        monkeypatch.setattr(dyadic, "_MAX_CZ_LEVELS", cap)
        assert cz_decompose(fs, 1.5, g).to_json() == wide.to_json() and len(decompositions) == 3

    def test_keeps_the_last_few(self, decompositions):
        g = make_grid(1, 1.0, 16)
        fs = [GridFunction(g, np.full(g.shape, 1.0 + i)) for i in range(dyadic._MEMO_SIZE + 1)]
        for f in fs:
            cz_decompose([f], 2.0, g)
        assert len(dyadic._MEMO) == dyadic._MEMO_SIZE
        cz_decompose([fs[-1]], 2.0, g)  # the last is kept
        assert len(decompositions) == len(fs)
        cz_decompose([fs[0]], 2.0, g)  # the first was dropped
        assert len(decompositions) == len(fs) + 1


class TestConstructionsPerWidth:
    def test_cz_and_discretization_build_a_few_cubes_per_width(self, cube_constructions):
        # one corpus tuple on the 2-D N=32 grid: about 100 selected cubes
        g = make_grid(2, 1.0, 32)
        (f,) = make_corpus(g, 1, count=4, seed=3)[2]
        u = parse_weight("pow0.3", g)
        cube_constructions.clear()
        cz0 = cz_decompose([f], 2.0, g)
        czj = cz_decompose([u], 2.0, g)
        rhs = discretization_rhs(frac(0.5, 2), [f], u, 0.5, 1, cz0, czj, j=0)
        selected = sum(len(lev.cubes) for cz in (cz0, czj) for lev in cz.levels)
        assert rhs > 0 and selected >= 50
        # a few per width of the cubes and their triples, where one Cube per
        # selected cube and one per triple were built before
        widths = {w for k in range(g.num_levels) for w in (g.N >> k, 3 * (g.N >> k))}
        assert len(cube_constructions) <= 4 * len(widths) < selected
