"""The dyadic cubes of a grid: the strong maximal function over triples,
CZ selection and the discretized tail sums they control."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, CubeSet, Grid, GridFunction
from .kernels import Kernel, phi_theta
from .orlicz import L1, NormSpec, luxemburg_norms

__all__ = [
    "CZDecomposition",
    "CZLevel",
    "cz_decompose",
    "discretization_rhs",
    "default_cz_base",
]


def DyadicLattice(grid: Grid) -> Grid:
    """The grid itself: its dyadic cubes are those of `cube_family(grid,
    "dyadic")`.  Kept only because the benchmark's cz-dyadic-2d set-up
    (perfbench/workloads.py) still calls it; remove it with that call."""
    return grid


def _triple_average_pyramid(hs, grid: Grid) -> list:
    """prod_i (avg of h_i over 3Q) for every dyadic cube, one array per level.

    Level l holds an array of (2^l)^n products indexed by the corner of Q
    in units of its width.  Averages use the full |3Q| with h_i extended by
    zero off the box, so a clipped 3Q sums only its cells inside the box.
    Each box sum takes the corners of a summed-area table in np.ndindex
    order, the same float operations a single-cube box sum takes.  The
    table is padded with N cells on each side, zeros before and the edge
    value after, so every level reads its corners as strided slices.
    """
    N, n = grid.N, grid.n
    prefixes = []
    for h in hs:
        p = h.values
        for ax in range(n):
            p = np.cumsum(p, axis=ax)
        prefix = np.zeros((3 * N + 1,) * n)
        prefix[(slice(N + 1, 2 * N + 1),) * n] = p
        for ax in range(n):  # the edge value after the box, one axis after another
            before = (slice(None),) * ax
            prefix[before + (slice(2 * N + 1, None),)] = prefix[before + (slice(2 * N, 2 * N + 1),)]
        prefixes.append(prefix)
    # box + (-1)^(n - |corner|) x, as box + x or box - x
    corners = [(corner, (n - sum(corner)) % 2) for corner in np.ndindex(*((2,) * n))]
    cellvol = grid.cell_volume
    pyramid = []
    for level in range(grid.num_levels):
        w = N >> level
        # clip(i w - w, 0, N) and clip(i w + 2 w, 0, N) for i < N / w, shifted by N
        ends = (slice(N - w, 2 * N - w, w), slice(N + 2 * w, 2 * N + 2 * w, w))
        meas = Cube(grid, (-w,) * n, 3 * w).measure
        prod = 1.0
        for prefix in prefixes:
            box = 0.0
            for corner, negative in corners:
                x = prefix[tuple(ends[c] for c in corner)]
                box = box - x if negative else box + x
            prod = prod * (box * cellvol / meas)
        pyramid.append(prod)
    return pyramid


def _upsample(a: np.ndarray, factor: int) -> np.ndarray:
    for ax in range(a.ndim):
        a = np.repeat(a, factor, axis=ax)
    return a


def _sup_over_levels(pyramid, grid: Grid) -> np.ndarray:
    """At each cell, the max of 0 and the products of the cubes containing it."""
    out = np.zeros(grid.shape)
    for level, prod in enumerate(pyramid):
        np.maximum(out, _upsample(prod, grid.N >> level), out=out)
    return out


def default_cz_base(n: int, m: int) -> float:
    return 2.0 * 4.0 ** (n * m)


@dataclass
class CZLevel:
    k: int
    cubes: CubeSet  # selected at a^k: coarse to fine, corners in C order within a width
    prod_norms: list
    below_next: np.ndarray  # M <= a^(k+1) on the grid; E_Q is its part in Q
    e_counts: np.ndarray  # |E_Q| in cells, one per cube


@dataclass
class CZDecomposition:
    a: float
    grid: Grid
    levels: list  # of CZLevel
    maximal_values: GridFunction = None

    def to_json(self) -> str:
        grid, levels = self.grid, []
        for lev in self.levels:
            cubes = CubeSet.of(grid, lev.cubes)
            corners, sides = (-grid.L + cubes.lo * grid.h).tolist(), (cubes.w * grid.h).tolist()
            levels.append({
                "k": lev.k,
                "cubes": [{"corner": c, "side": s, "prod_norm": p}
                          for c, s, p in zip(corners, sides, lev.prod_norms)],
                "E_masks": _e_runs(lev.below_next, cubes),
            })
        return json.dumps({"a": self.a, "levels": levels}, sort_keys=True)


def _e_runs(below_next: np.ndarray, cubes: CubeSet) -> list:
    """E_Q = Q minus {M > a^(k+1)} for each cube, as [start, length] runs of
    flat grid indices: the cells of Q where below_next holds, gathered one
    width at a time, so a run ends at the edge of its cube."""
    shape, flat = below_next.shape, below_next.ravel()
    owner, cells = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for w in np.unique(cubes.w).tolist():
        sel = np.flatnonzero(cubes.w == w)
        # the flat indices of each cube's cells in C order, which is ascending
        offsets = np.ravel_multi_index(tuple(np.indices((w,) * len(shape)).reshape(len(shape), -1)), shape)
        idx = np.ravel_multi_index(tuple(cubes.lo[sel].T), shape)[:, None] + offsets
        keep = flat[idx]
        owner.append(np.repeat(sel, keep.sum(axis=1)))
        cells.append(idx[keep])
    order = np.argsort(np.concatenate(owner), kind="stable")
    owner, cells = np.concatenate(owner)[order], np.concatenate(cells)[order]
    new = np.ones(cells.size, dtype=bool)  # a run starts a cube or follows a gap
    new[1:] = (np.diff(cells) != 1) | (np.diff(owner) != 0)
    start = np.flatnonzero(new)
    runs = np.stack([cells[start], np.diff(start, append=cells.size)], axis=1).tolist()
    ends = np.cumsum(np.bincount(owner[start], minlength=len(cubes))).tolist()
    return [runs[i:j] for i, j in zip([0] + ends[:-1], ends)]


def cz_decompose(hs, a: float, grid: Grid, max_levels: int = 64) -> CZDecomposition:
    """Maximal dyadic cubes whose triple-average product exceeds a^k.

    Selection is top-down, so chosen cubes are maximal and pairwise
    disjoint; their union is exactly the super-level set of the dyadic
    maximal function.  k runs over the band where a^k sits between the
    smallest positive and the largest maximal-function value; when all
    positive values lie in one interval (a^k, a^(k+1)], that k alone.
    """
    if a <= 1.0:
        raise ValueError("CZ base a must exceed 1")
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    hs = list(hs)
    if all(not h.values.any() for h in hs):
        raise ValueError("CZ decomposition of identically zero data")
    pyramid = _triple_average_pyramid(hs, grid)
    mx = GridFunction(grid, _sup_over_levels(pyramid, grid), nonneg=True)
    vals = mx.values
    pos = vals[vals > 0]
    if pos.size == 0:
        return CZDecomposition(a, grid, [], mx)
    vmin, vmax = float(pos.min()), float(vals.max())
    k_lo = math.ceil(math.log(vmin) / math.log(a) - 1e-12)
    k_hi = math.floor(math.log(vmax) / math.log(a) + 1e-12)
    if a**k_hi >= vmax:
        k_hi -= 1
    ks = list(range(min(k_lo, k_hi), k_hi + 1))[-max_levels:]
    thr, nxt = np.array([a**k for k in ks]), np.array([a ** (k + 1) for k in ks])
    # M <= a^(k_j+1) exactly for j >= the bin of M
    bins = np.searchsorted(nxt, vals)
    # Q is maximal above a^k iff its product exceeds a^k and no strict
    # ancestor's does: anc <= a^k < prod, so its thresholds j form [first, stop)
    anc = np.full((1,) * grid.n, -np.inf)
    picked, keys, used = [], [], 0  # used: histogram slots taken by the cubes before
    for level, prod in enumerate(pyramid):
        if level:
            anc = _upsample(np.maximum(anc, pyramid[level - 1]), 2)
        first, stop = np.searchsorted(thr, anc.ravel()), np.searchsorted(thr, prod.ravel())
        idx = np.flatnonzero(first < stop)
        if idx.size == 0:
            continue
        first, span = first[idx], stop[idx] - first[idx]
        # a histogram per cube of its cells' bins from first on, with the
        # bins from stop on in one last slot: its running sum is |E| per j
        offset = used + np.cumsum(span + 1) - (span + 1)
        cells = _cube_cells(bins, grid.N >> level)[idx]
        keys.append((np.clip(cells - first[:, None], 0, span[:, None]) + offset[:, None]).ravel())
        used += int(span.sum()) + idx.size
        picked.append((np.full(idx.size, level), idx, first, span, offset, prod.ravel()[idx]))
    if not picked:
        return CZDecomposition(a, grid, [], mx)
    lev, idx, first, span, start, prod = (np.concatenate(x) for x in zip(*picked))
    hist = np.bincount(np.concatenate(keys), minlength=used)
    run = np.cumsum(hist)
    # one (cube, j) pair per threshold a cube is selected at, cube by cube
    cube = np.repeat(np.arange(idx.size), span)
    step = np.arange(cube.size) - np.repeat(np.cumsum(span) - span, span)
    j, counts = first[cube] + step, run[start[cube] + step] - (run - hist)[start[cube]]
    # the corner of cube i of a level, with 2^level cubes per axis, in C order
    lo, rest = np.empty((idx.size, grid.n), dtype=np.int64), idx
    for ax in reversed(range(grid.n)):
        lo[:, ax] = (rest & ((1 << lev) - 1)) * (grid.N >> lev)
        rest = rest >> lev
    # coarse to fine, corners in C order within each threshold
    order = np.argsort(j, kind="stable")
    j, cube, counts = j[order], cube[order], counts[order]
    bounds = np.flatnonzero(np.diff(j)) + 1
    levels = []
    for sel in np.split(np.arange(j.size), bounds):
        c = cube[sel]
        levels.append(CZLevel(ks[j[sel[0]]], CubeSet(grid, lo[c], grid.N >> lev[c]), prod[c].tolist(),
                              vals <= nxt[j[sel[0]]], counts[sel]))
    return CZDecomposition(a, grid, levels, mx)


def _cube_cells(a: np.ndarray, w: int) -> np.ndarray:
    """The cells of each width-w dyadic cube, one row per cube in C order of corners."""
    c, n = a.shape[0] // w, a.ndim
    blocks = a.reshape(sum(((c, w) for _ in range(n)), ()))
    return blocks.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))).reshape(c**n, w**n)


def discretization_rhs(
    K: Kernel,
    fs,
    u: GridFunction,
    q: float,
    ell: int,
    cz0: CZDecomposition,
    czj: CZDecomposition = None,
    j: int = None,
) -> float:
    """Right side of the discretization bound for int [|T_{b_j^ell} f| u]^q.

    First sum over the cubes selected from f itself; for the commutator a
    second sum over the cubes selected with u in slot j.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("need q in (0, 1]")
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    fs = list(fs)
    if not cz0.levels:
        mx = cz0.maximal_values
        if mx is not None and not mx.values.any():
            # a zero slot kills every triple-average product, so both sides vanish
            return 0.0
        raise ValueError("empty decomposition")
    if ell == 1 and (czj is None or j is None):
        raise ValueError("commutator sum needs the j-th decomposition")
    uq = GridFunction(cz0.grid, u.values**q)
    factors = [(uq, NormSpec.power_log(1.0, ell * q), 1.0)] + [(f, L1, q) for f in fs]
    terms = _cube_terms(K, q, cz0, factors)
    if ell == 1:
        factors = [(u, L1, q)]
        factors += [(f, NormSpec.power_log(1.0, 1.0 if i == j else 0.0), q)
                    for i, f in enumerate(fs)]
        terms = np.concatenate([terms, _cube_terms(K, q, czj, factors)])
    # one add per cube in cube order, the rounding of a per-cube running sum
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def _cube_terms(K: Kernel, q: float, cz: CZDecomposition, factors) -> np.ndarray:
    """phi_theta(l(Q))^q * prod ||g||_{spec,3Q}^power * |E| for each cube Q of cz
    with non-empty E, in cube order; factors are (g, spec, power) triples.

    |E| comes from the counts of each level, phi_theta takes one call per
    width, and the norms one luxemburg_norms call per factor over all triples.
    """
    grid, levels = cz.grid, [lev for lev in cz.levels if len(lev.cubes)]
    if not levels:
        return np.zeros(0)
    esizes = np.concatenate([lev.e_counts for lev in levels]) * grid.cell_volume
    keep = esizes != 0.0
    cubes = CubeSet.concat(grid, [CubeSet.of(grid, lev.cubes) for lev in levels])[keep]
    terms = cubes.per_width(lambda Q: phi_theta(K, q, Q.side) ** q)
    for g, spec, power in factors:
        terms *= luxemburg_norms(g, cubes.dilate3(), spec) ** power
    return terms * esizes[keep]

