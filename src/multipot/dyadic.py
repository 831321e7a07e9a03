"""The dyadic cubes of a grid: the strong maximal function over triples,
CZ selection and the discretized tail sums they control."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Cube, CubeSet, Grid, GridFunction, _dyadic_corner_cells
from .kernels import Kernel, phi_theta
from .orlicz import NormSpec, luxemburg_norms

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


@lru_cache(maxsize=4)
def _dyadic_tables(grid: Grid) -> tuple:
    """Tables over the dyadic cubes in the order of `cube_family(grid,
    "dyadic")`, whose last N^n are the cells in C order: where each level
    starts, |3Q|, and as int32 each cube's corner cell and width, the flat
    corners of its 3Q in the (N+1)^n summed-area table (2^n x cubes) and the
    Morton position of each cell (a cube's cells fill w^n positions in a row)."""
    N, n, levels, (cells, w) = grid.N, grid.n, grid.num_levels, _dyadic_corner_cells(grid)
    starts = [((1 << level * n) - 1) // ((1 << n) - 1) for level in range(levels + 1)]  # cubes above a level
    meas, corners = np.empty(len(w)), np.empty((2**n, len(w)), dtype=np.int32)
    axis = [(-1,) + (1,) * (n - 1 - ax) for ax in range(n)]  # sums of 1-D arrays along these fill a level
    for level in range(levels):
        side, width, cut = 1 << level, N >> level, slice(starts[level], starts[level + 1])
        i = np.arange(side, dtype=np.int32)  # a corner coordinate in units of width
        meas[cut] = Cube(grid, (-width,) * n, 3 * width).measure
        # per axis, the corner of 3Q below is clip(lo - w), the one above clip(lo + 2w)
        ends = [[(e * width * (N + 1) ** (n - 1 - ax)).reshape(axis[ax])
                 for e in (np.maximum(i - 1, 0), np.minimum(i + 2, side))] for ax in range(n)]
        for k, corner in enumerate(np.ndindex(*((2,) * n))):
            corners[k, cut].reshape((side,) * n)[...] = sum(ends[ax][c] for ax, c in enumerate(corner))
    # Morton positions interleave coordinate bits, so a 2^b-wide cube's cells are 2^(bn) positions in a row
    spread = sum(((np.arange(N, dtype=np.int32) >> b) & 1) << (b * n) for b in range(levels - 1))
    zpos = sum((spread << n - 1 - ax).reshape(a) for ax, a in enumerate(axis)).ravel()
    for table in (cells, w, meas, corners, zpos):
        table.flags.writeable = False  # shared by every decomposition on the grid
    return starts, cells, w, meas, corners, zpos


def _triple_products(hs, grid: Grid) -> np.ndarray:
    """prod_i (avg of h_i over 3Q) for every dyadic cube Q, in the order of
    `cube_family(grid, "dyadic")`.

    Averages use the full |3Q| with h_i extended by zero off the box, so a
    clipped 3Q sums only its cells inside the box.  Each box sum takes the
    corners of a summed-area table in np.ndindex order, the same float
    operations a single-cube box sum takes; the table has zeros before the
    box on each axis, and a corner clipped past the box reads its edge.
    """
    N, n, (_, _, _, meas, corners, *_) = grid.N, grid.n, _dyadic_tables(grid)
    negative = [(n - sum(corner)) % 2 for corner in np.ndindex(*((2,) * n))]  # box - x, else box + x
    prod, x = None, np.empty(len(meas))
    for h in hs:
        table, p = np.zeros((N + 1,) * n), h.values
        for ax in range(n):  # the last sum goes into the table
            p = np.cumsum(p, axis=ax, out=table[(slice(1, None),) * n] if ax == n - 1 else None)
        box = np.zeros(len(meas))
        for corner, minus in zip(corners, negative):
            (np.subtract if minus else np.add)(box, np.take(table, corner, out=x, mode="clip"), out=box)
        np.divide(np.multiply(box, grid.cell_volume, out=box), meas, out=box)
        prod = box if prod is None else np.multiply(prod, box, out=prod)  # 1.0 * box is box
    return prod


def default_cz_base(n: int, m: int) -> float:
    return 2.0 * 4.0 ** (n * m)


@dataclass
class CZLevel:
    k: int
    cubes: CubeSet  # selected at a^k: coarse to fine, corners in C order within a width
    prod_norms: list
    e_counts: np.ndarray  # |E_Q| in cells, one per cube


@dataclass
class CZDecomposition:
    a: float
    grid: Grid
    levels: list  # of CZLevel
    maximal_values: GridFunction
    functions: list  # the decomposed h_i as given, not copied and not in to_json

    def to_json(self) -> str:
        grid, levels = self.grid, []
        for lev in self.levels:
            cubes = CubeSet.of(grid, lev.cubes)
            corners, sides = (-grid.L + cubes.lo * grid.h).tolist(), (cubes.w * grid.h).tolist()
            levels.append({
                "k": lev.k,
                "cubes": [{"corner": c, "side": s, "prod_norm": p}
                          for c, s, p in zip(corners, sides, lev.prod_norms)],
                "E_masks": _e_runs(self.maximal_values.values <= self.a ** (lev.k + 1), cubes),
            })
        return json.dumps({"a": self.a, "levels": levels}, sort_keys=True)


def _e_runs(below_next: np.ndarray, cubes: CubeSet) -> list:
    """E_Q = Q minus {M > a^(k+1)} for each cube, as [start, length] runs of
    flat grid indices: the cells of Q where below_next holds, gathered one
    width at a time, so a run ends at the edge of its cube."""
    shape, flat = below_next.shape, below_next.ravel()
    owner, cells = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for w, sel in cubes.by_width():
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


_MAX_CZ_LEVELS = 64  # thresholds a^k kept, the largest k: a cap for an a close to 1


def cz_decompose(hs, a: float, grid: Grid) -> CZDecomposition:
    """Maximal dyadic cubes whose triple-average product exceeds a^k.

    Selection is top-down, so chosen cubes are maximal and pairwise
    disjoint; their union is exactly the super-level set of the dyadic
    maximal function.  k runs over the band where a^k sits between the
    smallest positive and the largest maximal-function value; when all
    positive values lie in one interval (a^k, a^(k+1)], that k alone.  Of a
    wider band the _MAX_CZ_LEVELS largest k are kept.
    """
    if a <= 1.0:
        raise ValueError("CZ base a must exceed 1")
    hs = list(hs)
    if all(not h.values.any() for h in hs):
        raise ValueError("CZ decomposition of identically zero data")
    N, n, (starts, corner_cell, widths, _, _, zpos) = grid.N, grid.n, _dyadic_tables(grid)
    prod, anc, above = _triple_products(hs, grid), np.empty(starts[-1]), np.full(1, -np.inf)
    # coarse to fine: the max over the strict ancestors of a cube is its
    # parent's max over itself and its ancestors, -inf above the whole box
    for level in range(grid.num_levels):
        cut, half = slice(starts[level], starts[level + 1]), max((1 << level) // 2, 1)
        anc[cut].reshape((half, (1 << level) // half) * n)[...] = above.reshape((half, 1) * n)
        above = np.maximum(prod[cut], anc[cut])
    # on a cell, the max of 0 and the products of the cubes containing it
    mx = GridFunction(grid, np.maximum(0.0, above).reshape(grid.shape), nonneg=True)
    vals = mx.values
    pos = vals[vals > 0]
    if pos.size == 0:
        return CZDecomposition(a, grid, [], mx, hs)
    vmin, vmax = float(pos.min()), float(vals.max())
    k_lo = math.ceil(math.log(vmin) / math.log(a) - 1e-12)
    k_hi = math.floor(math.log(vmax) / math.log(a) + 1e-12)
    if a**k_hi >= vmax:
        k_hi -= 1
    ks = list(range(min(k_lo, k_hi), k_hi + 1))[-_MAX_CZ_LEVELS:]
    thr, nxt = np.array([a**k for k in ks]), np.array([a ** (k + 1) for k in ks])
    # Q is maximal above a^k iff its product exceeds a^k and no strict
    # ancestor's does: anc <= a^k < prod, so its thresholds j form [first,
    # stop), which is empty unless anc < prod and a^(k_0) < prod
    idx = np.flatnonzero((anc < prod) & (prod > thr[0]))
    first, stop = np.searchsorted(thr, anc[idx]), np.searchsorted(thr, prod[idx])
    keep = first < stop  # not all False: a^(k_hi) < max M
    idx, first, stop, span = idx[keep], first[keep], stop[keep], (stop - first)[keep]
    corner, w, prod = corner_cell.take(idx), widths.take(idx).astype(np.int64), prod[idx]
    # a histogram per cube of its cells' bins from first on, with the bins
    # from stop on in one last slot: its running sum is |E| per j.  M <=
    # a^(k_j+1) exactly for j >= the bin of M, and a cube's cells are one
    # run of Morton positions
    bins = np.empty(N**n, dtype=np.intp)  # in Morton order
    np.put(bins, zpos, np.searchsorted(nxt, vals), mode="clip")
    start, size = np.cumsum(span + 1) - (span + 1), w**n
    cells = np.repeat(zpos.take(corner) - (np.cumsum(size) - size), size) + np.arange(size.sum())
    keys = np.minimum(np.maximum(bins.take(cells, mode="clip"), np.repeat(first, size)), np.repeat(stop, size))
    keys += np.repeat(start - first, size)
    hist = np.bincount(keys, minlength=int(start[-1] + span[-1] + 1))
    run = np.cumsum(hist)
    # one (cube, j) pair per threshold a cube is selected at, cube by cube
    cube = np.repeat(np.arange(idx.size), span)
    step = np.arange(cube.size) - np.repeat(np.cumsum(span) - span, span)
    j, counts = first[cube] + step, run[start[cube] + step] - (run - hist)[start[cube]]
    # coarse to fine, corners in C order within each threshold
    order = np.argsort(j, kind="stable")
    j, cube, counts = j[order], cube[order], counts[order]
    bounds = np.flatnonzero(np.diff(j)) + 1
    lo, levels = np.stack(np.unravel_index(corner, grid.shape), axis=1), []
    for sel in np.split(np.arange(j.size), bounds):
        c = cube[sel]
        levels.append(CZLevel(ks[j[sel[0]]], CubeSet(grid, lo[c], w[c]), prod[c].tolist(), counts[sel]))
    return CZDecomposition(a, grid, levels, mx, hs)


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
    second sum over the cubes selected with u in slot j.  Their L^1 factors
    are the prod_norms the cubes were selected by, so cz0 must decompose fs
    and czj fs with u in slot j, which is checked.  Each sum takes one batch
    of Orlicz norms: (u^q, L log^(ell q) L) on cz0, (f_j, L log L) on czj.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("need q in (0, 1]")
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    fs = list(fs)
    if not _decomposes(cz0, fs):
        raise ValueError("cz0 is not a decomposition of fs")
    if ell == 1 and (czj is None or j is None):
        raise ValueError("commutator sum needs the j-th decomposition")
    if ell == 1 and not _decomposes(czj, fs[:j] + [u] + fs[j + 1 :]):
        raise ValueError("czj is not a decomposition of fs with u in slot j")
    if not cz0.levels:
        if not cz0.maximal_values.values.any():
            # a zero slot kills every triple-average product, so both sides vanish
            return 0.0
        raise ValueError("empty decomposition")
    uq = GridFunction(cz0.grid, u.values**q)
    terms = _cube_terms(K, q, cz0, uq, NormSpec.power_log(1.0, ell * q), 1.0)
    if ell == 1:
        terms = np.concatenate([terms, _cube_terms(K, q, czj, fs[j], NormSpec.power_log(1.0, 1.0), q)])
    # one add per cube in cube order, the rounding of a per-cube running sum
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def _decomposes(cz: CZDecomposition, hs: list) -> bool:
    """Whether cz was built from hs: the same functions, or equal values."""
    return len(cz.functions) == len(hs) and all(
        g is h or g.grid == h.grid and np.array_equal(g.values, h.values) for g, h in zip(cz.functions, hs))


def _cube_terms(K: Kernel, q: float, cz: CZDecomposition, g: GridFunction, spec: NormSpec,
                power: float) -> np.ndarray:
    """phi_theta(l(Q))^q * prod_norm^q * ||g||_{spec,3Q}^power * |E| for
    each cube Q of cz with non-empty E, in cube order.

    |E| comes from the counts of each level, phi_theta takes one call per
    width, and the norms one luxemburg_norms call over all triples.
    """
    grid, levels = cz.grid, [lev for lev in cz.levels if len(lev.cubes)]
    if not levels:
        return np.zeros(0)
    esizes = np.concatenate([lev.e_counts for lev in levels]) * grid.cell_volume
    keep = esizes != 0.0
    cubes = CubeSet.concat(grid, [CubeSet.of(grid, lev.cubes) for lev in levels])[keep]
    terms = cubes.per_width(lambda Q: phi_theta(K, q, Q.side) ** q)
    terms *= np.concatenate([lev.prod_norms for lev in levels])[keep] ** q
    terms *= luxemburg_norms(g, cubes.dilate3(), spec) ** power
    return terms * esizes[keep]

