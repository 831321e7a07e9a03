"""The multilinear potential operator, its commutator and maximal operators."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Cube, Grid, GridFunction
from .kernels import Kernel, kernel_cell_value, phi_theta
from .orlicz import NormSpec, luxemburg_norms

__all__ = [
    "PhiScaling",
    "apply_potential",
    "apply_potential_reference",
    "apply_commutator",
    "maximal",
    "maximal_single",
]


class PhiScaling:
    """Scaling factor phi(|Q|) in front of maximal-operator products.

    Either an essentially nondecreasing profile of the cube measure, or
    the kernel-derived annulus aggregate applied to the side length,
    raised to a power.  Values are memoized; cube measures repeat.
    """

    def __init__(self, profile=None, kernel: Kernel = None, theta: float = 1.0,
                 power: float = 1.0, delta: float = 1.0, eps: float = 0.5):
        if (profile is None) == (kernel is None):
            raise ValueError("PhiScaling needs exactly one of profile, kernel")
        self.profile = profile
        self.kernel = kernel
        self.theta = theta
        self.power = power
        self.delta = delta
        self.eps = eps
        self._cache = {}

    @classmethod
    def constant(cls, c: float = 1.0) -> "PhiScaling":
        return cls(profile=lambda t, _c=float(c): _c)

    @classmethod
    def from_profile(cls, fn) -> "PhiScaling":
        return cls(profile=fn)

    @classmethod
    def from_kernel(cls, K: Kernel, theta: float = 1.0, power: float = 1.0,
                    delta: float = 1.0, eps: float = 0.5) -> "PhiScaling":
        return cls(kernel=K, theta=theta, power=power, delta=delta, eps=eps)

    def __call__(self, measure: float) -> float:
        got = self._cache.get(measure)
        if got is not None:
            return got
        if self.profile is not None:
            val = float(self.profile(measure))
        else:
            side = measure ** (1.0 / self.kernel.n)
            val = phi_theta(
                self.kernel, self.theta, side, self.delta, self.eps
            ) ** self.power
        self._cache[measure] = val
        return val

    def essential_monotonicity_witness(self, tmin: float = 1e-4, tmax: float = 1e2,
                                       samples: int = 200) -> float:
        """Smallest rho with phi(t) <= rho phi(s) for sampled t <= s."""
        ts = np.logspace(math.log10(tmin), math.log10(tmax), samples)
        vals = np.array([self(float(t)) for t in ts])
        run_max_after = np.maximum.accumulate(vals[::-1])[::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.nanmax(np.where(run_max_after > 0, vals / run_max_after, 1.0))
        return float(max(rho, 1.0))

    def vanishing_slope(self, t_large: float = 1e8) -> float:
        """phi(t)/t at a large sampled t (should be near zero)."""
        return self(t_large) / t_large


def _check_same_grid(fs) -> Grid:
    grid = fs[0].grid
    for f in fs[1:]:
        if not grid.compatible(f.grid):
            raise ValueError("all input functions must share one grid")
    return grid


def _offset_kernel_values(K: Kernel, grid: Grid) -> np.ndarray:
    """kernel_cell_value on the (2N-1)^nm lattice of cell-center offsets."""
    N, h, n = grid.N, grid.h, grid.n
    d = (np.arange(2 * N - 1) - (N - 1)) * h
    if n == 1:
        r1 = np.abs(d)
    else:
        mesh = np.meshgrid(*([d] * n), indexing="ij")
        r1 = np.sqrt(sum(c * c for c in mesh))
    s = r1
    for _ in range(K.m - 1):
        s = np.add.outer(s, r1)
    s = np.array(s, copy=True)
    origin = tuple([N - 1] * n) * K.m
    s_flat = s.reshape(-1)
    center_idx = np.ravel_multi_index(origin, s.shape)
    s_flat[center_idx] = 1.0  # placeholder, replaced by the cell average
    vals = K.radial(s_flat).reshape(s.shape)
    vals.reshape(-1)[center_idx] = kernel_cell_value(
        K, np.zeros(K.nm), h
    )
    return vals


def apply_potential(K: Kernel, fs, out_grid: Grid = None) -> GridFunction:
    """Discrete multilinear potential: for each x, the kernel-weighted sum
    over all m-tuples of cells of the product of the f_i cell values.

    The kernel is precomputed on the offset lattice once; each output
    point is then one dense tensor contraction.
    """
    fs = list(fs)
    if len(fs) != K.m:
        raise ValueError(f"kernel expects {K.m} inputs, got {len(fs)}")
    grid = _check_same_grid(fs)
    if out_grid is not None and not grid.compatible(out_grid):
        raise ValueError("output grid must equal the input grid")
    N, n, m = grid.N, grid.n, K.m
    KR = _offset_kernel_values(K, grid)
    # reverse every axis so that the y index runs ascending in the slice
    KR = KR[(slice(None, None, -1),) * (n * m)]
    letters = "abcdefghij"
    sub_idx = letters[: n * m]
    f_idx = [sub_idx[i * n : (i + 1) * n] for i in range(m)]
    spec = sub_idx + "," + ",".join(f_idx) + "->"
    arrays = [f.values for f in fs]
    out = np.empty(grid.shape)
    scale = grid.h ** (n * m)
    for x in np.ndindex(*grid.shape):
        slc = tuple(
            slice(N - 1 - xi, 2 * N - 1 - xi) for xi in x
        ) * m
        out[x] = np.einsum(spec, KR[slc], *arrays) * scale
    return GridFunction(grid, out)


def apply_potential_reference(K: Kernel, fs) -> GridFunction:
    """Plain nested-loop evaluation; the equivalence oracle for the
    blocked path.  Slow by design."""
    fs = list(fs)
    grid = _check_same_grid(fs)
    n, m = grid.n, K.m
    centers = grid.centers_1d()
    h = grid.h
    vals = [f.values for f in fs]
    out = np.zeros(grid.shape)
    cell_ids = list(np.ndindex(*grid.shape))
    for x_idx in cell_ids:
        x = np.array([centers[i] for i in x_idx])
        acc = 0.0
        for combo in itertools.product(cell_ids, repeat=m):
            prod = 1.0
            for i, y_idx in enumerate(combo):
                prod *= vals[i][y_idx]
            if prod == 0.0:
                continue
            offsets = np.concatenate(
                [x - np.array([centers[i] for i in y_idx]) for y_idx in combo]
            )
            acc += kernel_cell_value(K, offsets, h) * prod
        out[x_idx] = acc * h ** (n * m)
    return GridFunction(grid, out)


def apply_commutator(K: Kernel, bs, fs, out_grid: Grid = None) -> GridFunction:
    """sum_j [ b_j T(f) - T(f_1, ..., b_j f_j, ..., f_m) ]."""
    bs, fs = list(bs), list(fs)
    if len(bs) != K.m or len(fs) != K.m:
        raise ValueError("need one symbol and one input per linear slot")
    grid = _check_same_grid(fs + bs)
    base = apply_potential(K, fs, out_grid)
    out = np.zeros(grid.shape)
    for j, b in enumerate(bs):
        moved = list(fs)
        moved[j] = GridFunction(grid, b.values * fs[j].values)
        shifted = apply_potential(K, moved, out_grid)
        out += b.values * base.values - shifted.values
    return GridFunction(grid, out)


def maximal(
    phis: PhiScaling,
    specs,
    fs,
    grid: Grid,
    family,
    tol: float = 1e-10,
) -> GridFunction:
    """Pointwise sup over family cubes containing x of
    phi(|Q|) * prod_i ||f_i||_{X_i, Q}.

    Cubes of one width share phi(|Q|) and go through the batched norm
    together; a cube whose product is already 0 skips its later norms.
    """
    fs = list(fs)
    specs = list(specs)
    if len(fs) != len(specs):
        raise ValueError("need one norm spec per input function")
    _check_same_grid(fs + [GridFunction.constant(grid, 0.0)])
    by_width = {}
    for Q in family:
        by_width.setdefault(Q.w, []).append(Q)
    out = np.full(grid.shape, -np.inf)
    for w, cubes in by_width.items():
        val = np.full(len(cubes), phis(cubes[0].measure))
        for f, spec in zip(fs, specs):
            live = np.flatnonzero(val != 0.0)
            if live.size == 0:
                break
            val[live] *= luxemburg_norms(f, [cubes[i] for i in live], spec, tol)
        _scatter_max(out, np.array([Q.lo for Q in cubes]), w, val)
    if np.any(~np.isfinite(out)):
        raise ValueError("cube family leaves part of the grid uncovered")
    return GridFunction(grid, out)


def _scatter_max(out: np.ndarray, lo: np.ndarray, w: int, val: np.ndarray) -> None:
    """out[x] = max(out[x], val[k]) over the cubes (lo[k], w) that contain x.

    The values go onto the lattice of corners that reach the grid, then a
    running max of width w along each axis carries each one over its cube.
    """
    N, n = out.shape[0], out.ndim
    reach = np.all((lo > -w) & (lo < N), axis=1)
    corners = np.full((N + w - 1,) * n, -np.inf)  # corner lo sits at lo + w - 1
    np.maximum.at(corners, tuple((lo[reach] + w - 1).T), val[reach])
    for axis in range(n):
        corners = sliding_window_view(corners, w, axis=axis).max(axis=-1)
    np.maximum(out, corners, out=out)


def maximal_single(
    phis: PhiScaling,
    spec: NormSpec,
    u: GridFunction,
    grid: Grid,
    family,
    tol: float = 1e-10,
) -> GridFunction:
    return maximal(phis, [spec], [u], grid, family, tol)
