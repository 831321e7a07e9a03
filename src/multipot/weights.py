"""Test weights, BMO symbols and the reverse-Holder certifier."""

from __future__ import annotations

import math

import numpy as np

from .grid import CubeSet, Grid, GridFunction
from .orlicz import NormSpec, luxemburg_norms

__all__ = [
    "gen_power_weight",
    "gen_bmo_log",
    "rh_check",
    "parse_weight",
]


def _origin_cells(grid: Grid):
    """Indices of cells whose closed cell contains a zero coordinate box
    corner at the origin (i.e. cells touching |x| = 0)."""
    c = grid.centers_1d()
    h = grid.h
    touch_1d = np.flatnonzero(np.abs(c) <= h / 2.0 + 1e-12 * h)
    out = []
    for idx in np.ndindex(*((len(touch_1d),) * grid.n)):
        out.append(tuple(int(touch_1d[i]) for i in idx))
    return out


def _cell_average(grid: Grid, idx, fn, sub: int = 16) -> float:
    """Subsampled average of fn(|x|) over one cell."""
    c = grid.centers_1d()
    h = grid.h
    offs = ((np.arange(sub) + 0.5) / sub - 0.5) * h
    axes = [c[i] + offs for i in idx]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(x * x for x in mesh))
    return float(np.mean(fn(np.maximum(r, 1e-300))))


def gen_power_weight(beta: float, grid: Grid) -> GridFunction:
    """w(x) = |x|^beta sampled at cell centers, locally integrable on the box.

    Cells touching the origin carry the cell average instead of the
    center value (closed form in one dimension, subsampling otherwise).
    """
    if beta <= -grid.n:
        raise ValueError(f"need beta > -n for local integrability, got {beta}")
    r = grid.radius()
    vals = r**beta
    for idx in _origin_cells(grid):
        if grid.n == 1:
            # cells adjacent to 0: average of x^beta over (0, h)
            vals[idx] = grid.h**beta / (beta + 1.0)
        else:
            vals[idx] = _cell_average(grid, idx, lambda s: s**beta)
    return GridFunction(grid, vals, nonneg=True)


def gen_bmo_log(grid: Grid) -> GridFunction:
    """b(x) = log |x|, the canonical unbounded BMO symbol."""
    r = grid.radius()
    vals = np.log(np.maximum(r, 1e-300))
    for idx in _origin_cells(grid):
        if grid.n == 1:
            vals[idx] = math.log(grid.h) - 1.0  # avg of log over (0, h)
        else:
            vals[idx] = _cell_average(grid, idx, np.log)
    return GridFunction(grid, vals)


def rh_check(w: GridFunction, s: float, family) -> float:
    """Reverse Holder constant on the family: max over Q of ||w||_{L^s,Q} /
    ||w||_{L^1,Q}, the normalized L^s and L^1 norms, over the cubes where
    the latter is nonzero.  Every cube must lie inside the box."""
    if s <= 1.0:
        raise ValueError("reverse Holder exponent must exceed 1")
    cubes = CubeSet.of(w.grid, family)
    if ((cubes.lo < 0) | (cubes.lo + cubes.w[:, None] > w.grid.N)).any():
        raise ValueError("rh_check takes cubes inside the box")
    num, den = (luxemburg_norms(w, cubes, NormSpec.lebesgue(r)) for r in (s, 1.0))
    live = den != 0.0
    return float(np.max(num[live] / den[live], initial=0.0))


def parse_weight(text: str, grid: Grid) -> GridFunction:
    """Parse the config forms pow{beta}, one, bmolog, file:path.csv."""
    text = text.strip()
    if text == "one":
        return GridFunction.constant(grid, 1.0)
    if text == "bmolog":
        return gen_bmo_log(grid)
    if text.startswith("pow"):
        return gen_power_weight(float(text[3:]), grid)
    if text.startswith("file:"):
        f = GridFunction.from_csv(text.split(":", 1)[1])
        if f.grid != grid:
            raise ValueError("weight file grid does not match the run grid")
        return f
    raise ValueError(f"unrecognized weight spec {text!r}")
