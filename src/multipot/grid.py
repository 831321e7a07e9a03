"""Uniform grids on a box, axis-aligned cubes and midpoint quadrature.

Everything downstream (norms, operators, decompositions) lives on the
cell-center lattice built here.  Integrals are midpoint sums, which are
exact for cell-constant data so discrete identities stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Cube",
    "CubeSet",
    "GridFunction",
    "make_grid",
    "integrate",
    "cube_family",
]


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of N^n cell centers on the box [-L, L)^n."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n must be 1, 2 or 3, got {self.n}")
        if not _is_power_of_two(self.N) or self.N < 4:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"box half-width L must be positive, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def num_levels(self) -> int:
        """Number of dyadic levels, whole box (level 0) down to cells."""
        return int(round(math.log2(self.N))) + 1

    def centers_1d(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    def center_mesh(self) -> list:
        c = self.centers_1d()
        return np.meshgrid(*([c] * self.n), indexing="ij")

    def radius(self) -> np.ndarray:
        """Euclidean |x| at every cell center."""
        mesh = self.center_mesh()
        return np.sqrt(sum(c * c for c in mesh))

    def whole_box(self) -> "Cube":
        return Cube(self, (0,) * self.n, self.N)


@dataclass(frozen=True)
class Cube:
    """Grid-aligned cube given by a corner cell index and a width in cells.

    The corner may lie outside the box (dilates 3Q do); `slices` clips to
    the lattice.  `measure` is always the full geometric measure, so
    averages of zero-extended functions over clipped cubes keep the
    whole-space normalization.
    """

    grid: Grid
    lo: tuple
    w: int

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("cube width must be at least one cell")
        if len(self.lo) != self.grid.n:
            raise ValueError("corner index arity does not match the grid")

    @property
    def side(self) -> float:
        return self.w * self.grid.h

    @property
    def measure(self) -> float:
        return self.side**self.grid.n

    def slices(self) -> tuple:
        return tuple(slice(max(l, 0), max(min(l + self.w, self.grid.N), 0)) for l in self.lo)


class CubeSet:
    """A family of cubes on one grid as arrays: corners `lo` (k x n ints)
    and widths `w` (k,), or one width for all.  `len` and iteration work as
    on a list of Cube and an int index gives a Cube; an index array, a
    boolean mask or a slice gives a CubeSet."""

    def __init__(self, grid: Grid, lo, w):
        lo = np.asarray(lo, dtype=np.int64)
        w = np.full(len(lo), w, dtype=np.int64) if np.ndim(w) == 0 else np.asarray(w, dtype=np.int64)
        if (w < 1).any():
            raise ValueError("cube width must be at least one cell")
        if lo.shape != (len(w), grid.n):
            raise ValueError("corner index arity does not match the grid")
        self.grid, self.lo, self.w = grid, lo, w

    @classmethod
    def of(cls, grid: Grid, cubes) -> "CubeSet":
        """cubes as a CubeSet on grid: a CubeSet as it is, an iterable of
        Cube converted once; raises if a cube lives on another grid."""
        is_set = isinstance(cubes, CubeSet)
        cubes = cubes if is_set else list(cubes)
        if not all(x.grid == grid for x in ([cubes] if is_set else cubes)):
            raise ValueError("cube does not live on this grid")
        if is_set:
            return cubes
        lo = np.array([Q.lo for Q in cubes], dtype=np.int64).reshape(len(cubes), grid.n)
        return cls(grid, lo, [Q.w for Q in cubes])

    @classmethod
    def concat(cls, grid: Grid, sets) -> "CubeSet":
        """The cubes of a nonempty list of CubeSets, one set after another."""
        return cls(grid, np.concatenate([s.lo for s in sets]), np.concatenate([s.w for s in sets]))

    def __len__(self) -> int:
        return len(self.w)

    def __iter__(self):
        for lo, w in zip(self.lo.tolist(), self.w.tolist()):
            yield Cube(self.grid, tuple(lo), w)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Cube(self.grid, tuple(self.lo[key].tolist()), int(self.w[key]))
        return CubeSet(self.grid, self.lo[key], self.w[key])

    def dilate3(self) -> "CubeSet":
        """The concentric triples 3Q."""
        return CubeSet(self.grid, self.lo - self.w[:, None], 3 * self.w)

    def by_width(self) -> list:
        """(w, the indices of the cubes of width w in ascending order) for
        each width, narrowest first.  A sort and a diff, as np.unique does
        without importing numpy.ma (about 10 ms) on its first call."""
        ws = np.sort(self.w)
        return [(w, np.flatnonzero(self.w == w)) for w in ws[np.diff(ws, prepend=0) != 0].tolist()]

    def per_width(self, fn) -> np.ndarray:
        """fn(Q) for every cube, taken once per width on its first cube."""
        out = np.empty(len(self))
        for _, idx in self.by_width():
            out[idx] = fn(self[idx[0]])
        return out


class GridFunction:
    """Real values sampled at the cell centers of a grid."""

    def __init__(self, grid: Grid, values, nonneg: bool = False):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values of shape {values.shape} on a grid of shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        if nonneg and np.any(values < 0):
            raise ValueError("negative value in a function flagged nonnegative")
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def constant(cls, grid: Grid, c: float):
        return cls(grid, np.full(grid.shape, float(c)), nonneg=c >= 0)

    def map(self, fn) -> "GridFunction":
        return GridFunction(self.grid, fn(self.values))

    def to_csv(self, path) -> None:
        g = self.grid
        with open(path, "w") as fh:
            fh.write(f"# {g.n},{g.L},{g.N}\n")
            for v in self.values.ravel(order="C"):
                fh.write(f"{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("#"):
                raise ValueError("missing '# n,L,N' header")
            n_s, L_s, N_s = header[1:].split(",")
            grid = Grid(int(n_s), float(L_s), int(N_s))
            vals = np.array([float(line) for line in fh if line.strip()])
        return cls(grid, vals.reshape(grid.shape, order="C"))


def make_grid(n: int, L: float, N: int) -> Grid:
    return Grid(n, float(L), int(N))


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral of f over the box."""
    return float(f.values.sum()) * f.grid.cell_volume


def cube_family(grid: Grid, kind: str) -> CubeSet:
    """Finite cube family standing in for 'all cubes' in suprema, as a CubeSet.

    'dyadic': every dyadic subcube of the box down to cell level, widest
    first, corners in C order within a width.
    'centered': for each dyadic side length, narrowest first, and each grid
    point in C order, the cube of that size centered at the point, shifted
    to fit inside the box, deduplicated in order of first appearance.
    """
    if kind == "dyadic":
        cells, w = _dyadic_corner_cells(grid)
        return CubeSet(grid, np.stack(np.unravel_index(cells, grid.shape), axis=1), w)
    if kind == "centered":
        # each centred cube, shifted to fit, is an in-box cube of width w, and every in-box corner occurs
        return CubeSet.concat(grid, [CubeSet(grid, _c_order(np.arange(grid.N - w + 1), grid.n), w)
                                     for w in (1 << k for k in range(grid.num_levels))])
    raise ValueError(f"unknown cube family kind {kind!r}")


def _c_order(coords: np.ndarray, n: int) -> np.ndarray:
    """The corners of coords^n, one per row, in C order."""
    return np.stack(np.meshgrid(*[coords] * n, indexing="ij"), axis=-1).reshape(-1, n)


def _dyadic_corner_cells(grid: Grid) -> tuple:
    """The flat C index of the corner cell of each dyadic subcube of the box,
    and its width, as int32: widest first, corners in C order within a width."""
    N, n, sizes = grid.N, grid.n, [1 << level * grid.n for level in range(grid.num_levels)]
    cells, w = np.empty(sum(sizes), dtype=np.int32), np.repeat(N >> np.arange(len(sizes), dtype=np.int32), sizes)
    for level, start in enumerate(np.cumsum(sizes) - sizes):
        side, corner = 1 << level, np.arange(1 << level, dtype=np.int32) * (N >> level)  # along one axis
        cells[start : start + side**n].reshape((side,) * n)[...] = sum(
            (corner * N ** (n - 1 - ax)).reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n))
    return cells, w
