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

    def compatible(self, other: "Grid") -> bool:
        return (self.n, self.L, self.N) == (other.n, other.L, other.N)


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

    @property
    def corner(self) -> tuple:
        g = self.grid
        return tuple(-g.L + l * g.h for l in self.lo)

    @property
    def clipped(self) -> bool:
        N = self.grid.N
        return any(l < 0 or l + self.w > N for l in self.lo)

    @property
    def measure_clipped(self) -> float:
        N, h = self.grid.N, self.grid.h
        out = 1.0
        for l in self.lo:
            out *= max(0, min(l + self.w, N) - max(l, 0)) * h
        return out

    def slices(self) -> tuple:
        N = self.grid.N
        return tuple(
            slice(max(l, 0), max(min(l + self.w, N), 0)) for l in self.lo
        )

    def cell_count(self) -> int:
        out = 1
        for s in self.slices():
            out *= max(0, s.stop - s.start)
        return out

    def dilate3(self) -> "Cube":
        """The concentric triple 3Q."""
        return Cube(self.grid, tuple(l - self.w for l in self.lo), 3 * self.w)

    def children(self) -> list:
        """The 2^n dyadic children; only valid for even width."""
        half = self.w // 2
        out = []
        for off in np.ndindex(*((2,) * self.grid.n)):
            lo = tuple(l + o * half for l, o in zip(self.lo, off))
            out.append(Cube(self.grid, lo, half))
        return out


class GridFunction:
    """Real values sampled at the cell centers of a grid."""

    def __init__(self, grid: Grid, values, nonneg: bool = False):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            values = values.reshape(grid.shape)
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        if nonneg and np.any(values < 0):
            raise ValueError("negative value in a function flagged nonnegative")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.nonneg = nonneg

    @classmethod
    def from_callable(cls, grid: Grid, fn, nonneg: bool = False):
        mesh = grid.center_mesh()
        vals = np.vectorize(lambda *xs: fn(*xs))(*mesh)
        return cls(grid, np.asarray(vals, dtype=float), nonneg=nonneg)

    @classmethod
    def constant(cls, grid: Grid, c: float):
        return cls(grid, np.full(grid.shape, float(c)), nonneg=c >= 0)

    def restrict(self, Q: Cube) -> np.ndarray:
        if not self.grid.compatible(Q.grid):
            raise ValueError("cube does not live on this grid")
        return self.values[Q.slices()]

    def map(self, fn, nonneg: bool = False) -> "GridFunction":
        return GridFunction(self.grid, fn(self.values), nonneg=nonneg)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - float(other))

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


def integrate(f: GridFunction, Q: Cube = None) -> float:
    """Midpoint-rule integral of f over Q (whole box when Q is None)."""
    if Q is None:
        return float(f.values.sum()) * f.grid.cell_volume
    return float(f.restrict(Q).sum()) * f.grid.cell_volume


def cube_family(grid: Grid, kind: str) -> list:
    """Finite cube family standing in for 'all cubes' in suprema.

    'dyadic': every dyadic subcube of the box down to cell level.
    'centered': for each grid point and each dyadic side length, the cube
    of that size centered at the point, shifted to fit inside the box,
    deduplicated.
    """
    N = grid.N
    out = []
    if kind == "dyadic":
        w = N
        while w >= 1:
            for lo in np.ndindex(*((N // w,) * grid.n)):
                out.append(Cube(grid, tuple(l * w for l in lo), w))
            w //= 2
        return out
    if kind == "centered":
        seen = set()
        w = 1
        while w <= N:
            for idx in np.ndindex(*grid.shape):
                lo = tuple(
                    min(max(i - w // 2, 0), N - w) for i in idx
                )
                if (lo, w) not in seen:
                    seen.add((lo, w))
                    out.append(Cube(grid, lo, w))
            w *= 2
        return out
    raise ValueError(f"unknown cube family kind {kind!r}")
