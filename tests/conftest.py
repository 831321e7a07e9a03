"""Shared helpers for the test suite."""

import numpy as np
import pytest

from multipot import Cube, GridFunction


def spike_tuple(grid, m, seed):
    """Tuples of smooth positive functions with coincident peaks on a small
    baseline.  Their triple-average maximal function spans several dyadic
    thresholds and is stable under grid refinement, which makes them good
    inputs for decomposition tests.
    """
    rng = np.random.default_rng(seed)
    x = grid.centers_1d()
    c = rng.uniform(-grid.L / 2, grid.L / 2)
    out = []
    for _ in range(m):
        amp = rng.uniform(3.0, 8.0)
        width = rng.uniform(0.04, 0.10) * grid.L
        base = rng.uniform(0.01, 0.03)
        vals = base + amp * np.exp(-(((x - c) / width) ** 2))
        out.append(GridFunction(grid, vals, nonneg=True))
    return out


def e_masks_per_cube(cz, lev):
    """E_Q = Q minus {M > a^(k+1)} for each cube of a level, one boolean
    grid per cube, from the maximal function of the decomposition."""
    next_mask = cz.maximal_values.values > cz.a ** (lev.k + 1)
    masks = []
    for Q in lev.cubes:
        E = np.zeros(cz.grid.shape, dtype=bool)
        E[Q.slices()] = True
        masks.append(E & ~next_mask)
    return masks


def weak_maximal_lhs_at(M, u, Bm, m, lam_m):
    """max over the given values of lambda^m of u({M > lambda^m})^m /
    B_m(1/lambda), with one masked sum per lambda: the weak-maximal
    left side as a loop over sampled lambdas."""
    cellvol = M.grid.cell_volume
    best = 0.0
    for lm in lam_m:
        lam = lm ** (1.0 / m)
        mass = float(u.values[M.values > lm].sum()) * cellvol
        denom = float(Bm(1.0 / lam))
        if denom > 0:
            best = max(best, mass**m / denom)
    return best


def log_lambda_samples(M, points):
    """`points` log-spaced values of lambda^m across the positive range of M."""
    pos = M.values[M.values > 0]
    if not pos.size:
        return np.zeros(0)
    return np.logspace(np.log10(pos.min() * 0.999), np.log10(pos.max() * 1.001), points)


@pytest.fixture
def cube_constructions(monkeypatch):
    """A list that gets the width of every Cube constructed."""
    made = []
    post_init = Cube.__post_init__

    def counted(self):
        made.append(self.w)
        post_init(self)

    monkeypatch.setattr(Cube, "__post_init__", counted)
    return made
