"""The multilinear potential operator, its commutator and maximal operators."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import orlicz
from .grid import CubeSet, Grid, GridFunction
from .kernels import Kernel, kernel_cell_value
from .orlicz import luxemburg_norms

__all__ = [
    "apply_potential",
    "apply_potential_reference",
    "apply_commutator",
    "maximal",
    "maximal_corpus",
]


def _check_same_grid(fs) -> Grid:
    grid = fs[0].grid
    for f in fs[1:]:
        if f.grid != grid:
            raise ValueError("all input functions must share one grid")
    return grid


_BLOCK_ELEMENTS = 2**16  # table values per block of the spectrum build, its shear and S o T_m


@lru_cache(maxsize=4)
def _kernel_spectrum(K: Kernel, grid: Grid) -> np.ndarray:
    """Real spectrum S of the kernel table, in sheared coordinates.

    The table holds phi at the offsets of the period-2N lattice (per axis
    0 ... N-1, then -N ... -1), with the singular cell average at offset
    0; offsets of two cells lie in (-N, N), so the circular convolution is
    the linear one on every output cell.  The table is even in every axis,
    so S and the spectrum of each block of first-axis slabs are real; a
    block goes through rfftn over the other axes as it is built, for slabs
    0 ... N, and slab 2N - a, of the same offset norms, copies slab a.  S is
    stored at xi_i = zeta_i - zeta_(i-1) (zeta_0 = 0, per axis, mod 2N),
    indexed by zeta_1 ... zeta_m, zeta_m on the half rfft axis.
    """
    N, n, m, nm = grid.N, grid.n, K.m, K.nm
    P = 2 * N
    d = np.concatenate([np.arange(N), np.arange(-N, 0)]) * grid.h
    slot = np.sqrt(sum(c * c for c in np.meshgrid(*[d] * n, indexing="ij", sparse=True)))
    rest = np.zeros(())  # offset norms summed over slots 2 ... m
    for _ in range(m - 1):
        rest = np.add.outer(rest, slot)
    part = np.empty((P,) * (nm - 1) + (N + 1,) if nm > 1 else (P,))
    rows = max(1, _BLOCK_ELEMENTS // P ** (nm - 1))  # first-axis slabs per block
    for lo in range(0, N + 1, rows):  # d[P - a] = -d[a]
        s = np.add.outer(slot[lo : min(lo + rows, N + 1)], rest)
        if lo == 0:
            s.flat[0] = 1.0  # placeholder, replaced by the cell average
        vals = np.asarray(K.radial(s))
        if lo == 0:
            vals.flat[0] = kernel_cell_value(K, np.zeros(nm), grid.h)
        part[lo : lo + len(s)] = np.fft.rfftn(vals, axes=range(1, nm)).real if nm > 1 else vals
    part[N + 1 :] = part[N - 1 : 0 : -1]
    half = np.ascontiguousarray(np.fft.rfft(part, axis=0).real)
    spec = part[: P if nm > 1 else N + 1]  # the table's buffer takes the result
    for lo in range(0, P, rows):  # spec[zeta] = S[xi], xi_i = zeta_i - zeta_(i-1)
        zeta = list(np.ogrid[tuple(slice(k) for k in spec[lo : lo + rows].shape)])
        zeta[0] = zeta[0] + lo
        xi = [z if ax < n else z - zeta[ax - n] for ax, z in enumerate(zeta)]  # in (-2N, 2N)
        # half holds S, which is even, on [0, N] in the first and last axes
        xi[0], xi[-1] = [np.minimum(abs(x), P - abs(x)) for x in (xi[0], xi[-1])]
        spec[lo : lo + rows] = half[tuple(xi)]  # a negative xi wraps on a full axis
    spec.flags.writeable = False  # shared by every call on (K, grid)
    return spec


def _toeplitz(F: np.ndarray, last: bool) -> np.ndarray:
    """T[a, b] = F((b - a) mod P) per axis, for a transform F at period P:
    a zero-copy view over F tiled twice per axis, with its rows reversed.
    The columns of the last slot stop at the half axis."""
    n, P = F.ndim, F.shape[0]
    window = (P,) * (n - 1) + (P // 2 + 1 if last else P,)
    return sliding_window_view(np.tile(F, (2,) * n), window)[(slice(P, 0, -1),) * n]


def apply_potential(K: Kernel, fs) -> GridFunction:
    """Discrete multilinear potential: for each x, the kernel-weighted sum
    over all m-tuples of cells of the product of the f_i cell values.

    T(x) is the diagonal x_1 = ... = x_m of K * (f_1 x ... x f_m) with
    period 2N per axis, a multilinear Fourier multiplier: T is the
    n-dimensional inverse transform of G(eta), the sum of
    S(xi) F_1(xi_1) ... F_m(xi_m) over xi_1 + ... + xi_m = eta.  With the
    spectrum in sheared coordinates (`_kernel_spectrum`), slot 1 enters as
    F_1(zeta_1) and slot i > 1 as the Toeplitz view T_i[zeta_(i-1), zeta_i]
    = F_i(zeta_i - zeta_(i-1)).  Per block of first-axis slabs of S, the
    product S o T_m is formed in one reused workspace, slots m-1 ... 2 are
    contracted as batched matrix-vector products, and a product with F_1
    adds the block's share of G.
    """
    fs = list(fs)
    if len(fs) != K.m:
        raise ValueError(f"kernel expects {K.m} inputs, got {len(fs)}")
    grid = _check_same_grid(fs)
    N, n, m = grid.N, grid.n, K.m
    P, axes = 2 * N, tuple(range(n))
    S = _kernel_spectrum(K, grid)
    if m == 1:  # zeta_1 is eta: nothing to contract
        G = S * np.fft.rfftn(fs[0].values, s=(P,) * n, axes=axes)
    else:
        F1, *Fs = (np.fft.fftn(f.values, s=(P,) * n, axes=axes) for f in fs)
        Ts = [_toeplitz(F, i == m) for i, F in enumerate(Fs, 2)]  # T_2 ... T_m
        eta = S.shape[(m - 1) * n :]  # the zeta_m axes, the last one half
        G = np.zeros(math.prod(eta), dtype=complex)
        slab, Z = P ** (n - 1), P**n  # zeta_1 cells per first-axis slab; cells per slot
        rows = max(1, _BLOCK_ELEMENTS // S[0].size)  # first-axis slabs per block
        work = np.empty(rows * S[0].size, dtype=complex)  # reused: fresh blocks page-fault
        for lo in range(0, P, rows):
            cut = slice(lo, lo + rows)
            A = work[: S[cut].size].reshape(S[cut].shape)
            np.multiply(S[cut], Ts[-1][cut] if m == 2 else Ts[-1], out=A)
            for i in range(m - 1, 1, -1):  # contract zeta_i against T_i[zeta_(i-1), zeta_i]
                T = np.ascontiguousarray(Ts[i - 2][cut] if i == 2 else Ts[i - 2]).reshape(-1, Z)
                A = T[:, None, :] @ A.reshape(-1, T.shape[0], Z, G.size)
            G += F1.ravel()[lo * slab : (lo + rows) * slab] @ A.reshape(-1, G.size)
        G = G.reshape(eta)
    for axis in range(n - 1):  # inverse transform, keeping rows [0, N) of each axis
        G = np.fft.ifft(G, axis=axis)[(slice(None),) * axis + (slice(N),)]
    conv = np.fft.irfft(G, n=P, axis=-1)[..., :N]
    return GridFunction(grid, conv * (grid.h**K.nm / P ** (n * (m - 1))))


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


def apply_commutator(K: Kernel, bs, fs) -> GridFunction:
    """sum_j [ b_j T(f) - T(f_1, ..., b_j f_j, ..., f_m) ]."""
    bs, fs = list(bs), list(fs)
    if len(bs) != K.m or len(fs) != K.m:
        raise ValueError("need one symbol and one input per linear slot")
    grid = _check_same_grid(fs + bs)
    base = apply_potential(K, fs)
    out = np.zeros(grid.shape)
    for j, b in enumerate(bs):
        moved = list(fs)
        moved[j] = GridFunction(grid, b.values * fs[j].values)
        shifted = apply_potential(K, moved)
        out += b.values * base.values - shifted.values
    return GridFunction(grid, out)


def maximal_corpus(phi, specs, corpus, grid: Grid, family) -> list:
    """maximal(phi, specs, fs, grid, family) for each tuple fs of corpus,
    as a list.

    phi(Q) is taken once per width, on the width's first cube.  The tuples
    go in batches of at most _CHUNK_ELEMENTS // |family| (at least one), so
    the (tuple, cube) arrays of a batch stay the size of one root-finder
    chunk.  Per batch, each slot takes one luxemburg_norms call over the
    (tuple, cube) pairs whose product is not yet 0, and each width one
    scatter-max over all tuples.
    """
    specs, corpus = list(specs), [list(fs) for fs in corpus]
    for fs in corpus:
        if len(fs) != len(specs):
            raise ValueError("need one norm spec per input function")
        if not all(f.grid == grid for f in fs):
            raise ValueError("all input functions must share one grid")
    cubes = CubeSet.of(grid, family)
    scale, groups = cubes.per_width(phi), cubes.by_width()
    step, out = max(1, orlicz._CHUNK_ELEMENTS // max(1, len(cubes))), []
    for first in range(0, len(corpus), step):
        batch = corpus[first : first + step]
        val = np.tile(scale, len(batch))  # entry t |family| + k: tuple t, cube k
        for i, spec in enumerate(specs):
            live = np.flatnonzero(val != 0.0)
            if live.size == 0:
                break
            t, k = np.divmod(live, len(cubes))
            val[live] *= luxemburg_norms([fs[i] for fs in batch], cubes[k], spec, which=t)
        val = val.reshape(len(batch), len(cubes))
        top = np.full((len(batch),) + grid.shape, -np.inf)
        for w, idx in groups:
            _scatter_max(top, cubes.lo[idx], w, val[:, idx])
        if np.any(~np.isfinite(top)):
            raise ValueError("cube family leaves part of the grid uncovered")
        out += [GridFunction(grid, M) for M in top]
    return out


def maximal(phi, specs, fs, grid: Grid, family) -> GridFunction:
    """Pointwise sup over family cubes containing x of
    phi(Q) * prod_i ||f_i||_{X_i, Q}; phi is a function of the cube, such
    as lambda Q: phi_theta(K, theta, Q.side), and family is a CubeSet or a
    list of cubes on grid.  The one-tuple case of maximal_corpus.
    """
    return maximal_corpus(phi, specs, [fs], grid, family)[0]


def _scatter_max(out: np.ndarray, lo: np.ndarray, w: int, val: np.ndarray) -> None:
    """out[t, x] = max(out[t, x], val[t, k]) over the cubes (lo[k], w) that
    contain x, for each t of the leading axis.

    The values go onto the lattice of corners that reach the grid, then a
    running max of width w along each grid axis carries each one over its cube.
    """
    N, n = out.shape[1], out.ndim - 1
    reach = np.all((lo > -w) & (lo < N), axis=1)
    corners = np.full(out.shape[:1] + (N + w - 1,) * n, -np.inf)  # corner lo sits at lo + w - 1
    tuples = np.arange(len(out))[:, None]
    np.maximum.at(corners, (tuples, *(lo[reach] + w - 1).T), val[:, reach])
    for axis in range(1, n + 1):
        corners = _running_max(corners, w, axis)
    np.maximum(out, corners, out=out)


def _running_max(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """The max of a over each window of w entries along axis, which gets
    w - 1 shorter: maxima of widths 1, 2, 4, ..., each from two of the
    last, and one overlapping step to w (van Herk 1992 in log2 w passes)."""
    width, pre = 1, (slice(None),) * axis
    while width < w:
        s = min(width, w - width)  # the windows at i and i + s make one of width + s
        a = np.maximum(a[pre + (slice(None, a.shape[axis] - s),)], a[pre + (slice(s, None),)])
        width += s
    return a
