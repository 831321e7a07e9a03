"""Young functions and Luxemburg cube norms."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .grid import Cube, CubeSet, GridFunction

__all__ = [
    "YoungFunction",
    "NormSpec",
    "luxemburg_norm",
    "luxemburg_norms",
    "parse_norm_spec",
]


@dataclass(frozen=True)
class YoungFunction:
    """Convex increasing function vanishing at zero.

    Families: 'power-log' t^p (1+log+ t)^alpha, 'exp' e^t - 1,
    'exp-power' e^(t^(1/q)) - 1, 'identity' t, and 'composed' (right-to-
    left composition, used for iterates B^m).
    """

    kind: str
    p: float = 1.0
    alpha: float = 0.0
    q: float = 1.0
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power-log", "exp", "exp-power", "identity", "composed"):
            raise ValueError(f"unknown Young family {self.kind!r}")
        if self.kind == "power-log" and (self.p < 1 or self.alpha < 0):
            raise ValueError("power-log needs p >= 1 and alpha >= 0")
        if self.kind == "composed" and not self.parts:
            raise ValueError("composed Young function needs parts")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if (t < 0).any():
            raise ValueError("Young functions take t >= 0")
        out = self._apply(t.copy())
        return out if out.ndim else float(out)

    def _apply(self, t):
        """Y(t) on a float array t >= 0, unchecked: t may be overwritten and
        returned.  A 0-d t follows numpy's scalar arithmetic, as __call__
        always has (a scalar power may round unlike the vectorized one)."""
        if self.kind == "identity":
            return t
        if self.kind == "power-log":
            # x ** 1.0 == x and a factor y ** 0.0 == 1.0 changes no bit, so they are skipped
            out = t if self.p == 1 else t**self.p
            if not self.alpha:
                return out
            logterm = np.maximum(t, 1.0)
            logterm = np.log(logterm, out=_into(logterm))
            logterm += 1.0  # 1 + log+ t
            if self.alpha != 1:
                logterm = logterm**self.alpha
            logterm *= out
            return logterm
        if self.kind == "exp":
            return np.expm1(t, out=_into(t))
        if self.kind == "exp-power":
            t = t ** (1.0 / self.q)
            return np.expm1(t, out=_into(t))
        for part in reversed(self.parts):  # composed
            t = np.asarray(part._apply(t))
        return t

    def iterate(self, m: int) -> "YoungFunction":
        """The m-fold composition of self with itself."""
        if m == 1:
            return self
        return YoungFunction("composed", parts=(self,) * m)


def _into(x):
    """The out= of a ufunc that overwrites x: x, or None for a numpy scalar."""
    return x if x.ndim else None


@dataclass(frozen=True)
class NormSpec:
    """A cube-norm: either plain L^r or the Orlicz norm of a Young function."""

    r: float = None
    young: YoungFunction = None

    def __post_init__(self):
        if (self.r is None) == (self.young is None):
            raise ValueError("NormSpec needs exactly one of r, young")
        if self.r is not None and self.r < 1:
            raise ValueError("Lebesgue exponent must satisfy r >= 1")

    @classmethod
    def lebesgue(cls, r: float) -> "NormSpec":
        return cls(r=float(r))

    @classmethod
    def orlicz(cls, Y: YoungFunction) -> "NormSpec":
        return cls(young=Y)

    @classmethod
    def power_log(cls, p: float, alpha: float) -> "NormSpec":
        if alpha == 0:
            return cls.lebesgue(p)
        return cls(young=YoungFunction("power-log", p=p, alpha=alpha))


_TOL = 1e-10  # relative tolerance of the root-finder; luxemburg_norms always takes it


def luxemburg_norm(f: GridFunction, Q: Cube, spec: NormSpec, tol: float = _TOL) -> float:
    """||f||_{X,Q}: closed form for L^r; for Young specs the root-finder
    that luxemburg_norms runs, on this one cube.

    The normalizing measure is the full |Q|; cells outside the box count
    as zero, matching zero-extension of compactly supported data.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.abs(f.restrict(Q)).ravel()
    if v.size == 0:
        return 0.0
    frac = f.grid.cell_volume / Q.measure
    if spec.young is None:
        return float(_lr_norms(v[None], spec.r, frac)[0])
    v = v[v != 0]
    return float(_young_row_norms(v, np.zeros(v.size, dtype=np.intp), np.array([frac]), spec.young, tol)[0])


# Cells per chunk of cubes in luxemburg_norms (~0.5 MB of values): nonzero
# cells and window lines for a Young spec, window cells of one width for
# L^r.  The windows of a whole family reach (N-w+1)^n w^n cells, about 1e9
# at n=3, N=64, so they are never gathered at once.
_CHUNK_ELEMENTS = 1 << 16
_MAX_STEPS = 200  # cap on each loop of _young_row_norms


def luxemburg_norms(f, cubes, spec: NormSpec, *, which=None) -> np.ndarray:
    """luxemburg_norm(f, Q, spec) for each Q of a CubeSet or a list of
    cubes of any widths, on the grid of f.

    With `which`, f is a sequence of functions on one grid and cube k is
    taken on f[which[k]]; a row's norm depends only on its own cells, so
    it equals that of the one-function call bit for bit.

    Cells outside the box count as zero, the zero-extension that clipped
    cubes assume.  A Young spec reads each cube's nonzero cells, in C order,
    from the sorted nonzero positions of the |f| stack (function, then grid
    axes): each line of the cube along the last axis is one searchsorted
    pair.  The cubes go in chunks of at most _CHUNK_ELEMENTS nonzero cells
    and lines, or one cube alone; a chunk may hold several widths and
    functions, and the root-finder on lambda runs on all its rows at once,
    each row stopping on its own.  An L^r spec reads every cell of each
    window from a zero-padded stack, one width at a time, in chunks of at
    most _CHUNK_ELEMENTS cells, or one cube alone.
    """
    fs = [f] if which is None else list(f)
    grid = fs[0].grid
    if not all(g.grid == grid for g in fs):
        raise ValueError("all input functions must share one grid")
    cubes = CubeSet.of(grid, cubes)
    which = np.zeros(len(cubes), dtype=np.int64) if which is None else np.asarray(which, dtype=np.int64)
    if which.shape != (len(cubes),) or (which < 0).any() or (which >= len(fs)).any():
        raise ValueError("which needs one function index per cube")
    out = np.zeros(len(cubes))
    if not len(cubes):
        return out
    groups, frac = cubes.by_width(), np.empty(len(cubes))
    for w, idx in groups:
        frac[idx] = grid.cell_volume / (w * grid.h) ** grid.n  # as Cube.measure
    # a corner outside [-w, N] gives an empty cube, as does the clamped one
    lo = np.clip(cubes.lo, -cubes.w[:, None], grid.N)
    if spec.young is None:
        _window_norms(fs, lo, cubes.w, groups, which, frac, spec.r, out)
    else:
        _segment_norms(fs, lo, cubes.w, which, frac, spec.young, out)
    return out


def _window_norms(fs, lo, ws, groups, which, frac, r, out) -> None:
    """luxemburg_norms for L^r, into out: |f| is written once into one
    zero-filled stack, and the windows of each width (groups) are one
    read-only, bounds-checked view of it."""
    grid = fs[0].grid
    before, after = max(0, -lo.min()), max(0, (lo + ws[:, None]).max() - grid.N)
    padded = np.zeros((len(fs),) + (before + grid.N + after,) * grid.n)
    for j, g in enumerate(fs):
        np.abs(g.values, out=padded[(j,) + (slice(before, before + grid.N),) * grid.n])
    starts = lo + before
    for w, idx in groups:
        windows = np.ndarray(padded.shape[:1] + tuple(s - w + 1 for s in padded.shape[1:]) + (w,) * grid.n,
                             buffer=padded, strides=padded.strides + padded.strides[1:])
        windows.flags.writeable = False
        k = max(1, _CHUNK_ELEMENTS // w**grid.n)  # a wider cube goes alone
        for sel in (idx[i : i + k] for i in range(0, idx.size, k)):
            out[sel] = _lr_norms(windows[(which[sel], *starts[sel].T)].reshape(-1, w**grid.n), r, frac[sel[0]])


def _segment_norms(fs, lo, ws, which, frac, Y, out) -> None:
    """luxemburg_norms for a Young spec, into out.  The flat nonzero
    positions of the |f| stack are sorted, so the nonzero cells of a line
    of a cube along the last axis are one segment of them; a row is its
    segments line after line, which is the C order of its window."""
    grid = fs[0].grid
    N, n = grid.N, grid.n
    flat = np.stack([g.values for g in fs]).ravel()
    pos = np.flatnonzero(flat)
    cells = np.abs(flat[pos])

    def box(k):
        """The first cell and the extent per axis of the part of cubes k in the box."""
        first = np.clip(lo[k], 0, N)
        return first, np.clip(lo[k] + ws[k, None], 0, N) - first

    def segments(k, lines, line_end):
        """(first index in pos, length) of the segment of each line of cubes
        k in the box, line after line; cube k[i] has lines[i] lines."""
        first, ext = box(k)
        line_row = np.repeat(np.arange(k.size), lines)
        start = (which[k] * N**n + first @ N ** np.arange(n - 1, -1, -1))[line_row]
        if n > 1:  # line l of a cube steps through axes n-2 ... 0 of its part
            l = np.arange(line_row.size) - np.repeat(line_end - lines, lines)
            for axis in range(n - 2, -1, -1):
                e = ext[line_row, axis]
                start += l % e * N ** (n - 1 - axis)
                l //= e
        seg = np.searchsorted(pos, start)
        return seg, np.searchsorted(pos, start + ext[line_row, -1]) - seg

    # lines along the last axis: the product of the other extents, or 0 when the last is 0
    nlines = np.prod(np.minimum(box(slice(None))[1], [N] * (n - 1) + [1]), axis=1)
    live = np.flatnonzero(nlines)  # the other cubes miss the box: norm 0
    for part in _runs(nlines[live]):
        rows = live[part]
        lines = nlines[rows]
        line_end = np.cumsum(lines)  # row k has lines line_end[k] - lines[k] ... line_end[k] - 1
        seg, count = segments(rows, lines, line_end)
        row_cells = np.add.reduceat(count, line_end - lines) if n > 1 else count
        nonempty = np.flatnonzero(row_cells)  # the other rows have norm 0
        for chunk in _runs(row_cells[nonempty]):
            r = nonempty[chunk]
            sl = slice(line_end[r[0]] - lines[r[0]], line_end[r[-1]])
            out[rows[r]] = _young_row_norms(cells[_ranges(seg[sl], count[sl])],
                                            np.repeat(np.arange(r.size), row_cells[r]),
                                            frac[rows[r]], Y, _TOL)


def _runs(sizes) -> list:
    """Slices of consecutive items whose sizes add up to at most
    _CHUNK_ELEMENTS, or of one item alone."""
    ends, runs, start = np.cumsum(sizes), [], 0
    while start < ends.size:
        cap = _CHUNK_ELEMENTS + (ends[start - 1] if start else 0)
        stop = max(start + 1, int(np.searchsorted(ends, cap, side="right")))
        runs.append(slice(start, stop))
        start = stop
    return runs


def _ranges(start, count) -> np.ndarray:
    """The indices start[i], ..., start[i] + count[i] - 1, for i in order."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(start - (ends - count), count)


def _lr_norms(v, r: float, frac: float) -> np.ndarray:
    """The L^r Luxemburg norm of each row of the 2-D block v of nonnegative
    cell values, each cell frac of its cube."""
    # v ** 1.0 == v and s ** 1.0 == s, so r = 1 skips both powers
    sums = np.sum(v if r == 1 else v**r, axis=1) * frac
    if r == 1:
        return sums
    # numpy's vectorized power can round differently from the scalar
    # power of the closed form, so the root is taken row by row
    return np.array([s ** (1.0 / r) for s in sums.tolist()])


@np.errstate(over="ignore")  # S(lam) may overflow to inf at a small lam; the steps allow for it
def _young_row_norms(v, row, frac, Y: YoungFunction, tol: float) -> np.ndarray:
    """The Luxemburg norm for Y of rows 0 ... frac.size - 1: row r has the
    nonzero cells v[row == r] (row nondecreasing) and cell fraction frac[r].

    It is the least lam with S(lam) = sum Y(v / lam) * frac <= 1.  Doubling
    hi from the row max, or else one step down by the growth bound of Y and
    halving from there, brackets it with S(lo) > 1 >= S(hi); Illinois regula
    falsi (Dowell & Jarratt 1971) on log S against log lam, a line for
    S = c lam^-p, shrinks the bracket, each step at least tol * hi / 2
    inside it (the geometric mean of the ends when S(lo) overflowed to inf).
    A row stops at S(hi) == 1 or hi - lo <= tol * hi and returns hi,
    feasible and within tol of lo.  A step makes one Y call on the cells of
    its rows and sums each row in order, so a row's result depends on
    neither the other rows nor its zeros.
    """
    count = np.bincount(row, minlength=frac.size)
    start = np.cumsum(count) - count
    out = np.zeros(frac.size)  # zero rows have norm 0, take no step
    rows = np.flatnonzero(count)
    if rows.size == 0:
        return out
    out[rows] = np.maximum.reduceat(v, start[rows])
    # the rows of the last step, their cells, the place of each cell's row
    # among them and their frac; the first step takes all the cells
    last = [rows, v, np.repeat(np.arange(rows.size), count[rows]), frac[rows]]

    def log_s(sel, lam, fresh=False):
        """log S(lam) on the rows sel (ascending).  Within a phase rows only
        drop out, so a step keeps the cells of the last step's rows that are
        in sel; the first step of a phase (fresh) does so too when its rows
        are among those, and gathers them again when they are not."""
        prev, cells, place, f = last
        if fresh or sel.size != prev.size:
            at = np.minimum(np.searchsorted(prev, sel), prev.size - 1)
            if not (prev[at] == sel).all():
                c = count[sel]
                last[:] = sel, v[_ranges(start[sel], c)], np.repeat(np.arange(sel.size), c), frac[sel]
            elif sel.size != prev.size:
                keep = np.zeros(prev.size, dtype=bool)
                keep[at] = True
                m = keep[place]
                last[:] = sel, cells[m], (np.cumsum(keep) - 1)[place[m]], f[keep]
        _, cells, place, f = last
        return np.log(np.bincount(place, weights=Y._apply(cells / lam[place]), minlength=sel.size) * f)

    # log S at lo and hi; NaN until lo is evaluated
    lo, hi, glo, ghi = np.zeros(rows.size), out[rows], np.full(rows.size, np.nan), np.empty(rows.size)
    todo = np.arange(rows.size)
    for _ in range(_MAX_STEPS):
        if todo.size == 0:
            break
        ghi[todo] = log_s(rows[todo], hi[todo])
        todo = todo[ghi[todo] > 0.0]
        lo[todo], glo[todo] = hi[todo], ghi[todo]
        hi[todo] *= 2.0
    if todo.size:
        raise ArithmeticError("Luxemburg bracket failed to close upward")
    # S(hi) < 1 at the row max: Y(t) / t^p nondecreasing gives S(lam) >=
    # S(hi) (hi / lam)^p, so S(x) >= 1 at x = hi S(hi)^(1/p), and x is lo
    # when S(x) > 1; when rounding or a Y outside that bound leaves S(x) <= 1,
    # x is hi and the halving goes on from there (as it does from an x
    # below 1e-300, taken at hi)
    p = Y.p if Y.kind == "power-log" else 1.0
    todo = np.flatnonzero((lo == 0.0) & (ghi < 0.0))
    if todo.size:
        x = hi[todo] * np.exp(ghi[todo] / p)
        x = np.where(x > 1e-300, x, hi[todo])
        g = log_s(rows[todo], x, fresh=True)
        fit = g <= 0.0
        lo[todo[~fit]], glo[todo[~fit]] = x[~fit], g[~fit]
        hi[todo[fit]], ghi[todo[fit]] = x[fit], g[fit]
        todo = todo[g < 0.0]
    # a lo below 1e-300 counts as infeasible and is not evaluated
    for i in range(_MAX_STEPS):
        lo[todo] = 0.5 * hi[todo]
        todo = todo[lo[todo] > 1e-300]
        if todo.size == 0:
            break
        g = log_s(rows[todo], lo[todo], fresh=i == 0)
        fit = g <= 0.0
        glo[todo[~fit]] = g[~fit]
        hi[todo[fit]], ghi[todo[fit]] = lo[todo[fit]], g[fit]
        todo = todo[g < 0.0]
    if todo.size:
        raise ArithmeticError("Luxemburg bracket failed to close downward")
    hi_moved = np.zeros(rows.size, dtype=bool)  # as after a halving
    for i in range(_MAX_STEPS):
        done = (ghi == 0.0) | (hi - lo <= tol * hi)
        if done.any():
            out[rows[done]] = hi[done]
            keep = np.flatnonzero(~done)
            rows, lo, hi, glo, ghi, hi_moved = (a[keep] for a in (rows, lo, hi, glo, ghi, hi_moved))
        if rows.size == 0:
            return out
        d = 0.5 * tol * hi
        # a NaN step (lo not evaluated) goes to lo + d; where S(lo) overflowed
        # the line has no slope, and the step bisects log lam instead
        step = np.where(np.isinf(glo), 0.5, ghi / (ghi - glo))
        x = np.fmin(np.fmax(hi * (lo / hi) ** step, lo + d), hi - d)
        g = log_s(rows, x, fresh=i == 0)
        fit = g <= 0.0
        # the value at the end that stays put a second step running is halved
        half = np.where(fit == hi_moved, 0.5, 1.0)
        lo, hi = np.where(fit, lo, x), np.where(fit, x, hi)
        glo, ghi = np.where(fit, half * glo, g), np.where(fit, g, half * ghi)
        hi_moved = fit
    raise ArithmeticError("Luxemburg solver did not converge")


_POWER_LOG_RE = re.compile(r"^Lp([0-9.]+)logL([0-9.]+)$")
_LEBESGUE_RE = re.compile(r"^L\^([0-9.]+)$")
_EXP_POWER_RE = re.compile(r"^expL\^\{1/([0-9.]+)\}$")
_COMPOSED_RE = re.compile(r"^B\^([0-9]+)\((.+)\)$")


def parse_norm_spec(text: str) -> NormSpec:
    """Parse the config forms L^r, Lp{p}logL{alpha}, expL, expL^{1/q}, B^m(...)."""
    text = text.strip()
    m = _LEBESGUE_RE.match(text)
    if m:
        return NormSpec.lebesgue(float(m.group(1)))
    m = _POWER_LOG_RE.match(text)
    if m:
        return NormSpec.power_log(float(m.group(1)), float(m.group(2)))
    if text == "expL":
        return NormSpec.orlicz(YoungFunction("exp"))
    m = _EXP_POWER_RE.match(text)
    if m:
        return NormSpec.orlicz(YoungFunction("exp-power", q=float(m.group(1))))
    m = _COMPOSED_RE.match(text)
    if m:
        inner = parse_norm_spec(m.group(2))
        Y = inner.young if inner.young is not None else YoungFunction(
            "power-log", p=inner.r
        )
        return NormSpec.orlicz(Y.iterate(int(m.group(1))))
    raise ValueError(f"unrecognized norm spec {text!r}")
