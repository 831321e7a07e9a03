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
    'exp-power' e^(t^(1/q)) - 1, and 'composed' (right-to-left
    composition, used for iterates B^m).
    """

    kind: str
    p: float = 1.0
    alpha: float = 0.0
    q: float = 1.0
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power-log", "exp", "exp-power", "composed"):
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
    """||f||_{X,Q}: luxemburg_norms on the one cube Q, with the root-finder
    tolerance tol for a Young spec.

    The normalizing measure is the full |Q|; cells outside the box count
    as zero, matching zero-extension of compactly supported data.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return float(_norms([f], CubeSet.of(f.grid, [Q]), np.zeros(1, dtype=np.int64), [spec], tol)[0])


# Cells per chunk of cubes in luxemburg_norms (~0.5 MB of values): nonzero
# cells and window lines for a Young spec.
_CHUNK_ELEMENTS = 1 << 16
_MAX_STEPS = 200  # cap on each loop of _young_row_norms


def luxemburg_norms(f, cubes, spec, *, which=None) -> np.ndarray:
    """||f||_{X,Q} for each Q of a CubeSet or a list of cubes of any
    widths, on the grid of f; luxemburg_norm is its one-cube call.

    With `which`, f is a sequence of functions on one grid and cube k is
    taken on f[which[k]]; spec is one NormSpec, or one per function, and
    cube k then takes spec[which[k]].  A row's norm depends only on its
    own cells and spec, so it equals that of the one-function, one-spec
    call bit for bit.

    Cells outside the box count as zero, the zero-extension that clipped
    cubes assume.  The Young rows, of every Young spec, read each cube's
    nonzero cells, in C order, from the nonzero cells of the |f| stack
    (function, then the axes of the cubes' bounding box) in flat order:
    each line of the cube along the last axis is one segment, two lookups
    in a running count of the nonzero cells.  The cubes go
    in chunks of at most _CHUNK_ELEMENTS nonzero cells and lines, or one
    cube alone; a chunk may hold several widths, functions and Young
    functions, and the root-finder on lambda runs on all its rows at once,
    each row stopping on its own.  The L^r rows, one r at a time, read
    their sums of |f|^r from the window sums (_window_sums) of a
    zero-padded stack of the bounding box, one width at a time.
    """
    fs = [f] if which is None else list(f)
    grid = fs[0].grid
    if not all(g.grid == grid for g in fs):
        raise ValueError("all input functions must share one grid")
    cubes = CubeSet.of(grid, cubes)
    which = np.zeros(len(cubes), dtype=np.int64) if which is None else np.asarray(which, dtype=np.int64)
    if which.shape != (len(cubes),) or (which < 0).any() or (which >= len(fs)).any():
        raise ValueError("which needs one function index per cube")
    spec = [spec] * len(fs) if isinstance(spec, NormSpec) else list(spec)
    if len(spec) != len(fs) or not all(isinstance(s, NormSpec) for s in spec):
        raise ValueError("spec needs one NormSpec per function")
    return _norms(fs, cubes, which, spec, _TOL)


def _norms(fs, cubes: CubeSet, which, spec, tol: float) -> np.ndarray:
    """luxemburg_norms on checked arguments, spec a list of one NormSpec
    per function, with root-finder tolerance tol."""
    out = np.zeros(len(cubes))
    if not len(cubes):
        return out
    grid = fs[0].grid
    widths = cubes.by_width()
    frac = np.empty(len(cubes))
    for w, idx in widths:
        frac[idx] = _cell_fraction(grid, w)
    # a corner outside [-w, N] gives an empty cube, as does the clamped one
    lo = np.minimum(np.maximum(cubes.lo, -cubes.w[:, None]), grid.N)
    # each function's Young function as an index in youngs, -1 for L^r
    youngs = list(dict.fromkeys(s.young for s in spec if s.young is not None))
    fy = np.array([-1 if s.young is None else youngs.index(s.young) for s in spec])
    groups = list(dict.fromkeys(s.r for s in spec))  # each L^r exponent, None for the Young specs
    # the group of each row; with one group every row, and a slice takes views where an index array copies
    group = np.array([groups.index(s.r) for s in spec])[which] if len(groups) > 1 else None
    for i, r in enumerate(groups):
        if r is not None:
            _lr_norms(out, fs, lo, which, frac, widths if group is None
                      else [(w, idx[group[idx] == i]) for w, idx in widths], r)
            continue
        rows = slice(None) if group is None else np.flatnonzero(group == i)
        out[rows] = _segment_norms(fs, lo[rows], cubes.w[rows], which[rows], frac[rows], youngs, fy, tol)
    return out


def _cell_fraction(grid, w: int) -> float:
    """The share of one cell in a cube of width w: the cell volume over the
    full measure (w h)^n, as Cube.measure takes it."""
    return grid.cell_volume / (w * grid.h) ** grid.n


def _lr_norms(out, fs, lo, which, frac, widths, r) -> None:
    """luxemburg_norms for L^r into out on the rows of widths, (w, rows)
    for each width: |f|^r is taken once on the rows' bounding box, and
    each row's sum read from the window sums over the part of it that
    holds the cubes of its width."""
    widths = [(w, idx) for w, idx in widths if idx.size]
    if not widths:
        return
    boxes = [(lo[idx].min(axis=0), (lo[idx] + w).max(axis=0)) for w, idx in widths]
    first = np.min([a for a, _ in boxes], axis=0)
    stack = _power_stack(fs, first, np.max([b for _, b in boxes], axis=0), r)
    for (w, idx), (a, b) in zip(widths, boxes):
        part = stack[(slice(None), *map(slice, (a - first).tolist(), (b - first).tolist()))]
        out[idx] = _window_sums(part, w)[(which[idx], *(lo[idx] - a).T)]
    rows = np.concatenate([idx for _, idx in widths])
    out[rows] = _lr_roots(out[rows] * frac[rows], r)


def _lattice_norms(fs, widths, r):
    """For each width w of widths, the L^r norms of each f of fs over every
    cube of width w inside the box, corners in C order: an array of shape
    (len(fs), (N - w + 1)^n), equal bit for bit to those rows of
    luxemburg_norms, with no index arrays."""
    grid = fs[0].grid
    stack = _power_stack(fs, np.zeros(grid.n, dtype=np.int64), np.full(grid.n, grid.N), r)
    for w in widths:
        yield _lr_roots(_window_sums(stack, w).reshape(len(fs), -1) * _cell_fraction(grid, w), r)


def _power_stack(fs, first, end, r) -> np.ndarray:
    """|f|^r of each f of fs on the box [first, end) of cells, zero off the
    grid, as one array (function, then the axes of the box)."""
    N = fs[0].grid.N
    stack = np.zeros((len(fs), *(end - first).tolist()))
    a, b = np.minimum(np.maximum(first, 0), N), np.minimum(np.maximum(end, 0), N)  # the part in the grid
    if (a < b).all():
        box = tuple(map(slice, a.tolist(), b.tolist()))
        into = tuple(map(slice, (a - first).tolist(), (b - first).tolist()))
        for j, g in enumerate(fs):
            np.abs(g.values[box], out=stack[(j, *into)])
    if r != 1:  # v ** 1.0 == v; numpy's power rounds each value alike in any array
        np.power(stack, r, out=stack)
    return stack


def _window_sums(stack, w: int) -> np.ndarray:
    """The sums of stack over every window of width w on axes 1 ... n:
    S[j, i] is the sum of stack[j] over the cube of width w with first
    cell i, for every i where it fits, taken one axis at a time by
    _axis_sums.  Every add is of nonnegatives, so nothing cancels, and a
    window's sum is one fixed order of adds of its own cells, whatever
    the stack around it: a zero cell adds 0 exactly."""
    for axis in range(1, stack.ndim):
        stack = _axis_sums(stack, w, axis)
    return stack


def _axis_sums(a, w: int, axis: int) -> np.ndarray:
    """The sums of w consecutive entries of a along axis, for every start
    where they fit: the sums of 1, 2, 4, ... entries by doubling, S_2k(i)
    = S_k(i) + S_k(i + k), and the powers of two of w added lowest first
    (a itself for w = 1)."""
    size = a.shape[axis] - w + 1
    out, k, shift = None, 1, 0  # a holds the sums of k entries; out those of the first shift
    while k <= w:
        if w & k:
            part = _cut(a, axis, shift, size)
            out = part if out is None else out + part
            shift += k
        if 2 * k <= w:
            length = a.shape[axis] - k
            a = _cut(a, axis, 0, length) + _cut(a, axis, k, length)
        k *= 2
    return out


def _cut(a, axis: int, start: int, size: int) -> np.ndarray:
    """a[start : start + size] along axis, as a view."""
    return a[(slice(None),) * axis + (slice(start, start + size),)]


def _segment_norms(fs, lo, ws, which, frac, Y, fy, tol) -> np.ndarray:
    """luxemburg_norms for Y[fy[which[k]]] on row k, rows going in order
    of their Young function.  The nonzero cells of the |f| stack on the
    cubes' bounding box are taken in flat order, so those of a line of a
    cube along the last axis are one segment of them, found from a running
    count; a row is its segments line after line, which is the C order of
    its window."""
    N, n = fs[0].grid.N, fs[0].grid.n
    out = np.zeros(len(ws))

    def box(k):
        """The first cell and the extent per axis of the part of cubes k in the grid."""
        first = np.minimum(np.maximum(lo[k], 0), N)
        return first, np.minimum(np.maximum(lo[k] + ws[k, None], 0), N) - first

    # lines along the last axis: the product of the other extents, or 0 when the last is 0
    nlines = np.prod(np.minimum(box(slice(None))[1], [N] * (n - 1) + [1]), axis=1)
    live = np.flatnonzero(nlines)  # the other cubes miss the grid: norm 0
    if live.size == 0:
        return out
    if len(Y) > 1:  # one Young function leaves the rows in order
        live = live[np.argsort(fy[which[live]], kind="stable")]
    # the bounding box of the parts of the live cubes in the grid
    b0 = np.minimum(np.maximum(lo[live].min(axis=0), 0), N)
    b1 = np.minimum(np.maximum((lo[live] + ws[live, None]).max(axis=0), 0), N)
    shape = b1 - b0
    stride = np.cumprod(np.concatenate([[1], shape[:0:-1]]))[::-1]  # of C order on the bounding box
    flat = np.stack([g.values[tuple(map(slice, b0.tolist(), b1.tolist()))] for g in fs]).ravel()
    nonzero = flat != 0
    cells = np.abs(flat[nonzero])
    rank = np.zeros(flat.size + 1, dtype=np.intp)  # the nonzero cells before each flat position
    np.cumsum(nonzero, out=rank[1:])

    def segments(k, lines, line_end):
        """(first index in cells, length) of the segment of each line of
        cubes k in the grid, line after line; cube k[i] has lines[i] lines."""
        first, ext = box(k)
        line_row = np.repeat(np.arange(k.size), lines)
        start = (which[k] * int(np.prod(shape)) + (first - b0) @ stride)[line_row]
        if n > 1:  # line l of a cube steps through axes n-2 ... 0 of its part
            l = np.arange(line_row.size) - np.repeat(line_end - lines, lines)
            for axis in range(n - 2, -1, -1):
                e = ext[line_row, axis]
                start += l % e * stride[axis]
                l //= e
        seg = rank[start]
        return seg, rank[start + ext[line_row, -1]] - seg

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
                                            frac[rows[r]], Y, tol, fy[which[rows[r]]])
    return out


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


def _lr_roots(s, r: float) -> np.ndarray:
    """The L^r Luxemburg norms s^(1/r) from the cube averages s of |f|^r."""
    return s if r == 1 else s ** (1.0 / r)  # s ** 1.0 == s


@np.errstate(over="ignore")  # S(lam) may overflow to inf at a small lam; the steps allow for it
def _young_row_norms(v, row, frac, Y, tol: float, yid=None) -> np.ndarray:
    """The Luxemburg norm for Y of rows 0 ... frac.size - 1: row r has the
    nonzero cells v[row == r] (row nondecreasing) and cell fraction frac[r].
    With yid, Y is a list of Young functions and row r takes Y[yid[r]]
    (yid nondecreasing); when all rows take one, it is that one's call.

    It is the least lam with S(lam) = sum Y(v / lam) * frac <= 1.  Doubling
    hi from the row max, or else one step down by the growth bound of Y and
    halving from there, brackets it with S(lo) > 1 >= S(hi); Illinois regula
    falsi (Dowell & Jarratt 1971) on log S against log lam, a line for
    S = c lam^-p, shrinks the bracket, each step at least tol * hi / 2
    inside it (the geometric mean of the ends when S(lo) overflowed to inf).
    A row stops at S(hi) == 1 or hi - lo <= tol * hi and returns hi,
    feasible and within tol of lo.  A step makes one call of each Young
    function on the cells of its rows, which are one run, and sums each row
    in order, so a row's result depends on neither the other rows nor its
    zeros.
    """
    if yid is not None and yid[0] == yid[-1]:
        Y, yid = Y[yid[0]], None
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
    runs = [None, None]  # the place array of the last step, and (Y, first cell, end) per Young function

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
        if yid is None:
            return np.log(np.bincount(place, weights=Y._apply(cells / lam[place]), minlength=sel.size) * f)
        if runs[0] is not place:
            # the first row, then the first cell, of each Young function but the first
            cuts = np.searchsorted(place, np.searchsorted(yid[sel], np.arange(1, len(Y)))).tolist()
            runs[:] = place, [(y, a, b) for y, a, b in zip(Y, [0] + cuts, cuts + [place.size]) if a < b]
        t = cells / lam[place]
        for y, a, b in runs[1]:
            t[a:b] = y._apply(t[a:b])
        return np.log(np.bincount(place, weights=t, minlength=sel.size) * f)

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
    todo = np.flatnonzero((lo == 0.0) & (ghi < 0.0))
    p = [y.p if y.kind == "power-log" else 1.0 for y in ([Y] if yid is None else Y)]
    p = p[0] if yid is None else np.array(p)[yid[rows[todo]]]
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
