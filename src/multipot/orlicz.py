"""Young functions, Luxemburg cube norms and generalized Holder checks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grid import Cube, CubeSet, GridFunction

__all__ = [
    "YoungFunction",
    "NormSpec",
    "young_inverse",
    "luxemburg_norm",
    "luxemburg_norms",
    "holder_check",
    "parse_norm_spec",
    "InvalidHolderTriple",
]


class InvalidHolderTriple(ValueError):
    """The (A, B, C) triple fails the inverse-product inequality."""


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
        if self.kind == "identity":
            out = t
        elif self.kind == "power-log":
            # x ** 1.0 == x and a factor y ** 0.0 == 1.0 changes no bit, so they are skipped
            out = t if self.p == 1 else t**self.p
            if self.alpha:
                logterm = 1.0 + np.log(np.maximum(t, 1.0))  # 1 + log+ t
                out = out * (logterm if self.alpha == 1 else logterm**self.alpha)
        elif self.kind == "exp":
            out = np.expm1(t)
        elif self.kind == "exp-power":
            out = np.expm1(t ** (1.0 / self.q))
        else:  # composed
            out = t
            for part in reversed(self.parts):
                out = np.asarray(part(out))
        return out if out.ndim else float(out)

    def iterate(self, m: int) -> "YoungFunction":
        """The m-fold composition of self with itself."""
        if m == 1:
            return self
        return YoungFunction("composed", parts=(self,) * m)


def young_inverse(Y: YoungFunction, s: float, tol: float = 1e-12) -> float:
    """Inverse by bracketing bisection: t with Y(t) ~ s."""
    if s < 0:
        raise ValueError("need s >= 0")
    if s == 0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if Y(hi) >= s:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("young_inverse bracket did not close (malformed Y?)")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if Y(mid) >= s:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    else:
        raise ArithmeticError("young_inverse did not converge in 200 iterations")
    return 0.5 * (lo + hi)


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

    def inverse(self, t: float) -> float:
        if self.r is not None:
            return float(np.asarray(t, dtype=float) ** (1.0 / self.r))
        return young_inverse(self.young, t)


L1 = NormSpec.lebesgue(1.0)


def luxemburg_norm(f: GridFunction, Q: Cube, spec: NormSpec, tol: float = 1e-10) -> float:
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
    return float(_row_norms([v[None]], spec, [f.grid.cell_volume / Q.measure], tol)[0])


# Values of |f| gathered per chunk of cubes in luxemburg_norms (~0.5 MB).
# The windows of a whole family reach (N-w+1)^n w^n values, about 1e9 at
# n=3, N=64, so they are never gathered at once.
_CHUNK_ELEMENTS = 1 << 16
_MAX_STEPS = 200  # cap on each loop of _row_norms


def luxemburg_norms(f, cubes, spec: NormSpec, tol: float = 1e-10, which=None) -> np.ndarray:
    """luxemburg_norm(f, Q, spec, tol) for each Q of a CubeSet or a list of
    cubes of any widths, on the grid of f.

    With `which`, f is a sequence of functions on one grid and cube k is
    taken on f[which[k]]; a row's norm depends only on its own cells, so
    it equals that of the one-function call bit for bit.

    |f| is written once into one zero-filled stack (function, then grid
    axes), which is the zero-extension that clipped cubes assume, and the
    windows of each width are one read-only strided view of it.  The
    root-finder on lambda runs on all windows of a chunk at once, a chunk
    may hold several widths and functions, and each row stops on its own.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    fs = [f] if which is None else list(f)
    grid = fs[0].grid
    if not all(grid.compatible(g.grid) for g in fs):
        raise ValueError("all input functions must share one grid")
    cubes = CubeSet.of(grid, cubes)
    which = np.zeros(len(cubes), dtype=np.int64) if which is None else np.asarray(which, dtype=np.int64)
    if which.shape != (len(cubes),) or (which < 0).any() or (which >= len(fs)).any():
        raise ValueError("which needs one function index per cube")
    out, ws = np.zeros(len(cubes)), cubes.w
    if not len(cubes):
        return out
    # a corner outside [-w, N] gives an empty cube, as does the clamped one
    lo = np.clip(cubes.lo, -ws[:, None], grid.N)
    before, after = max(0, -lo.min()), max(0, (lo + ws[:, None]).max() - grid.N)
    padded = np.zeros((len(fs),) + (before + grid.N + after,) * grid.n)
    for j, g in enumerate(fs):
        np.abs(g.values, out=padded[(j,) + (slice(before, before + grid.N),) * grid.n])
    starts = lo + before
    parts, used = [], 0  # (cube indices, their windows, cell fraction) of the chunk being filled

    def solve():
        idx, blocks, fracs = zip(*parts)
        out[np.concatenate(idx)] = _row_norms(blocks, spec, fracs, tol)

    for w in np.unique(ws).tolist():
        idx, frac = np.flatnonzero(ws == w), grid.cell_volume / (w * grid.h) ** grid.n  # as Cube.measure
        windows = as_strided(padded, padded.shape[:1] + tuple(s - w + 1 for s in padded.shape[1:])
                             + (w,) * grid.n, padded.strides + padded.strides[1:], writeable=False)
        while idx.size:
            if used and used + w**grid.n > _CHUNK_ELEMENTS:  # flush before the cap
                solve()
                parts, used = [], 0
            k = max(1, (_CHUNK_ELEMENTS - used) // w**grid.n)  # a wider cube goes alone
            sel = idx[:k]
            parts.append((sel, windows[(which[sel], *starts[sel].T)].reshape(-1, w**grid.n), frac))
            idx, used = idx[k:], used + parts[-1][1].size
    solve()
    return out


def _row_norms(blocks, spec: NormSpec, cellfrac, tol: float) -> np.ndarray:
    """The Luxemburg norm of each row of the 2-D blocks of nonnegative cell
    values, block after block; the cells of block k have cellfrac[k].

    For a Young spec: the least lam with S(lam) = sum Y(v / lam) * cellfrac
    <= 1.  Doubling hi from the row max, or else one step down by the
    growth bound of Y and halving from there, brackets it with
    S(lo) > 1 >= S(hi); Illinois regula falsi (Dowell & Jarratt 1971) on
    log S against log lam, a line for S = c lam^-p, shrinks the bracket,
    each step at least tol * hi / 2 inside it (the geometric mean of the
    ends when S(lo) overflowed to inf).  A row stops at S(hi) == 1
    or hi - lo <= tol * hi and returns hi, feasible and within tol of lo.
    A step makes one Y call on the nonzero cells of its rows and sums each row
    left to right, so a row's result depends on neither its chunk nor its zeros.
    """
    if spec.r is not None:
        r = spec.r  # v ** 1.0 == v and s ** 1.0 == s, so r = 1 skips both powers
        sums = np.concatenate([np.sum(v if r == 1 else v**r, axis=1) * c for v, c in zip(blocks, cellfrac)])
        if r == 1:
            return sums
        # numpy's vectorized power can round differently from the scalar
        # power of the closed form, so the root is taken row by row
        return np.array([s ** (1.0 / r) for s in sums.tolist()])
    return _young_row_norms(blocks, spec.young, cellfrac, tol)


@np.errstate(over="ignore")  # S(lam) may overflow to inf at a small lam; the steps allow for it
def _young_row_norms(blocks, Y: YoungFunction, cellfrac, tol: float) -> np.ndarray:
    """The root-finder of _row_norms for a Young spec."""
    frac = np.repeat(cellfrac, [len(v) for v in blocks])  # cellfrac per row
    # the nonzero cells in row-major order and their rows; each loop starts from all of them
    full = cells = (np.concatenate([v[v != 0] for v in blocks]), np.repeat(
        np.arange(frac.size), np.concatenate([np.count_nonzero(v, axis=1) for v in blocks])))
    place = rowfrac = None  # the place of each cell's row in the rows gathered last, their cellfrac

    def log_s(rows, lam):
        """log S(lam) on the given rows (ascending, within those of the last call);
        the cells are gathered again only when a loop restarts from full or rows shrank."""
        nonlocal cells, place, rowfrac
        if cells is full or rows.size != rowfrac.size:
            live = np.bincount(rows, minlength=frac.size) > 0
            cells = tuple(a[live[cells[1]]] for a in cells)  # the cells of rows
            place, rowfrac = (np.cumsum(live) - 1)[cells[1]], frac[rows]
        return np.log(np.bincount(place, weights=Y(cells[0] / lam[place]), minlength=rows.size) * rowfrac)

    out = np.concatenate([v.max(axis=1) for v in blocks])  # zero rows have norm 0, take no step
    rows = np.flatnonzero(out > 0)
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
    todo, cells = np.flatnonzero((lo == 0.0) & (ghi < 0.0)), full
    if todo.size:
        x = hi[todo] * np.exp(ghi[todo] / p)
        x = np.where(x > 1e-300, x, hi[todo])
        g = log_s(rows[todo], x)
        fit = g <= 0.0
        lo[todo[~fit]], glo[todo[~fit]] = x[~fit], g[~fit]
        hi[todo[fit]], ghi[todo[fit]] = x[fit], g[fit]
        todo = todo[g < 0.0]
    # a lo below 1e-300 counts as infeasible and is not evaluated
    for _ in range(_MAX_STEPS):
        lo[todo] = 0.5 * hi[todo]
        todo = todo[lo[todo] > 1e-300]
        if todo.size == 0:
            break
        g = log_s(rows[todo], lo[todo])
        fit = g <= 0.0
        glo[todo[~fit]] = g[~fit]
        hi[todo[fit]], ghi[todo[fit]] = lo[todo[fit]], g[fit]
        todo = todo[g < 0.0]
    if todo.size:
        raise ArithmeticError("Luxemburg bracket failed to close downward")
    hi_moved, cells = np.zeros(rows.size, dtype=bool), full  # as after a halving
    for _ in range(_MAX_STEPS):
        done = (ghi == 0.0) | (hi - lo <= tol * hi)
        if done.any():
            out[rows[done]] = hi[done]
            keep = ~done
            rows, lo, hi, glo, ghi, hi_moved = (a[keep] for a in (rows, lo, hi, glo, ghi, hi_moved))
        if rows.size == 0:
            return out
        d = 0.5 * tol * hi
        # a NaN step (lo not evaluated) goes to lo + d; where S(lo) overflowed
        # the line has no slope, and the step bisects log lam instead
        step = np.where(np.isinf(glo), 0.5, ghi / (ghi - glo))
        x = np.fmin(np.fmax(hi * (lo / hi) ** step, lo + d), hi - d)
        g = log_s(rows, x)
        fit = g <= 0.0
        # the value at the end that stays put a second step running is halved
        half = np.where(fit == hi_moved, 0.5, 1.0)
        lo, hi = np.where(fit, lo, x), np.where(fit, x, hi)
        glo, ghi = np.where(fit, half * glo, g), np.where(fit, g, half * ghi)
        hi_moved = fit
    raise ArithmeticError("Luxemburg solver did not converge")


@lru_cache(maxsize=64)  # NormSpec is frozen; a failing triple raises and is not cached
def validate_holder_triple(A: NormSpec, B: NormSpec, C: NormSpec, tol: float = 0.15) -> None:
    """Check A^-1(t) B^-1(t) <= C^-1(t) on a sampled t-range.

    A uniform constant up to 1 + tol is allowed: the product bound
    survives a constant in the inverse inequality, and the canonical
    pairing L log L x exp L -> L^1 needs about 1.14.
    """
    for t in np.logspace(-3, 6, 40):
        if A.inverse(t) * B.inverse(t) > C.inverse(t) * (1.0 + tol):
            raise InvalidHolderTriple(
                f"A^-1(t)B^-1(t) > C^-1(t) at t={t:.4g}"
            )


def holder_check(
    f: GridFunction,
    g: GridFunction,
    Q: Cube,
    A: NormSpec,
    B: NormSpec,
    C: NormSpec,
    tol: float = 1e-10,
) -> float:
    """||fg||_{C,Q} / (||f||_{A,Q} ||g||_{B,Q}) after validating the triple."""
    validate_holder_triple(A, B, C)
    num = luxemburg_norm(f * g, Q, C, tol)
    den = luxemburg_norm(f, Q, A, tol) * luxemburg_norm(g, Q, B, tol)
    if den == 0.0:
        return 0.0
    return num / den


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
