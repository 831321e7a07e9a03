"""Young functions, Luxemburg cube norms and generalized Holder checks."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Cube, GridFunction

__all__ = [
    "YoungFunction",
    "NormSpec",
    "young_eval",
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
        if np.any(t < 0):
            raise ValueError("Young functions take t >= 0")
        if self.kind == "identity":
            out = t
        elif self.kind == "power-log":
            logplus = np.where(t > 1, np.log(np.maximum(t, 1e-300)), 0.0)
            out = t**self.p * (1.0 + logplus) ** self.alpha
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


def young_eval(Y: YoungFunction, t) -> float:
    return Y(t)


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
    """||f||_{X,Q}: closed form for L^r, bisection on lambda for Young specs.

    The normalizing measure is the full |Q|; cells outside the box count
    as zero, matching zero-extension of compactly supported data.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.abs(f.restrict(Q)).ravel()
    if v.size == 0:
        return 0.0
    cellfrac = f.grid.cell_volume / Q.measure
    if spec.r is not None:
        return float((np.sum(v**spec.r) * cellfrac) ** (1.0 / spec.r))
    vmax = v.max()
    if vmax == 0.0:
        return 0.0
    Y = spec.young
    v = v[v > 0]

    def constraint(lam):
        return float(np.sum(Y(v / lam)) * cellfrac)

    hi = vmax
    for _ in range(200):
        if constraint(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("Luxemburg bracket failed to close upward")
    lo = 0.5 * hi
    while lo > 1e-300 and constraint(lo) <= 1.0:
        hi = lo
        lo *= 0.5
    while (hi - lo) > tol * hi:
        mid = 0.5 * (lo + hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# Values of |f| gathered per chunk of cubes in luxemburg_norms (~0.5 MB).
# The windows of a whole family reach (N-w+1)^n w^n values, about 1e9 at
# n=3, N=64, so they are never gathered at once.
_CHUNK_ELEMENTS = 1 << 16


def luxemburg_norms(f: GridFunction, cubes, spec: NormSpec, tol: float = 1e-10) -> np.ndarray:
    """luxemburg_norm(f, Q, spec, tol) for each Q of a list of equal-width cubes.

    The windows of |f| come from a zero-padded copy, which is the
    zero-extension that clipped cubes assume.  The bisection on lambda
    runs on all windows at once and each row takes the steps the scalar
    loop takes.  A row sum also adds the zero cells that the scalar loop
    leaves out, so it can differ from the scalar sum in the last bit; the
    norms then agree to within tol.  For a single cube luxemburg_norm is
    the faster path.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cubes = list(cubes)
    if not cubes:
        return np.zeros(0)
    grid, w = f.grid, cubes[0].w
    for Q in cubes:
        if Q.w != w:
            raise ValueError("luxemburg_norms needs cubes of one width")
        if not grid.compatible(Q.grid):
            raise ValueError("cube does not live on this grid")
    N, n = grid.N, grid.n
    # a corner outside [-w, N] gives an empty cube, as does the clamped one
    lo = np.clip(np.array([Q.lo for Q in cubes]), -w, N)
    before, after = max(0, -lo.min()), max(0, lo.max() + w - N)
    padded = np.pad(np.abs(f.values), (before, after))
    windows = sliding_window_view(padded, (w,) * n)
    starts = lo + before
    cellfrac = grid.cell_volume / cubes[0].measure
    out = np.empty(len(cubes))
    step = max(1, _CHUNK_ELEMENTS // w**n)
    for s in range(0, len(cubes), step):
        v = windows[tuple(starts[s : s + step].T)].reshape(-1, w**n)
        out[s : s + step] = _row_norms(v, spec, cellfrac, tol)
    return out


def _row_norms(v: np.ndarray, spec: NormSpec, cellfrac: float, tol: float) -> np.ndarray:
    """The Luxemburg norm of each row of v (nonnegative cell values)."""
    if spec.r is not None:
        sums = np.sum(v**spec.r, axis=1) * cellfrac
        # numpy's vectorized power can round differently from the scalar
        # power in luxemburg_norm, so the root is taken row by row
        return np.array([s ** (1.0 / spec.r) for s in sums])
    Y = spec.young

    def fits(rows, lam):
        return np.sum(Y(v[rows] / lam[:, None]), axis=1) * cellfrac <= 1.0

    # rows of zeros keep hi = lo = 0 and take no step below
    hi = v.max(axis=1)
    rows = np.flatnonzero(hi > 0)
    for _ in range(200):
        if rows.size == 0:
            break
        rows = rows[~fits(rows, hi[rows])]
        hi[rows] *= 2.0
    if rows.size:
        raise ArithmeticError("Luxemburg bracket failed to close upward")
    lo = 0.5 * hi
    rows = np.flatnonzero(lo > 1e-300)
    while rows.size:
        rows = rows[fits(rows, lo[rows])]
        hi[rows] = lo[rows]
        lo[rows] *= 0.5
        rows = rows[lo[rows] > 1e-300]
    rows = np.arange(len(v))
    while True:
        rows = rows[hi[rows] - lo[rows] > tol * hi[rows]]
        if rows.size == 0:
            return hi
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = fits(rows, mid)
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]


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
