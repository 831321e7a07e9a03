"""Kernels on (R^n)^m, annulus geometry and the growth-condition certifier.

All supported kernel families are radial in s = sum_i |y_i|, which gives
every integral here a one-dimensional reduction against the surface
measure of the level set {sum_i |y_i| = s}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "Kernel",
    "AnnulusSpec",
    "eval_kernel",
    "kernel_cell_value",
    "annulus_integral",
    "tilde_phi",
    "phi_theta",
    "bar_phi",
    "condition_d_check",
    "h_alpha",
    "unit_l1ball_volume",
    "parse_kernel",
    "SingularKernelError",
    "DivergentSeriesError",
]


# The s-range on which a callable profile is checked to be monotone, and
# so the only range on which bar_phi may take its sup at the ends
PROFILE_RANGE = (1e-4, 100.0)


class SingularKernelError(ValueError):
    """Kernel evaluated at its singular point."""


class DivergentSeriesError(ArithmeticError):
    """A kernel integral or annulus series failed to converge."""


def unit_l1ball_volume(n: int, m: int) -> float:
    """Volume of {(y_1..y_m): sum_i |y_i| <= 1}, y_i in R^n.

    Splitting each slot into radial coordinates gives a Dirichlet
    integral: (area of S^(n-1))^m * Gamma(n)^m / Gamma(nm+1).
    """
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return area**m * math.gamma(n) ** m / math.gamma(n * m + 1)


def _slice_measure_coeff(n: int, m: int) -> float:
    """sigma(s) = coeff * s^(nm-1), surface measure of {sum |y_i| = s}."""
    return unit_l1ball_volume(n, m) * n * m


@lru_cache(maxsize=None)
def _bessel_nodes(T: float, Mt: int):
    """Log-spaced midpoint nodes for the Bessel subordination integral."""
    lo, hi = math.log(1.0 / T), math.log(T)
    du = (hi - lo) / Mt
    u = lo + (np.arange(Mt) + 0.5) * du
    t = np.exp(u)
    return t, du


@dataclass(frozen=True)
class Kernel:
    """Nonnegative kernel phi on (R^n)^m, radial in s = sum_i |y_i|.

    Families: 'fractional' s^(alpha-nm) with 0 < alpha < nm, 'bessel'
    (subordination quadrature on Mt log-spaced nodes over t in [1/T, T];
    the defaults are exact to about 1e-14 for s in [1e-5, 30]), 'profile'
    (callable monotone profile), 'tabulated' (sampled profile).
    """

    family: str
    n: int
    m: int
    alpha: float = 0.0
    profile_fn: object = None
    table_s: tuple = ()
    table_v: tuple = ()
    T: float = 1e14
    Mt: int = 512

    def __post_init__(self):
        nm = self.n * self.m
        if self.family == "fractional":
            if not 0.0 < self.alpha < nm:
                raise ValueError(
                    f"fractional kernel needs alpha in (0, nm)=(0, {nm}), got {self.alpha}"
                )
        elif self.family == "bessel":
            if self.alpha <= 0:
                raise ValueError("bessel kernel needs alpha > 0")
        elif self.family == "profile":
            if self.profile_fn is None:
                raise ValueError("profile kernel needs a profile callable")
            self._check_monotone(self.profile_fn)
        elif self.family == "tabulated":
            if len(self.table_s) < 2 or len(self.table_s) != len(self.table_v):
                raise ValueError("tabulated kernel needs matching s/value tables")
            if any(b <= a for a, b in zip(self.table_s, self.table_s[1:])):
                raise ValueError("tabulated s values must be strictly increasing")
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

    @staticmethod
    def _check_monotone(fn):
        s = np.logspace(*np.log10(PROFILE_RANGE), 200)
        v = np.asarray([fn(x) for x in s], dtype=float)
        if np.any(v < 0):
            raise ValueError("kernel profile must be nonnegative")
        up = np.all(np.diff(v) >= -1e-12 * np.maximum(v[:-1], 1e-300))
        down = np.all(np.diff(v) <= 1e-12 * np.maximum(v[:-1], 1e-300))
        if not (up or down):
            raise ValueError("kernel profile must be monotone")

    @property
    def nm(self) -> int:
        return self.n * self.m

    def radial(self, s):
        """Profile value at s = sum_i |y_i| (vectorized)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if self.family == "fractional":
            if np.any(s == 0):
                raise SingularKernelError("fractional kernel is singular at 0")
            out = s ** (self.alpha - self.nm)
        elif self.family == "profile":
            out = np.array([self.profile_fn(x) for x in s.flat], dtype=float).reshape(s.shape)
        elif self.family == "tabulated":
            out = np.interp(s, np.asarray(self.table_s), np.asarray(self.table_v))
        else:  # bessel
            t, du = _bessel_nodes(self.T, self.Mt)
            beta = (self.alpha - self.nm) / 2.0
            base = np.exp(-t) * t**beta * du
            const = 1.0 / (
                2.0**self.nm * math.gamma(self.alpha / 2.0) * math.pi ** (self.nm / 2.0)
            )
            flat = s.ravel()
            out = np.empty_like(flat)
            step = max(1, 2**22 // self.Mt)  # cap the outer-product workspace
            for i in range(0, flat.size, step):
                chunk = flat[i : i + step]
                out[i : i + step] = np.exp(
                    -np.square(chunk)[:, None] / (4.0 * t[None, :])
                ).dot(base)
            out = const * out.reshape(s.shape)
        return float(out[0]) if scalar else out

    def with_quadrature(self, T: float, Mt: int) -> "Kernel":
        return Kernel(
            self.family, self.n, self.m, self.alpha, self.profile_fn,
            self.table_s, self.table_v, T, Mt,
        )


@dataclass(frozen=True)
class AnnulusSpec:
    """The annulus delta(1-eps) t < sum_i |y_i| <= delta(1+eps) 2t."""

    t: float
    delta: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if self.t <= 0 or self.delta <= 0 or not 0.0 <= self.eps < 1.0:
            raise ValueError("need t > 0, delta > 0, eps in [0, 1)")

    @property
    def inner(self) -> float:
        return self.delta * (1.0 - self.eps) * self.t

    @property
    def outer(self) -> float:
        return self.delta * (1.0 + self.eps) * 2.0 * self.t


def _slot_norms(K: Kernel, y) -> float:
    y = np.asarray(y, dtype=float).reshape(K.m, K.n)
    return float(np.sqrt(np.sum(y * y, axis=1)).sum())


def eval_kernel(K: Kernel, y) -> float:
    """phi at a point of (R^n)^m, given as shape (m, n) or a flat nm vector."""
    return K.radial(_slot_norms(K, y))


def kernel_cell_value(K: Kernel, center, width: float) -> float:
    """Center value of phi on a product cell, or its average where the
    cell touches the origin: s = sum_i |y_i| is even in every coordinate,
    so such a cell is, axis by axis, at most two boxes [0, a] with a
    corner at the origin (`_corner_box_integral`).  Relative error: below
    3e-5 for n = 1 (closed form, m <= 6, alpha >= 0.3), about 1e-3 for
    n >= 2 with m >= 2, where the slot norms |y_i| have cone points.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != K.nm:
        raise ValueError("cell center arity does not match the kernel")
    touches = np.all(np.abs(center) <= width / 2.0 + 1e-15 * width)
    if not touches:
        return eval_kernel(K, center)
    # per axis, the sides of the boxes below and above 0 and their counts
    pieces = [[(width / 2.0, 2)] if c == 0.0 else
              [(a, 1) for a in (width / 2.0 - c, width / 2.0 + c) if a > 0.0] for c in center]
    total = 0.0
    for combo in itertools.product(*pieces):
        sides, counts = zip(*combo)
        total += math.prod(counts) * _corner_box_integral(K, np.array(sides))
    return total / width**K.nm


# the 4-point Gauss-Legendre rule on [0, 1]: on [-1, 1] its nodes are
# +-sqrt(3/7 -+ 2/7 sqrt(6/5)) and its weights (18 +- sqrt(30)) / 36
_GAUSS_X = (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                            0.3399810435848563, 0.8611363115940526])) / 2.0
_GAUSS_W = np.array([0.34785484513745385, 0.6521451548625462,
                     0.6521451548625462, 0.34785484513745385]) / 2.0
_MAX_DEPTH = 50  # halvings of a corner box before its integral gives up
_RATIO_SETTLED = 1e-6  # relative change of the shell ratio that ends the halving


def _corner_box_integral(K: Kernel, sides: np.ndarray) -> float:
    """Integral of phi over the box [0, a_1] x ... x [0, a_nm]: its
    half-size copy plus a shell that keeps away from the origin.  The
    fractional kernel is homogeneous of degree alpha - nm, so the copy
    holds 2^-alpha of the integral.  Other families halve the box until
    the ratio of successive shells settles below 1, then add the tail.
    """
    if K.family == "fractional":
        return _shell_integral(K, sides) / (1.0 - 2.0**-K.alpha)
    shells = []
    for depth in range(_MAX_DEPTH):
        shells.append(_shell_integral(K, sides * 0.5**depth))
        if depth >= 2 and min(shells[-3:-1]) > 0.0:
            r, r_prev = shells[-1] / shells[-2], shells[-2] / shells[-3]
            if abs(r - r_prev) <= _RATIO_SETTLED * r and r < 1.0:
                return sum(shells) + shells[-1] * r / (1.0 - r)
    raise DivergentSeriesError(f"singular cell average did not settle in {_MAX_DEPTH} halvings")


def _shell_integral(K: Kernel, sides: np.ndarray) -> float:
    """Integral of phi over [0, a]^nm minus [0, a/2]^nm by a tensor
    Gauss-Legendre rule.  Per axis, [a/2, a] is one segment and [0, a/2]
    is cut into segments doubling from about min(sides) / 2, so that each
    is about as wide as its distance from the singular point.
    """
    nodes, weights, near = [], [], []
    for a in sides:
        halvings = max(0, round(math.log2(a / min(sides))))
        edges = np.concatenate([[0.0], a * 2.0 ** -np.arange(halvings + 1.0, -1.0, -1.0)])
        width = np.diff(edges)[:, None]
        nodes.append((edges[:-1, None] + width * _GAUSS_X).ravel())
        weights.append((width * _GAUSS_W).ravel())
        near.append((halvings + 1) * _GAUSS_X.size)
    coords = np.meshgrid(*nodes, indexing="ij", sparse=True)
    s = sum(np.sqrt(sum(c * c for c in coords[i : i + K.n])) for i in range(0, K.nm, K.n))
    weight = reduce(np.multiply.outer, weights)
    weight[tuple(slice(k) for k in near)] = 0.0
    return float(np.sum(weight * K.radial(s)))


def annulus_integral(K: Kernel, A: AnnulusSpec, nodes: int = 4096) -> float:
    """Integral of phi over the annulus A, by the exact 1-D reduction
    against the slice measure of the l1-of-norms sphere."""
    if K.family == "fractional":
        c = _slice_measure_coeff(K.n, K.m)
        return c * (A.outer**K.alpha - A.inner**K.alpha) / K.alpha
    return _radial_integral(K, A.inner, A.outer, nodes)


def _radial_integral(K: Kernel, lo: float, hi: float, nodes: int) -> float:
    """integral_lo^hi profile(s) sigma(s) ds by log-spaced midpoints."""
    if hi <= lo:
        return 0.0
    c = _slice_measure_coeff(K.n, K.m)
    floor = max(lo, hi * 1e-14)
    ulo, uhi = math.log(floor), math.log(hi)
    du = (uhi - ulo) / nodes
    s = np.exp(ulo + (np.arange(nodes) + 0.5) * du)
    vals = K.radial(s)
    return float(np.sum(vals * c * s**K.nm) * du)


def tilde_phi(K: Kernel, t: float, shell_nodes: int = 64, max_shells: int = 2000) -> float:
    """Cumulative kernel mass over {sum |y_i| <= t}.

    Closed form for the fractional family; dyadic-shell quadrature with a
    geometric convergence test otherwise.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if K.family == "fractional":
        c = _slice_measure_coeff(K.n, K.m)
        return c * t**K.alpha / K.alpha
    total = 0.0
    growing = 0
    prev = None
    for j in range(max_shells):
        shell = _radial_integral(K, t * 2.0 ** (-j - 1), t * 2.0**-j, shell_nodes)
        total += shell
        if prev is not None and shell >= prev * (1.0 - 1e-12) and shell > 0:
            growing += 1
            if growing >= 10:
                raise DivergentSeriesError(
                    "cumulative kernel mass is not converging near 0"
                )
        else:
            growing = 0
        prev = shell
        if total > 0 and shell < 1e-14 * total:
            break
    return total


@lru_cache(maxsize=65536)
def bar_phi(K: Kernel, t: float) -> float:
    """Sup of phi over the annulus A_(t,1,0).

    The kernel is radial in s, so the sup over the annulus is the sup of
    the profile over s in (t, 2t].  Fractional, Bessel and profile kernels
    are monotone in s, so it sits at an end (the open one taken at
    t(1 + 1e-9)); a tabulated profile is linear between its knots, so its
    sup also may sit at a knot inside.  A profile is only known to be
    monotone on PROFILE_RANGE, so (t, 2t] must lie inside it.
    """
    lo, hi = PROFILE_RANGE
    if K.family == "profile" and not (lo <= t and 2.0 * t <= hi):
        raise ValueError(f"a profile kernel is checked monotone only for s in [{lo:g}, {hi:g}]; "
                         f"(t, 2t] = ({t:g}, {2.0 * t:g}] leaves it")
    s = [t * (1.0 + 1e-9), 2.0 * t]
    if K.family == "tabulated":
        s += [x for x in K.table_s if t < x < 2.0 * t]
    return float(np.max(K.radial(np.array(s))))


def condition_d_check(
    K: Kernel,
    delta: float = 1.0,
    eps: float = 0.5,
    k_range=range(-5, 1),
) -> dict:
    """Per-scale certification of the kernel growth condition.

    For each k: ratio_k = sup_{A_(2^k,1,0)} phi / (2^-knm * integral of
    phi over A_(2^k,delta,eps)).  Boundedness of ratio_k over k is the
    growth condition; monotone growth across the whole range is flagged.
    """
    ks = list(k_range)
    if not ks:
        raise ValueError("empty k range")
    ratios = {}
    for k in ks:
        t = 2.0**k
        sup = bar_phi(K, t)
        den = annulus_integral(K, AnnulusSpec(t, delta, eps)) / (2.0 ** (k * K.nm))
        if den == 0.0:
            raise ZeroDivisionError(f"empty annulus integral at k={k}")
        ratios[k] = sup / den
    vals = [ratios[k] for k in ks]
    unbounded = all(b > a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))
    return {
        "per_k": ratios,
        "C_max": max(vals),
        "unbounded_growth_flag": unbounded and len(vals) >= 3,
    }


@lru_cache(maxsize=65536)
def phi_theta(
    K: Kernel,
    theta: float,
    t: float,
    delta: float = 1.0,
    eps: float = 0.5,
    max_terms: int = 400,
) -> float:
    """l^theta aggregation of annulus masses at scales 2^-nu below t.

    A fractional annulus mass is A 2^(-nu alpha), so its series is
    geometric and summed in closed form; other families sum term by term.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("need theta in (0, 1]")
    if t <= 0:
        raise ValueError("need t > 0")
    nu0 = math.ceil(-math.log2(t) - 1e-12)
    if K.family == "fractional":
        first = annulus_integral(K, AnnulusSpec(2.0**-nu0, delta, eps)) ** theta
        return (first / (1.0 - 2.0 ** (-K.alpha * theta))) ** (1.0 / theta)
    terms = []
    total = 0.0
    growing = 0
    truncated = True
    for i in range(max_terms):
        nu = nu0 + i
        a = annulus_integral(K, AnnulusSpec(2.0**-nu, delta, eps))
        term = a**theta
        total += term
        if terms and term >= terms[-1] * (1.0 - 1e-12) and term > 0:
            growing += 1
            if growing >= 10:
                raise DivergentSeriesError("annulus series terms stopped decreasing")
        else:
            growing = 0
        terms.append(term)
        if total > 0 and term < 1e-14 * total:
            truncated = False
            break
    tail = 0.0
    if truncated and len(terms) >= 2 and terms[-1] < terms[-2]:
        # geometric tail estimate from the last observed ratio
        r = terms[-1] / terms[-2]
        tail = terms[-1] * r / (1.0 - r)
    return (total + tail) ** (1.0 / theta)


def h_alpha(alpha: float, n: int, m: int, x) -> float:
    """Leading-order profile of the Bessel kernel near the origin."""
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.sqrt(np.sum(x * x)))
    if not 0.0 < r < 2.0:
        raise ValueError("h_alpha is the near-zero profile: need 0 < |x| < 2")
    nm = n * m
    if alpha < nm:
        return r ** (alpha - nm) + 1.0
    if alpha == nm:
        return math.log(1.0 / r) + 1.0
    return 1.0


def parse_kernel(text: str, n: int, m: int) -> Kernel:
    """Parse the config forms frac{alpha}, bessel{alpha}, profile:file.csv."""
    text = text.strip()
    if text.startswith("frac"):
        return Kernel("fractional", n, m, alpha=float(text[4:]))
    if text.startswith("bessel"):
        return Kernel("bessel", n, m, alpha=float(text[6:]))
    if text.startswith("profile:"):
        path = text.split(":", 1)[1]
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        return Kernel(
            "tabulated", n, m,
            table_s=tuple(rows[:, 0]), table_v=tuple(rows[:, 1]),
        )
    raise ValueError(f"unrecognized kernel spec {text!r}")
