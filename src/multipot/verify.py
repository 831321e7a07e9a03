"""Per-theorem harnesses: compute both sides of each weighted inequality
on a corpus, report ratios and empirical constants.

Empirical constants are reported, never asserted against any a-priori
value; the inequalities only promise that some finite constant exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import CubeSet, Grid, GridFunction, integrate
from .kernels import Kernel, phi_theta
from .operators import apply_commutator, apply_potential, maximal, maximal_corpus
from .orlicz import NormSpec, YoungFunction, luxemburg_norms
from .weights import gen_bmo_log, rh_check

__all__ = [
    "HypothesisUnmet",
    "InequalityReport",
    "make_corpus",
    "testing_condition_W",
    "remark_bundle",
    "verify_strong",
    "verify_fefferman_stein",
    "verify_coifman",
    "verify_ftd",
    "verify_weak_maximal",
    "verify_control",
    "lorentz_weak_quasinorm",
]


class HypothesisUnmet(RuntimeError):
    """A harness precondition (weight class, testing condition) failed."""


@dataclass
class InequalityReport:
    theorem: str
    params: dict
    instances: list = field(default_factory=list)  # dicts: lhs, rhs, ratio
    notes: list = field(default_factory=list)

    def add(self, lhs: float, rhs: float, tag: str = "") -> float:
        if lhs > 0.0 and not rhs > 0.0:
            raise ArithmeticError(
                f"vanishing right side against positive left side ({tag})"
            )
        ratio = lhs / rhs if rhs > 0.0 else 0.0
        if not math.isfinite(ratio):
            raise ArithmeticError(f"non-finite ratio ({tag})")
        self.instances.append({"lhs": lhs, "rhs": rhs, "ratio": ratio, "tag": tag})
        return ratio

    @property
    def max_ratio(self) -> float:
        return max((i["ratio"] for i in self.instances), default=0.0)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "instances": self.instances,
            "max_ratio": self.max_ratio,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# corpus

def _indicator(grid: Grid, rng) -> np.ndarray:
    level = int(rng.integers(1, grid.num_levels))
    w = grid.N >> level
    lo = tuple(int(rng.integers(0, grid.N // w)) * w for _ in range(grid.n))
    out = np.zeros(grid.shape)
    out[tuple(slice(l, l + w) for l in lo)] = 1.0
    return out


def _tent(grid: Grid, rng) -> np.ndarray:
    center = [float(rng.uniform(-grid.L / 2, grid.L / 2)) for _ in range(grid.n)]
    radius = float(rng.uniform(grid.L / 8, grid.L / 2))
    mesh = grid.center_mesh()
    dist = np.sqrt(sum((x - c) ** 2 for x, c in zip(mesh, center)))
    return np.maximum(0.0, 1.0 - dist / radius)


def _trig_bump(grid: Grid, rng) -> np.ndarray:
    freq = int(rng.integers(1, 4))
    phase = float(rng.uniform(0, 2 * math.pi))
    mesh = grid.center_mesh()
    wave = sum(np.sin(freq * math.pi * x / grid.L + phase) for x in mesh)
    bump = 0.5 * (1.0 + wave / grid.n)
    return bump * _indicator(grid, rng)


def make_corpus(grid: Grid, m: int, count: int = 20, seed: int = 0) -> list:
    """Deterministic tuples of nonnegative test functions: dyadic-box
    indicators, tents and positive trigonometric bumps."""
    rng = np.random.default_rng(seed)
    kinds = [_indicator, _tent, _trig_bump]
    out = []
    for _ in range(count):
        fs = []
        for _ in range(m):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            fs.append(GridFunction(grid, kind(grid, rng), nonneg=True))
        out.append(tuple(fs))
    return out


# ---------------------------------------------------------------------------
# operator dispatch and discrete norms

def _outputs(K: Kernel, grid: Grid, corpus, ell: int, bs):
    """(fs, T(fs)) for each tuple fs of the corpus: the potential at ell = 0,
    else its commutator with bs, by default log|x| in every slot, built once."""
    if ell and bs is None:
        bs = [gen_bmo_log(grid)] * K.m
    for fs in corpus:
        yield fs, apply_potential(K, fs) if ell == 0 else apply_commutator(K, bs, fs)


def _lq_norm(g: GridFunction, q: float) -> float:
    return integrate(g.map(lambda v: np.abs(v) ** q)) ** (1.0 / q)


def _upper_level_masses(g: GridFunction, u: GridFunction):
    """The distinct values v > 0 of |g| in descending order, and the
    u-mass of {|g| >= v} for each.

    With the cells sorted by |g| descending, u({|g| >= v}) is the running
    sum of u up to the last cell of value v.
    """
    av = np.abs(g.values).ravel()
    order = np.argsort(-av, kind="stable")
    v = av[order]
    v = v[v > 0]
    mass = np.cumsum(u.values.ravel()[order][: v.size]) * g.grid.cell_volume
    # the last cell of each run of equal values carries the mass of {|g| >= v}
    last = np.append(v[1:] != v[:-1], True)[: v.size]
    return v[last], mass[last]


def lorentz_weak_quasinorm(g: GridFunction, u: GridFunction, p: float) -> float:
    """sup over lambda of lambda * u({|g| > lambda})^(1/p).

    On a grid the sup is attained as lambda approaches a sample value
    from below, so it equals max over distinct values v of
    v * u({|g| >= v})^(1/p).
    """
    if p <= 0:
        raise ValueError("need p > 0")
    v, mass = _upper_level_masses(g, u)
    return float(np.max(v * mass ** (1.0 / p), initial=0.0))


# ---------------------------------------------------------------------------
# testing condition (B)

def testing_condition_W(theta: float, gamma: float, X: NormSpec, Y, u: GridFunction, vs,
                        kernel: Kernel, p: float, q: float, family) -> float:
    """max over j, sup over the cube family, of the weighted product that
    tests the two-weight hypothesis.

    Y is an m x m nested list of norm specs, Y[i][j]; vs holds one weight
    per linear slot; family is a CubeSet or a list of cubes on the grid of u.
    """
    m, grid, vs = kernel.m, u.grid, list(vs)
    if len(Y) != m or any(len(row) != m for row in Y):
        raise ValueError("Y must be an m x m matrix of norm specs")
    if len(vs) != m:
        raise ValueError(f"need one weight v per linear slot: m = {m}, got {len(vs)}")
    if gamma <= 0:
        raise ValueError("need gamma > 0")
    for i, v in enumerate(vs):
        if np.any(v.values <= 0):
            raise ValueError(f"weight v_{i + 1} vanishes on a cell")
    ug = GridFunction(grid, u.values**gamma)
    invs = [GridFunction(grid, 1.0 / v.values) for v in vs]
    expo = 1.0 / q - 1.0 / p
    cubes = CubeSet.of(grid, family)
    base = cubes.per_width(lambda Q: phi_theta(kernel, theta, Q.side) * Q.measure**expo)
    # a scalar power per cube: numpy's vectorized power can round differently
    base *= [x ** (1.0 / gamma) for x in luxemburg_norms(ug, cubes, X).tolist()]
    cubes, base = cubes[base != 0.0], base[base != 0.0]
    # one call per distinct (weight, spec): a row of Y0 holds one spec
    norms = {(i, s): luxemburg_norms(invs[i], cubes, s) for i, row in enumerate(Y) for s in dict.fromkeys(row)}
    best = 0.0
    for j in range(m):
        term = base.copy()
        for i in range(m):
            term *= norms[i, Y[i][j]]
        best = max([best] + term.tolist())
    return best


def remark_bundle(ell: int, q: float, p_list, delta: float = 0.5) -> dict:
    """Orlicz bundle from the worked examples after the two-weight theorem.

    Returns X^k and Y^k (m x m) for k <= ell, in the form the testing
    condition consumes.
    """
    m = len(p_list)
    pprime = [p / (p - 1.0) for p in p_list]
    y0 = [
        [NormSpec.power_log(pprime[i], pprime[i] - 1.0 + delta) for _ in range(m)]
        for i in range(m)
    ]
    out = {"Y0": y0}
    if q > 1:
        out["X0"] = NormSpec.power_log(q, q - 1.0 + delta)
        if ell == 1:
            out["X1"] = NormSpec.power_log(q, 2.0 * q - 1.0 + delta)
    if ell == 1:
        y1 = [
            [
                NormSpec.power_log(
                    pprime[i],
                    (2.0 if i == j else 1.0) * pprime[i] - 1.0 + delta,
                )
                for j in range(m)
            ]
            for i in range(m)
        ]
        out["Y1"] = y1
    return out


# ---------------------------------------------------------------------------
# harnesses

def _phi_theta_scale(K: Kernel, theta: float, power: float = 1.0):
    """The scale factor Q -> phi_theta(K, theta, side of Q) ** power that
    maximal takes."""
    return lambda Q: phi_theta(K, theta, Q.side) ** power


def verify_strong(
    ell: int,
    p_list,
    q: float,
    kernel: Kernel,
    u: GridFunction,
    vs,
    corpus,
    family,
    bs=None,
    delta_rem: float = 0.5,
) -> InequalityReport:
    """Two-weight strong bound: weighted L^q norm of the operator against
    the product of weighted L^{p_i} norms."""
    m = kernel.m
    if len(p_list) != m:
        raise ValueError("one exponent per linear slot")
    p = 1.0 / sum(1.0 / pi for pi in p_list)
    if not (1.0 / m < p <= q):
        raise HypothesisUnmet(f"exponents must satisfy 1/m < p <= q, got p={p}, q={q}")
    grid = u.grid
    bundle = remark_bundle(ell, q, p_list, delta_rem)
    if q > 1:  # (theta, gamma, X, Y) of each testing condition
        conditions = {"W(1,1,X^l,Y0)": (1.0, 1.0, bundle["X1" if ell == 1 else "X0"], bundle["Y0"])}
        if ell == 1:
            conditions["W(1,1,X0,Y1)"] = (1.0, 1.0, bundle["X0"], bundle["Y1"])
    else:
        conditions = {"W(q,q,LlogL^lq,Y0)": (q, q, NormSpec.power_log(1.0, ell * q), bundle["Y0"])}
        if ell == 1:
            conditions["W(q,1,L,Y1)"] = (q, 1.0, NormSpec.lebesgue(1.0), bundle["Y1"])
    wvals = {name: testing_condition_W(*args, u, vs, kernel, p, q, family)
             for name, args in conditions.items()}
    for name, val in wvals.items():
        if not math.isfinite(val):
            raise HypothesisUnmet(f"testing condition {name} is not finite")
    report = InequalityReport(
        "strong",
        {
            "ell": ell,
            "p": p_list,
            "q": q,
            "m": m,
            "n": grid.n,
            "N": grid.N,
            "testing": wvals,
            "delta_rem": delta_rem,
        },
    )
    for i, (fs, T) in enumerate(_outputs(kernel, grid, corpus, ell, bs)):
        lhs = _lq_norm(GridFunction(grid, np.abs(T.values) * u.values), q)
        rhs = 1.0
        for f, v, pi in zip(fs, vs, p_list):
            rhs *= _lq_norm(GridFunction(grid, f.values * v.values), pi)
        report.add(lhs, rhs, f"tuple{i}")
    return report


def verify_fefferman_stein(
    case: str,
    ell: int,
    p_list,
    delta: float,
    kernel: Kernel,
    us,
    corpus,
    family,
    bs=None,
) -> InequalityReport:
    """Two-weight bound with a maximal function of the weights on the right."""
    m = kernel.m
    if len(p_list) != m:
        raise ValueError("one exponent per linear slot")
    if len(us) != m:
        raise ValueError(f"one weight per linear slot: m = {m}, got {len(us)}")
    p = 1.0 / sum(1.0 / pi for pi in p_list)
    if case == "i":
        if not (p > 1 and 0 < delta < 1):
            raise ValueError("case i needs p > 1 and delta in (0, 1)")
        phi = _phi_theta_scale(kernel, 1.0, p)
        wspec = NormSpec.power_log(1.0, p * (1 + ell) - 1.0 + delta)
    elif case == "ii":
        if not (p <= 1 and ell == 0):
            raise ValueError("case ii needs p <= 1 and ell = 0")
        phi = _phi_theta_scale(kernel, p, p)
        wspec = NormSpec.lebesgue(1.0)
    elif case == "iii":
        if not (p <= 1 and ell == 1):
            raise ValueError("case iii needs p <= 1 and ell = 1")
        phi = _phi_theta_scale(kernel, p, p)
        wspec = NormSpec.lebesgue(1.0 / p)
    else:
        raise ValueError(f"unknown case {case!r}")
    grid = us[0].grid
    mweights = maximal_corpus(phi, [wspec], [[ui] for ui in us], grid, family)
    report = InequalityReport(
        "fefferman-stein",
        {"case": case, "ell": ell, "p": p_list, "delta": delta, "m": m,
         "n": grid.n, "N": grid.N},
    )
    uprod = np.ones(grid.shape)  # the product of u_i^(p / p_i), the same for every tuple
    for ui, pi in zip(us, p_list):
        uprod *= ui.values ** (p / pi)
    for i, (fs, T) in enumerate(_outputs(kernel, grid, corpus, ell, bs)):
        lhs = integrate(GridFunction(grid, np.abs(T.values) ** p * uprod)) ** (1.0 / p)
        rhs = 1.0
        for f, pi, mw in zip(fs, p_list, mweights):
            rhs *= integrate(
                GridFunction(grid, np.abs(f.values) ** pi * mw.values)
            ) ** (1.0 / pi)
        report.add(lhs, rhs, f"tuple{i}")
    return report


_RH_EXPONENT = 2.0  # the reverse-Holder class the Coifman harness certifies the weight in


def verify_coifman(
    case: str,
    ell: int,
    p: float,
    kernel: Kernel,
    w: GridFunction,
    corpus,
    family,
    bs=None,
) -> InequalityReport:
    """Weighted L^p control of the operator by its maximal operator, for a
    weight certified in RH(s): s = _RH_EXPONENT, or max(_RH_EXPONENT, 1/p)
    in case ii."""
    grid = w.grid
    if case == "i":
        if not (0 < p <= 1 and ell == 0):
            raise ValueError("case i needs 0 < p <= 1 and ell = 0")
        phi = _phi_theta_scale(kernel, p)
        specs = [NormSpec.lebesgue(1.0)] * kernel.m
        s = _RH_EXPONENT
    elif case == "ii":
        if not (0 < p <= 1 and ell == 1):
            raise ValueError("case ii needs 0 < p <= 1 and ell = 1")
        phi = _phi_theta_scale(kernel, p)
        specs = [NormSpec.power_log(1.0, 1.0)] * kernel.m
        s = max(_RH_EXPONENT, 1.0 / p)
    elif case == "iii":
        if not p > 1:
            raise ValueError("case iii needs p > 1")
        phi = _phi_theta_scale(kernel, 1.0)
        specs = [NormSpec.power_log(1.0, float(ell))] * kernel.m
        s = _RH_EXPONENT
    else:
        raise ValueError(f"unknown case {case!r}")
    rh = rh_check(w, s, family)
    if not math.isfinite(rh) or rh == 0.0:
        raise HypothesisUnmet(f"weight failed RH({s}) certification")
    report = InequalityReport(
        "coifman",
        {"case": case, "ell": ell, "p": p, "m": kernel.m, "n": grid.n,
         "N": grid.N, "rh_exponent": s, "rh_constant": rh},
    )
    corpus = list(corpus)
    Ms = maximal_corpus(phi, specs, corpus, grid, family)
    for i, ((fs, T), M) in enumerate(zip(_outputs(kernel, grid, corpus, ell, bs), Ms)):
        lhs = integrate(GridFunction(grid, np.abs(T.values) ** p * w.values))
        rhs = integrate(GridFunction(grid, M.values**p * w.values))
        report.add(lhs, rhs, f"tuple{i}")
    return report


def verify_ftd(
    case: str,
    ell: int,
    p: float,
    kernel: Kernel,
    u: GridFunction,
    corpus,
    family,
    bs=None,
) -> InequalityReport:
    """Weighted bound against the maximal operator with a maximal function
    of the weight on the right."""
    if case == "i":
        if not 0 < p <= 1:
            raise ValueError("case i needs 0 < p <= 1")
        gamma = float(ell)
    elif case == "ii":
        if not p > 1:
            raise ValueError("case ii needs p > 1")
        gamma = float(int(ell * p + p))
    else:
        raise ValueError(f"unknown case {case!r}")
    grid = u.grid
    phi = _phi_theta_scale(kernel, 1.0)
    specs = [NormSpec.power_log(1.0, float(ell))] * kernel.m
    Mu = maximal(lambda Q: 1.0, [NormSpec.power_log(1.0, gamma)], [u], grid, family)
    report = InequalityReport(
        "for-t-d",
        {"case": case, "ell": ell, "p": p, "gamma": gamma, "m": kernel.m,
         "n": grid.n, "N": grid.N},
    )
    corpus = list(corpus)
    Ms = maximal_corpus(phi, specs, corpus, grid, family)
    for i, ((fs, T), M) in enumerate(zip(_outputs(kernel, grid, corpus, ell, bs), Ms)):
        lhs = integrate(GridFunction(grid, np.abs(T.values) ** p * u.values))
        rhs = integrate(GridFunction(grid, M.values**p * Mu.values))
        report.add(lhs, rhs, f"tuple{i}")
    return report


def _check_submultiplicative(B: YoungFunction, tol: float = 0.01) -> None:
    ss = np.logspace(-2, 2, 12)
    for s in ss:
        lhs = B(s * ss)
        rhs = B(s) * B(ss)
        if np.any(lhs > rhs * (1.0 + tol) + 1e-300):
            raise HypothesisUnmet("Young function is not submultiplicative")


def verify_weak_maximal(
    phi,
    B: YoungFunction,
    us,
    corpus,
    family,
) -> InequalityReport:
    """Weighted endpoint bound for the multilinear Orlicz maximal operator
    M_{phi,B}, phi a function of the cube such as lambda Q: f(Q.measure).

    The left side is sup over lambda of u({M > lambda^m})^m / B_m(1/lambda).
    As lambda^m rises to a value v of M the level set stays {M >= v} and
    B_m(1/lambda) falls, so the sup is the max over the distinct values v
    of u({M >= v})^m / B_m(v^(-1/m)).  m is the number of weights, and
    every tuple of the corpus must hold m functions.
    """
    m, corpus = len(us), [list(fs) for fs in corpus]
    for fs in corpus:
        if len(fs) != m:
            raise ValueError(f"one weight per linear slot: {m} weights, a corpus tuple of {len(fs)}")
    _check_submultiplicative(B)
    grid = us[0].grid
    Bm = B.iterate(m)
    u = GridFunction(
        grid, np.prod([ui.values for ui in us], axis=0) ** (1.0 / m)
    )
    mw = maximal_corpus(lambda Q: float(Bm(phi(Q) ** (1.0 / m))), [NormSpec.lebesgue(1.0)],
                        [[ui] for ui in us], grid, family)
    report = InequalityReport("weak-maximal", {"m": m, "n": grid.n, "N": grid.N})
    Ms = maximal_corpus(phi, [NormSpec.orlicz(B)] * m, corpus, grid, family)
    for i, (fs, M) in enumerate(zip(corpus, Ms)):
        v, mass = _upper_level_masses(M, u)
        denom = Bm(v ** (-1.0 / m))
        ok = denom > 0
        lhs = float(np.max(mass[ok] ** m / denom[ok], initial=0.0))
        rhs = 1.0
        for f, w in zip(fs, mw):
            rhs *= integrate(GridFunction(grid, np.asarray(Bm(np.abs(f.values))) * w.values))
        report.add(lhs, rhs, f"tuple{i}")
    return report


def verify_control(
    ell: int,
    delta_l: float,
    kernel: Kernel,
    u: GridFunction,
    corpus,
    family,
    bs=None,
    us=None,
) -> InequalityReport:
    """Weak-quasinorm control of the operator by the maximal operator.  With
    us (ell = 0 only), each tuple also gets a row of the weighted weak-type
    corollary, whose weights start from the L (log L)^(1/2) maximal
    function of each u_i."""
    if delta_l <= 0:
        raise ValueError("need delta_l > 0")
    if us is not None and ell != 0:
        raise ValueError("the corollary branch is derived for ell = 0 only")
    grid = u.grid
    m = kernel.m
    phi = _phi_theta_scale(kernel, 1.0)
    specs = [NormSpec.power_log(1.0, float(ell))] * m
    weight = maximal(lambda Q: 1.0, [NormSpec.power_log(1.0, ell + delta_l)], [u], grid, family)
    report = InequalityReport(
        "control",
        {"ell": ell, "delta_l": delta_l, "m": m, "n": grid.n, "N": grid.N},
    )
    cor_weights = None
    if us is not None:
        inner = maximal_corpus(lambda Q: 1.0, [NormSpec.power_log(1.0, 0.5)],
                               [[ui] for ui in us], grid, family)
        cor_weights = maximal_corpus(_phi_theta_scale(kernel, 1.0, 1.0 / m),
                                     [NormSpec.lebesgue(1.0)], [[w] for w in inner], grid, family)
    corpus = list(corpus)
    Ms = maximal_corpus(phi, specs, corpus, grid, family)
    for i, ((fs, T), M) in enumerate(zip(_outputs(kernel, grid, corpus, ell, bs), Ms)):
        lhs = lorentz_weak_quasinorm(T, u, 1.0 / m)
        rhs = lorentz_weak_quasinorm(M, weight, 1.0 / m)
        report.add(lhs, rhs, f"tuple{i}")
        if cor_weights is not None:
            rhs2 = 1.0
            for f, w in zip(fs, cor_weights):
                rhs2 *= integrate(GridFunction(grid, np.abs(f.values) * w.values))
            report.add(lhs, rhs2, f"tuple{i}-corollary")
    return report
