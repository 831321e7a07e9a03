import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipot import (
    AnnulusSpec,
    Grid,
    Kernel,
    annulus_integral,
    bar_phi,
    condition_d_check,
    cube_family,
    eval_kernel,
    h_alpha,
    kernel_cell_value,
    make_grid,
    parse_kernel,
    phi_theta,
)
from multipot.kernels import (
    _MAX_TERMS,
    DivergentSeriesError,
    SingularKernelError,
    _radial_integral,
    unit_l1ball_volume,
)


def frac(alpha, n=1, m=1):
    return Kernel("fractional", n, m, alpha=alpha)


def annulus_integral_grid(K, A, grid, sub=4):
    """Integral of phi over the annulus A by a brute product-lattice
    quadrature with subsampled boundary cells: the cross-check oracle for
    the 1-D reduction of annulus_integral."""
    if K.nm > 3:
        raise ValueError("grid quadrature limited to nm <= 3")
    h = grid.h
    c1 = grid.centers_1d()
    mesh = np.meshgrid(*([c1] * K.nm), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    s = np.sqrt(np.sum(pts.reshape(-1, K.m, K.n) ** 2, axis=2)).sum(axis=1)
    # conservative per-cell s-range from the slot-wise intervals
    absr = np.abs(pts.reshape(-1, K.m, K.n))
    lo_slot = np.sqrt(np.sum(np.maximum(absr - h / 2.0, 0.0) ** 2, axis=2))
    hi_slot = np.sqrt(np.sum((absr + h / 2.0) ** 2, axis=2))
    s_lo, s_hi = lo_slot.sum(axis=1), hi_slot.sum(axis=1)
    inside = (s_lo > A.inner) & (s_hi <= A.outer)
    outside = (s_hi <= A.inner) | (s_lo > A.outer)
    border = ~(inside | outside)
    total = 0.0
    if inside.any():
        total += float(np.sum(K.radial(np.maximum(s[inside], 1e-300)))) * h**K.nm
    if border.any():
        offs = (np.arange(sub) + 0.5) / sub - 0.5
        sub_mesh = np.meshgrid(*([offs * h] * K.nm), indexing="ij")
        sub_offs = np.stack([g.ravel() for g in sub_mesh], axis=1)
        for p in pts[border]:
            sp = (p[None, :] + sub_offs).reshape(-1, K.m, K.n)
            ss = np.sqrt(np.sum(sp**2, axis=2)).sum(axis=1)
            hit = (ss > A.inner) & (ss <= A.outer)
            if not hit.any():
                continue
            frac = hit.mean()
            sc = float(np.sqrt(np.sum(p.reshape(K.m, K.n) ** 2, axis=1)).sum())
            total += K.radial(max(sc, 1e-300)) * frac * h**K.nm
    return total


def exact_box_integral(alpha, sides):
    """Integral of (y_1 + ... + y_m)^(alpha - m) over the box
    [0, a_1] x ... x [0, a_m] (n = 1, alpha not an integer): the m-th
    mixed difference of s^alpha / (beta+1) ... (beta+m), beta = alpha - m."""
    m = len(sides)
    beta = alpha - m
    total = 0.0
    for corner in itertools.product((0, 1), repeat=m):
        s = sum(a for a, up in zip(sides, corner) if up)
        if s > 0:
            total += (-1) ** (m - sum(corner)) * s ** (beta + m)
    return total / math.prod(beta + j for j in range(1, m + 1))


def exact_cell_average(alpha, center, width):
    """Average of the n = 1 fractional kernel over the cell of the given
    center and width, for a cell that touches the origin: each axis splits
    at 0 into [0, width/2 - c] (reflected) and [0, width/2 + c]."""
    pieces = [[a for a in (width / 2 - c, width / 2 + c) if a > 0] for c in center]
    return sum(exact_box_integral(alpha, sides)
               for sides in itertools.product(*pieces)) / width ** len(center)


def centred_closed_form(alpha, m, h):
    """2^m h^-m sum_(k<m) (-1)^k C(m,k) ((m-k)h/2)^(beta+m) / prod_j (beta+j)."""
    beta = alpha - m
    total = sum((-1) ** k * math.comb(m, k) * ((m - k) * h / 2) ** (beta + m) for k in range(m))
    return 2**m * h**-m * total / math.prod(beta + j for j in range(1, m + 1))


class TestL1BallVolume:
    def test_1d(self):
        assert unit_l1ball_volume(1, 1) == pytest.approx(2.0)

    def test_cross_polytope(self):
        # {|y1|+|y2| <= 1} in R^2 is the square of diagonal 2
        assert unit_l1ball_volume(1, 2) == pytest.approx(2.0)

    def test_disk(self):
        assert unit_l1ball_volume(2, 1) == pytest.approx(math.pi)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(200_000, 4)).reshape(-1, 2, 2)
        s = np.sqrt(np.sum(pts**2, axis=2)).sum(axis=1)
        mc = float(np.mean(s <= 1.0)) * 16.0
        assert unit_l1ball_volume(2, 2) == pytest.approx(mc, rel=0.05)


class TestKernelValidation:
    @pytest.mark.parametrize("fields,message", [
        (dict(family="bessel", alpha=0.0), "alpha > 0"),
        (dict(family="profile"), "profile callable"),
        (dict(family="profile", profile_fn=lambda s: -1.0), "nonnegative"),
        (dict(family="profile", profile_fn=lambda s: (s - 1.0) ** 2), "monotone"),
        (dict(family="tabulated", table_s=(0.0, 1.0), table_v=(1.0,)), "matching"),
        (dict(family="tabulated", table_s=(0.0, 1.0, 1.0), table_v=(3.0, 2.0, 1.0)), "strictly increasing"),
        (dict(family="gauss"), "unknown kernel family"),
    ], ids=["bessel-alpha", "no-profile", "negative-profile", "nonmonotone-profile",
            "table-lengths", "table-order", "unknown-family"])
    def test_constructor_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Kernel(n=1, m=1, **fields)


class TestEvalKernel:
    def test_fractional_1d(self):
        assert eval_kernel(frac(0.5), [4.0]) == pytest.approx(0.5)

    def test_fractional_bilinear(self):
        assert eval_kernel(frac(1.0, 1, 2), [1.0, 2.0]) == pytest.approx(1.0 / 3.0)

    def test_fractional_singularity(self):
        with pytest.raises(SingularKernelError):
            eval_kernel(frac(0.5), [0.0])

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            frac(1.5, 1, 1)
        with pytest.raises(ValueError):
            frac(-1.0, 1, 2)

    def test_bessel_truncation_refinement(self):
        coarse = Kernel("bessel", 1, 1, alpha=1.0, T=1e3, Mt=4096)
        fine = coarse.with_quadrature(1e4, 16384)
        a, b = coarse.radial(0.5), fine.radial(0.5)
        assert a == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("n,m,alpha,four_pi", [(1, 2, 1.0, False), (1, 3, 2.0, True),
                                                    (3, 1, 2.0, True)])
    def test_bessel_default_quadrature_matches_closed_forms(self, n, m, alpha, four_pi):
        # G_1 in R^2 is e^-s / (2 pi s) and G_2 in R^3 is e^-s / (4 pi s);
        # the small s test that the quadrature range reaches t ~ s^2
        s = np.logspace(-5, math.log10(30.0), 200)
        expected = np.exp(-s) / ((4.0 if four_pi else 2.0) * math.pi * s)
        np.testing.assert_allclose(Kernel("bessel", n, m, alpha=alpha).radial(s), expected,
                                   rtol=1e-12, atol=0)


class TestKernelCellValue:
    def test_far_cell_uses_center(self):
        K = frac(0.5)
        assert kernel_cell_value(K, [4.0], 0.25) == pytest.approx(0.5)

    def test_singular_cell_closed_form(self):
        # cell [0, h) with h = 0.25: exact average of |y|^(-1/2) is
        # 2/sqrt(h) = 4; the hierarchical subsample should land within 5%
        K = frac(0.5)
        got = kernel_cell_value(K, [0.125], 0.25)
        assert got == pytest.approx(4.0, rel=0.05)

    def test_singular_cell_2d(self):
        # centered cell of width h around 0 for the bilinear kernel:
        # average of (|y1|+|y2|)^(alpha-2); cross-check by dense subsampling
        K = frac(1.0, 1, 2)
        h = 0.5
        got = kernel_cell_value(K, [0.0, 0.0], h)
        sub = 512
        offs = ((np.arange(sub) + 0.5) / sub - 0.5) * h
        Y1, Y2 = np.meshgrid(offs, offs, indexing="ij")
        dense = float(np.mean(np.abs(Y1) + np.abs(Y2)) ** 0 * np.mean(
            (np.abs(Y1) + np.abs(Y2)) ** (-1.0)
        ))
        assert got == pytest.approx(dense, rel=0.02)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            kernel_cell_value(frac(1.0, 1, 2), [1.0], 0.25)

    @pytest.mark.parametrize("m,alpha", [
        (m, alpha) for m in range(1, 7) for alpha in (0.3, 0.5, 1.3, 1.5, 2.5, 3.7, 5.5)
        if alpha < m
    ])
    def test_centred_cell_closed_form(self, m, alpha):
        h = 1.0 / 256
        exact = centred_closed_form(alpha, m, h)
        assert exact == pytest.approx(exact_cell_average(alpha, [0.0] * m, h), rel=1e-12)
        got = kernel_cell_value(frac(alpha, 1, m), np.zeros(m), h)
        assert got == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("center", [
        [0.5], [0.25], [0.5, 0.5], [0.5, -0.2], [0.1, 0.0, -0.45], [0.5, 0.0, 0.25, -0.5],
    ])
    def test_off_centre_cell_touching_the_origin(self, center):
        # a cell [c - h/2, c + h/2] with 0 inside or on its boundary, in units of h
        h = 0.125
        m = len(center)
        for alpha in (0.5, m - 0.3):
            c = np.asarray(center) * h
            got = kernel_cell_value(frac(alpha, 1, m), c, h)
            assert got == pytest.approx(exact_cell_average(alpha, c, h), rel=1e-4)

    def test_profile_family_matches_closed_form(self):
        # the same homogeneous kernel as a callable profile goes through the
        # halving with a geometric tail instead of the fractional shortcut
        m, alpha, h = 2, 0.7, 1.0 / 64
        K = Kernel("profile", 1, m, profile_fn=lambda s: s ** (alpha - m))
        got = kernel_cell_value(K, np.zeros(m), h)
        assert got == pytest.approx(centred_closed_form(alpha, m, h), rel=1e-4)

    def test_bounded_profile_settles(self):
        # phi = 1 / (1 + s): the shell ratio tends to 2^-nm; the average
        # over the centred cell is within the range of phi on it
        K = Kernel("profile", 1, 2, profile_fn=lambda s: 1.0 / (1.0 + s))
        h = 0.25
        got = kernel_cell_value(K, [0.0, 0.0], h)
        assert 1.0 / (1.0 + h) < got < 1.0
        sub = 400
        offs = ((np.arange(sub) + 0.5) / sub - 0.5) * h
        dense = float(np.mean(1.0 / (1.0 + np.abs(offs)[:, None] + np.abs(offs)[None, :])))
        assert got == pytest.approx(dense, rel=1e-5)

    def test_non_integrable_profile_raises(self):
        # s^-1.5 in one variable: the shell ratio settles at 2^0.5 > 1
        K = Kernel("profile", 1, 1, profile_fn=lambda s: s**-1.5)
        with pytest.raises(DivergentSeriesError):
            kernel_cell_value(K, [0.0], 0.25)


class TestAnnulusIntegral:
    def test_fractional_closed_form(self):
        got = annulus_integral(frac(0.5), AnnulusSpec(1.0, 1.0, 0.0))
        assert got == pytest.approx(4.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_grid_quadrature_cross_check(self):
        K = frac(0.5)
        A = AnnulusSpec(1.0, 1.0, 0.0)
        exact = annulus_integral(K, A)
        grid = make_grid(1, 4.0, 256)
        quad = annulus_integral_grid(K, A, grid)
        assert quad == pytest.approx(exact, rel=0.01)

    def test_constant_profile_measures_annulus(self):
        K = Kernel("profile", 1, 1, profile_fn=lambda s: 1.0)
        got = annulus_integral(K, AnnulusSpec(1.0, 1.0, 0.0))
        assert got == pytest.approx(2.0, rel=1e-3)

    def test_zero_profile(self):
        K = Kernel("profile", 1, 1, profile_fn=lambda s: 0.0)
        assert annulus_integral(K, AnnulusSpec(1.0, 1.0, 0.0)) == 0.0

    def test_bilinear_radial_reduction(self):
        # fractional closed form vs the generic radial quadrature
        K = frac(1.0, 1, 2)
        A = AnnulusSpec(1.0, 1.0, 0.5)
        closed = annulus_integral(K, A)
        quad = _radial_integral(K, A.inner, A.outer, 1 << 14)
        assert quad == pytest.approx(closed, rel=1e-4)

    def test_annulus_spec_validation(self):
        with pytest.raises(ValueError):
            AnnulusSpec(0.0)
        with pytest.raises(ValueError):
            AnnulusSpec(1.0, 1.0, 1.0)


class TestPhiTheta:
    def test_scales_like_t_alpha(self):
        K = frac(0.5)
        ratios = []
        for k in range(1, 7):
            t = 2.0**-k
            ratios.append(phi_theta(K, 1.0, t) / t**0.5)
        assert max(ratios) / min(ratios) < 1.1

    def test_theta_one_is_plain_sum(self):
        K = frac(0.5)
        t = 0.25
        nu0 = math.ceil(-math.log2(t))
        manual = sum(
            annulus_integral(K, AnnulusSpec(2.0**-nu, 1.0, 0.5))
            for nu in range(nu0, nu0 + 200)
        )
        assert phi_theta(K, 1.0, t) == pytest.approx(manual, rel=1e-6)

    @pytest.mark.parametrize("n,m,alpha,theta,t", [
        (1, 2, 0.5, 0.75, 0.3), (1, 1, 0.5, 1.0, 1.0), (2, 1, 1.2, 0.5, 0.1),
        (1, 2, 0.5, 0.25, 3.0), (2, 2, 3.5, 0.6, 0.01),
    ])
    def test_fractional_closed_form_is_the_series_sum(self, n, m, alpha, theta, t):
        # the fractional terms are geometric; an exactly rounded sum of
        # enough of them is the reference
        K = frac(alpha, n, m)
        nu0 = math.ceil(-math.log2(t) - 1e-12)
        terms = [annulus_integral(K, AnnulusSpec(2.0**-nu, 1.0, 0.5)) ** theta
                 for nu in range(nu0, nu0 + 1000)]
        assert phi_theta(K, theta, t) == pytest.approx(math.fsum(terms) ** (1.0 / theta),
                                                       rel=1e-13)

    def test_neighbouring_scales_reuse_annulus_masses(self):
        # the series at 2t adds one annulus below the one at t, and the one
        # at t/2 is a tail of it; a coarse Bessel quadrature keeps it cheap
        K = Kernel("bessel", 2, 2, alpha=1.0, Mt=64)
        annulus_integral.cache_clear()
        phi_theta.cache_clear()
        misses = []
        for t in (0.325, 0.65, 0.1625):
            phi_theta(K, 1.0, t)
            misses.append(annulus_integral.cache_info().misses)
        assert misses == [29, 30, 30]

    @pytest.mark.parametrize("family", ["fractional", "bessel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("L", [0.7, 1.3])
    def test_side_and_root_of_measure_agree(self, family, n, L):
        # phi_theta reads t through ceil(-log2 t - 1e-12) only, so a cube's
        # side and the n-th root of its measure give the same value; a
        # coarse Bessel quadrature keeps the series cheap
        K = Kernel(family, n, 1, alpha=0.5, Mt=64)
        fam = cube_family(Grid(n, L, 16), "centered")
        for w in np.unique(fam.w).tolist():
            Q = fam[int(np.flatnonzero(fam.w == w)[0])]
            for theta in (1.0, 0.75):
                assert phi_theta(K, theta, Q.side) == phi_theta(K, theta, Q.measure ** (1 / n))

    def test_series_path_matches_the_closed_form(self):
        # a profile kernel with the fractional profile takes the series
        K = frac(0.5, 1, 2)
        P = Kernel("profile", 1, 2, profile_fn=lambda s: s ** (0.5 - 2.0))
        for theta in (0.5, 1.0):
            assert phi_theta(P, theta, 0.3) == pytest.approx(phi_theta(K, theta, 0.3), rel=1e-6)

    def test_slow_series_takes_the_geometric_tail(self):
        # alpha = 0.02: each term is 2^-0.02 of the last, so _MAX_TERMS of them
        # stop about 0.4 % short of the closed form, and the tail closes the gap
        K = frac(0.02)
        P = Kernel("profile", 1, 1, profile_fn=lambda s: s ** (0.02 - 1))
        closed = phi_theta(K, 1.0, 0.25)
        head = math.fsum(annulus_integral(P, AnnulusSpec(2.0**-nu, 1.0, 0.5))
                         for nu in range(2, 2 + _MAX_TERMS))
        assert head < closed * (1.0 - 1e-3)
        assert phi_theta(P, 1.0, 0.25) == pytest.approx(closed, rel=1e-10)

    def test_growing_terms_raise(self):
        # s^-2 in one dimension: the annulus masses double at each finer scale
        P = Kernel("profile", 1, 1, profile_fn=lambda s: s**-2.0)
        with pytest.raises(DivergentSeriesError, match="stopped decreasing"):
            phi_theta(P, 1.0, 0.25)

    def test_small_theta_dominates(self):
        K = frac(0.5)
        for t in (0.1, 0.5, 1.0):
            assert phi_theta(K, 0.6, t) >= phi_theta(K, 1.0, t) - 1e-12

    def test_equivalent_to_cumulative_mass(self):
        # Phi_1(t) stays within one constant band of the cumulative mass
        # at the dilated scale across dyadic t; for the fractional family
        # the mass of {sum |y_i| <= s} is unit_l1ball_volume(n, m) n m s^alpha / alpha
        K = frac(0.5)
        delta, eps = 1.0, 0.5  # the annuli A(2^-nu, 1, 1/2) of phi_theta
        ratios = []
        for k in range(0, 6):
            t = 2.0**-k
            s = delta * (1 + eps) * t
            mass = unit_l1ball_volume(K.n, K.m) * K.n * K.m * s**K.alpha / K.alpha
            ratios.append(phi_theta(K, 1.0, t) / mass)
        assert max(ratios) / min(ratios) < 4.0

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            phi_theta(frac(0.5), 0.0, 1.0)
        with pytest.raises(ValueError):
            phi_theta(frac(0.5), 1.0, -1.0)


def bar_phi_kronecker(K, t, samples=10_000):
    """Sampled sup of the profile over s in (t, 2t]: a Kronecker lattice
    of the interval plus both ends."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    u = np.modf(np.arange(1, samples + 1) * golden)[0]
    s = np.concatenate([t * (1.0 + u), [t * (1.0 + 1e-9), 2.0 * t]])
    return float(np.max(K.radial(s)))


MONOTONE_KERNELS = [
    frac(0.5),
    frac(1.5, 2, 2),
    Kernel("bessel", 1, 1, alpha=0.5),
    Kernel("bessel", 1, 2, alpha=2.5),
    Kernel("profile", 1, 1, profile_fn=lambda s: s),
    Kernel("profile", 1, 2, profile_fn=lambda s: math.exp(-s)),
]


@st.composite
def tabulated_kernels(draw):
    k = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k))
    start = draw(st.sampled_from([0.0, 0.1]))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    return Kernel("tabulated", 1, 1, table_s=tuple(start + np.cumsum(steps) - steps[0]),
                  table_v=tuple(values))


class TestBarPhi:
    def test_decreasing_profile_sup_at_inner_edge(self):
        K = frac(0.5)
        # sup over s in (t, 2t] of s^(-1/2) approaches t^(-1/2)
        assert bar_phi(K, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_increasing_profile_sup_at_outer_edge(self):
        K = Kernel("profile", 1, 1, profile_fn=lambda s: s)
        assert bar_phi(K, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_tabulated_sup_at_inner_knot(self):
        # (0.6, 1.2] holds the knot s = 1 of value 2; both ends are lower
        K = Kernel("tabulated", 1, 1, table_s=(0, .5, 1, 4), table_v=(3, 1, 2, .5))
        assert bar_phi(K, 0.6) == 2.0

    @pytest.mark.parametrize("K", MONOTONE_KERNELS, ids=lambda K: f"{K.family}-{K.n}-{K.m}")
    @pytest.mark.parametrize("t", [2.0**-5, 0.3, 1.0, 3.7])
    def test_monotone_kernels_match_sampled_sup(self, K, t):
        assert bar_phi(K, t) == pytest.approx(bar_phi_kronecker(K, t), rel=1e-14)

    def test_profile_outside_checked_range_raises(self):
        # zero on the whole checked range [1e-4, 100], so the monotonicity
        # check accepts it, but its sup over (150, 300] is 1
        K = Kernel("profile", 1, 1, profile_fn=lambda s: math.exp(-(s - 200) ** 2))
        for t in (150.0, 50.0 * (1.0 + 1e-12), 0.5e-4):
            with pytest.raises(ValueError, match=r"\[0\.0001, 100\]"):
                bar_phi(K, t)
        assert bar_phi(K, 50.0) == bar_phi(K, 1e-4) == 0.0  # (t, 2t] inside the range

    @settings(max_examples=40, deadline=None)
    @given(K=tabulated_kernels(), t=st.floats(0.01, 8.0))
    def test_tabulated_never_below_sampled_sup(self, K, t):
        assert bar_phi(K, t) >= bar_phi_kronecker(K, t)


class TestConditionD:
    def test_fractional_ratio_closed_form(self):
        rep = condition_d_check(frac(0.5), delta=1.0, eps=0.0, k_range=range(-5, 1))
        expected = 0.5 / (2.0 * (2.0**0.5 - 1.0))
        for k, r in rep["per_k"].items():
            assert r == pytest.approx(expected, rel=0.02)
        assert not rep["unbounded_growth_flag"]

    def test_constant_profile_k_independent(self):
        K = Kernel("profile", 1, 1, profile_fn=lambda s: 1.0)
        rep = condition_d_check(K, k_range=range(-4, 1))
        vals = list(rep["per_k"].values())
        assert max(vals) / min(vals) < 1.01

    def test_growing_profile_bounded_on_range(self):
        K = Kernel("profile", 1, 1, profile_fn=lambda s: math.exp(s))
        rep = condition_d_check(K, k_range=range(-4, 1))
        assert math.isfinite(rep["C_max"])

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            condition_d_check(frac(0.5), k_range=range(0, 0))


class TestHAlpha:
    def test_log_case_at_one(self):
        assert h_alpha(1.0, 1, 1, [1.0]) == pytest.approx(1.0)

    def test_power_case(self):
        got = h_alpha(0.5, 1, 1, [0.5])
        assert got == pytest.approx(0.5**-0.5 + 1.0)

    def test_flat_case(self):
        assert h_alpha(3.0, 1, 2, [0.3, 0.4]) == 1.0

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            h_alpha(0.5, 1, 1, [2.5])


class TestParseKernel:
    def test_fractional(self):
        K = parse_kernel("frac0.5", 1, 1)
        assert K.family == "fractional"
        assert K.alpha == 0.5

    def test_bessel(self):
        K = parse_kernel("bessel1.0", 1, 2)
        assert K.family == "bessel"
        assert K.m == 2

    def test_tabulated(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("0.1,1.0\n1.0,0.5\n2.0,0.1\n")
        K = parse_kernel(f"profile:{path}", 1, 1)
        assert K.family == "tabulated"
        assert K.radial(1.0) == pytest.approx(0.5)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_kernel("gauss", 1, 1)
