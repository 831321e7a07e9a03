import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipot import orlicz
from multipot import (
    GridFunction,
    Kernel,
    NormSpec,
    PhiScaling,
    apply_commutator,
    apply_potential,
    apply_potential_reference,
    cube_family,
    luxemburg_norm,
    make_grid,
    maximal,
    maximal_single,
    parse_norm_spec,
)


def frac(alpha, n=1, m=1):
    return Kernel("fractional", n, m, alpha=alpha)


def box_profile():
    return Kernel("profile", 1, 1, profile_fn=lambda s: 1.0 if s <= 1.0 else 0.0)


class TestApplyPotential:
    def test_zero_input_gives_zero(self):
        g = make_grid(1, 1.0, 8)
        K = frac(1.0, 1, 2)
        f = GridFunction.constant(g, 1.0)
        z = GridFunction.constant(g, 0.0)
        out = apply_potential(K, [f, z])
        assert np.all(out.values == 0.0)

    def test_box_kernel_is_windowed_mass(self):
        # T f(x) = |[x-1, x+1] ∩ [0,1)| for the unit window profile
        g = make_grid(1, 2.0, 64)
        K = box_profile()
        f = GridFunction.from_callable(g, lambda x: 1.0 if 0 <= x < 1 else 0.0)
        out = apply_potential(K, [f])
        x0 = int(np.argmin(np.abs(g.centers_1d())))
        expected = 1.0  # x near 0: overlap [−1,1] ∩ [0,1)
        assert out.values[x0] == pytest.approx(expected, abs=2 * g.h)

    def test_matches_reference_oracle(self):
        g = make_grid(1, 1.0, 8)
        K = frac(1.0, 1, 2)
        rng = np.random.default_rng(0)
        f1 = GridFunction(g, rng.uniform(size=g.shape))
        f2 = GridFunction(g, rng.uniform(size=g.shape))
        fast = apply_potential(K, [f1, f2])
        slow = apply_potential_reference(K, [f1, f2])
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-12)

    def test_matches_reference_2d(self):
        g = make_grid(2, 1.0, 4)
        K = frac(1.0, 2, 1)
        rng = np.random.default_rng(1)
        f = GridFunction(g, rng.uniform(size=g.shape))
        fast = apply_potential(K, [f])
        slow = apply_potential_reference(K, [f])
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-12)

    def test_matches_reference_2d_bilinear(self):
        # coincident supports put both y cells on x, so the singular
        # centre cell of the nm = 4 offset table is used
        g = make_grid(2, 1.0, 4)
        K = frac(1.0, 2, 2)
        a, b = np.zeros(g.shape), np.zeros(g.shape)
        a[1, 1], a[1, 2] = 1.0, 0.5
        b[1, 1], b[1, 2] = 0.3, 1.7
        fs = [GridFunction(g, a), GridFunction(g, b)]
        fast = apply_potential(K, fs)
        slow = apply_potential_reference(K, fs)
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-12)

    def test_multilinearity(self):
        g = make_grid(1, 1.0, 8)
        K = frac(1.0, 1, 2)
        rng = np.random.default_rng(2)
        f = GridFunction(g, rng.uniform(size=g.shape))
        h = GridFunction(g, rng.uniform(size=g.shape))
        w = GridFunction(g, rng.uniform(size=g.shape))
        lhs = apply_potential(K, [2.0 * f + h, w]).values
        rhs = 2.0 * apply_potential(K, [f, w]).values + apply_potential(K, [h, w]).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_positivity_and_monotonicity(self):
        g = make_grid(1, 1.0, 8)
        K = frac(0.5)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        bigger = f + GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        a = apply_potential(K, [f])
        b = apply_potential(K, [bigger])
        assert np.all(a.values >= 0)
        assert np.all(b.values >= a.values - 1e-14)

    def test_arity_mismatch(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            apply_potential(frac(1.0, 1, 2), [GridFunction.constant(g, 1.0)])


class TestApplyCommutator:
    def test_constant_symbols_vanish(self):
        g = make_grid(1, 1.0, 8)
        K = frac(1.0, 1, 2)
        rng = np.random.default_rng(4)
        fs = [GridFunction(g, rng.uniform(size=g.shape)) for _ in range(2)]
        bs = [GridFunction.constant(g, 2.5), GridFunction.constant(g, -0.7)]
        out = apply_commutator(K, bs, fs)
        assert np.abs(out.values).max() < 1e-10

    def test_linear_symbol_closed_form(self):
        # b(x) = x, window kernel, f = indicator of [0,1):
        # value near x = 0 is ∫_0^1 (0 - y) dy = -1/2
        g = make_grid(1, 2.0, 128)
        K = box_profile()
        b = GridFunction.from_callable(g, lambda x: x)
        f = GridFunction.from_callable(g, lambda x: 1.0 if 0 <= x < 1 else 0.0)
        out = apply_commutator(K, [b], [f])
        x0 = int(np.argmin(np.abs(g.centers_1d())))
        assert out.values[x0] == pytest.approx(-0.5, abs=4 * g.h)

    def test_linearity_in_inputs(self):
        g = make_grid(1, 1.0, 8)
        K = frac(1.0, 1, 2)
        rng = np.random.default_rng(5)
        bs = [GridFunction(g, rng.normal(size=g.shape)) for _ in range(2)]
        f, h = (GridFunction(g, rng.uniform(size=g.shape)) for _ in range(2))
        w = GridFunction(g, rng.uniform(size=g.shape))
        lhs = apply_commutator(K, bs, [f + h, w]).values
        rhs = apply_commutator(K, bs, [f, w]).values + apply_commutator(K, bs, [h, w]).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMaximal:
    def test_constants(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        fs = [GridFunction.constant(g, 2.0), GridFunction.constant(g, 3.0)]
        specs = [NormSpec.lebesgue(1.5), NormSpec.lebesgue(2.0)]
        out = maximal(PhiScaling.constant(1.0), specs, fs, g, fam)
        np.testing.assert_allclose(out.values, 6.0, rtol=1e-12)

    def test_brute_force_oracle(self):
        g = make_grid(1, 2.0, 16)
        fam = cube_family(g, "centered")
        f = GridFunction.from_callable(g, lambda x: 1.0 if 0 <= x < 1 else 0.0)
        spec = NormSpec.lebesgue(1.0)
        out = maximal_single(PhiScaling.constant(1.0), spec, f, g, fam)
        # independent exhaustive scan
        expected = np.full(g.shape, -np.inf)
        for Q in fam:
            val = luxemburg_norm(f, Q, spec)
            sl = Q.slices()
            expected[sl] = np.maximum(expected[sl], val)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    def test_product_bound(self):
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "centered")
        rng = np.random.default_rng(6)
        fs = [GridFunction(g, rng.uniform(size=g.shape), nonneg=True) for _ in range(2)]
        specs = [NormSpec.lebesgue(1.0)] * 2
        joint = maximal(PhiScaling.constant(1.0), specs, fs, g, fam)
        singles = [
            maximal_single(PhiScaling.constant(1.0), specs[i], fs[i], g, fam)
            for i in range(2)
        ]
        assert np.all(joint.values <= singles[0].values * singles[1].values + 1e-12)

    def test_scaling_exact(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        spec = NormSpec.lebesgue(1.0)
        a = maximal_single(PhiScaling.constant(1.0), spec, f, g, fam)
        b = maximal_single(PhiScaling.constant(2.5), spec, f, g, fam)
        np.testing.assert_allclose(b.values, 2.5 * a.values, rtol=1e-13)

    def test_constant_maximal_single(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        u = GridFunction.constant(g, 1.0)
        out = maximal_single(PhiScaling.constant(1.0), NormSpec.lebesgue(1.0), u, g, fam)
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-12)

    def test_logl_constant_cross_check(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        u = GridFunction.constant(g, 1.0)
        spec = NormSpec.power_log(1.0, 1.0)
        out = maximal_single(PhiScaling.constant(1.0), spec, u, g, fam)
        expected = luxemburg_norm(u, g.whole_box(), spec)
        np.testing.assert_allclose(out.values, expected, rtol=1e-8)

    def test_majorizes_continuous_function(self):
        g = make_grid(1, 1.0, 32)
        fam = cube_family(g, "centered")
        u = GridFunction.from_callable(g, lambda x: 1.0 + 0.5 * math.cos(x))
        out = maximal_single(PhiScaling.constant(1.0), NormSpec.lebesgue(1.0), u, g, fam)
        assert np.all(out.values >= u.values - 1e-10)

    def test_unweighted_boundedness_smoke(self):
        # discrete operator norm over a random corpus stays bounded
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "centered")
        rng = np.random.default_rng(8)
        specs = [NormSpec.lebesgue(1.0)] * 2
        p1 = p2 = 4.0
        p = 2.0
        worst = 0.0
        cell = g.cell_volume
        for _ in range(50):
            fs = [GridFunction(g, rng.uniform(size=g.shape), nonneg=True) for _ in range(2)]
            M = maximal(PhiScaling.constant(1.0), specs, fs, g, fam)
            num = (np.sum(M.values**p) * cell) ** (1 / p)
            den = 1.0
            for f, pi in zip(fs, (p1, p2)):
                den *= (np.sum(f.values**pi) * cell) ** (1 / pi)
            worst = max(worst, num / den)
        assert math.isfinite(worst)
        assert worst < 50.0


def per_cube_maximal(phis, specs, fs, grid, family):
    """The per-cube loop over luxemburg_norm that maximal batches."""
    out = np.full(grid.shape, -np.inf)
    for Q in family:
        val = phis(Q.measure)
        for f, spec in zip(fs, specs):
            if val == 0.0:
                break
            val *= luxemburg_norm(f, Q, spec)
        sl = Q.slices()
        out[sl] = np.maximum(out[sl], val)
    return out


def family_of(g, kind):
    if kind == "triples":
        return [Q.dilate3() for Q in cube_family(g, "dyadic")]
    return cube_family(g, kind)


BATCH_SPECS = ["Lp1logL1", "Lp2logL0.5", "expL", "expL^{1/2}", "B^2(Lp1logL1)", "L^1.5"]
BATCH_N = {1: 32, 2: 8, 3: 4}


class TestMaximalBatched:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        kind=st.sampled_from(["centered", "dyadic", "triples"]),
        spec=st.sampled_from(BATCH_SPECS),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_cube_loop(self, n, kind, spec, seed):
        g = make_grid(n, 1.0, BATCH_N[n])
        fam = family_of(g, kind)
        rng = np.random.default_rng(seed)
        sparse = rng.lognormal(0.0, 2.0, g.shape) * (rng.uniform(size=g.shape) < 0.6)
        fs = [GridFunction(g, sparse), GridFunction(g, rng.uniform(size=g.shape))]
        specs = [parse_norm_spec(spec), parse_norm_spec("Lp1logL1")]
        phis = PhiScaling.from_profile(lambda t: t**0.25)
        got = maximal(phis, specs, fs, g, fam).values
        want = per_cube_maximal(phis, specs, fs, g, fam)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["expL", "L^2"])
    def test_zero_input_and_zero_scaling(self, n, spec):
        g = make_grid(n, 1.0, BATCH_N[n])
        fam = family_of(g, "triples")
        specs = [parse_norm_spec(spec)] * 2
        one, zero = GridFunction.constant(g, 1.0), GridFunction.constant(g, 0.0)
        for phis, fs in ((PhiScaling.constant(1.0), [zero, one]),
                         (PhiScaling.constant(0.0), [one, one])):
            got = maximal(phis, specs, fs, g, fam).values
            np.testing.assert_array_equal(got, per_cube_maximal(phis, specs, fs, g, fam))
            np.testing.assert_array_equal(got, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["centered", "triples"])
    def test_many_chunks(self, n, kind, monkeypatch):
        monkeypatch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
        g = make_grid(n, 1.0, BATCH_N[n])
        fam = family_of(g, kind)
        rng = np.random.default_rng(n)
        fs = [GridFunction(g, rng.lognormal(0.0, 1.0, g.shape))]
        specs = [parse_norm_spec("Lp1logL1")]
        phis = PhiScaling.constant(1.0)
        got = maximal(phis, specs, fs, g, fam).values
        want = per_cube_maximal(phis, specs, fs, g, fam)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestPhiScaling:
    def test_kernel_derived_monotone(self):
        K = frac(0.5)
        phis = PhiScaling.from_kernel(K, theta=1.0)
        rho = phis.essential_monotonicity_witness(1e-3, 10.0, 60)
        assert rho < 1.05

    def test_vanishing_slope(self):
        K = frac(0.5)
        phis = PhiScaling.from_kernel(K, theta=1.0)
        # phi grows like sqrt(t) so phi(t)/t decays like 1/sqrt(t)
        assert phis.vanishing_slope(1e8) < 1e-2
        assert phis.vanishing_slope(1e12) < phis.vanishing_slope(1e8) / 10.0

    def test_profile_and_kernel_exclusive(self):
        with pytest.raises(ValueError):
            PhiScaling(profile=lambda t: t, kernel=frac(0.5))

    def test_memoization_consistency(self):
        phis = PhiScaling.from_kernel(frac(0.5), theta=1.0)
        assert phis(0.5) == phis(0.5)
