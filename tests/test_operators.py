import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from multipot import operators, orlicz
from multipot import (
    Cube,
    GridFunction,
    Kernel,
    NormSpec,
    apply_commutator,
    apply_potential,
    apply_potential_reference,
    cube_family,
    kernel_cell_value,
    luxemburg_norm,
    make_grid,
    maximal,
    maximal_corpus,
    parse_norm_spec,
    phi_theta,
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
        x = g.centers_1d()
        f = GridFunction(g, np.where((0 <= x) & (x < 1), 1.0, 0.0))
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
        lhs = apply_potential(K, [GridFunction(g, 2.0 * f.values + h.values), w]).values
        rhs = 2.0 * apply_potential(K, [f, w]).values + apply_potential(K, [h, w]).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_positivity_and_monotonicity(self):
        g = make_grid(1, 1.0, 8)
        K = frac(0.5)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        bigger = GridFunction(g, f.values + rng.uniform(size=g.shape), nonneg=True)
        a = apply_potential(K, [f])
        b = apply_potential(K, [bigger])
        assert np.all(a.values >= 0)
        assert np.all(b.values >= a.values - 1e-14)

    def test_arity_mismatch(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            apply_potential(frac(1.0, 1, 2), [GridFunction.constant(g, 1.0)])

    def test_inputs_on_two_grids_raise(self):
        fs = [GridFunction.constant(make_grid(1, 1.0, N), 1.0) for N in (8, 16)]
        with pytest.raises(ValueError, match="share one grid"):
            apply_potential(frac(1.0, 1, 2), fs)


# one kernel object per family, so that repeated (kernel, grid) pairs hit
# the spectrum cache across tests and hypothesis examples
FAMILY_KERNELS = {
    "fractional": frac(0.5, 1, 2),
    "profile": Kernel("profile", 1, 2, profile_fn=lambda s: 1.0 / (1.0 + s)),
    "tabulated": Kernel("tabulated", 1, 2, table_s=(0.0, 0.5, 1.0, 4.0),
                        table_v=(3.0, 2.0, 1.0, 0.0)),
}


def coincident_inputs(g, m, seed):
    """m inputs that share one cell (so the singular centre cell of the
    kernel table is used) and each have one more cell of their own."""
    rng = np.random.default_rng(seed)
    shared = (g.N // 2 - 1,) * g.n
    fs = []
    for i in range(m):
        v = np.zeros(g.shape)
        v[shared] = rng.uniform(0.5, 1.5)
        v[tuple(rng.integers(0, g.N, g.n))] += rng.uniform(0.5, 1.5)
        fs.append(GridFunction(g, v))
    return fs


def assert_matches_reference(K, fs):
    fast = apply_potential(K, fs).values
    slow = apply_potential_reference(K, fs).values
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-13 * np.abs(slow).max())


class TestFFTContraction:
    @pytest.mark.parametrize("n,m,N", [(1, 1, 8), (1, 2, 8), (1, 3, 8), (2, 1, 4), (3, 1, 4),
                                       (2, 2, 4), (3, 2, 4), (2, 3, 4)])
    def test_matches_reference_every_small_arity(self, n, m, N):
        g = make_grid(n, 1.0, N)
        assert_matches_reference(frac(0.5, n, m), coincident_inputs(g, m, 10 * n + m))

    @pytest.mark.parametrize("K", [
        FAMILY_KERNELS["profile"],
        FAMILY_KERNELS["tabulated"],
        Kernel("bessel", 1, 1, alpha=1.0),
    ], ids=["profile", "tabulated", "bessel"])
    def test_matches_reference_other_families(self, K):
        g = make_grid(1, 1.0, 8)
        assert_matches_reference(K, coincident_inputs(g, K.m, 7))

    def test_spectrum_built_once_per_kernel_and_grid(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel_cell_value(*args)

        monkeypatch.setattr(operators, "kernel_cell_value", counted)
        operators._kernel_spectrum.cache_clear()
        K = frac(0.5, 1, 2)
        g = make_grid(1, 1.0, 8)
        fs = coincident_inputs(g, 2, 0)
        first = apply_potential(K, fs).values
        np.testing.assert_array_equal(apply_potential(K, fs).values, first)
        apply_commutator(K, [GridFunction(g, g.centers_1d())] * 2, fs)
        assert len(calls) == 1
        apply_potential(K, coincident_inputs(make_grid(1, 1.0, 16), 2, 0))
        assert len(calls) == 2
        apply_potential(frac(0.7, 1, 2), fs)
        assert len(calls) == 3
        operators._kernel_spectrum.cache_clear()

    @pytest.mark.parametrize("n,m,N", [(1, 2, 8), (2, 2, 4), (1, 3, 8)])
    def test_many_blocks(self, n, m, N, monkeypatch):
        # one first-axis slab per block of the spectrum build and its shear
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 1)
        operators._kernel_spectrum.cache_clear()
        g = make_grid(n, 1.0, N)
        assert_matches_reference(frac(0.5, n, m), coincident_inputs(g, m, 3))
        operators._kernel_spectrum.cache_clear()

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_KERNELS)),
        N=st.sampled_from([4, 8, 16]),
        seed=st.integers(0, 2**16),
    )
    def test_symmetric_in_the_inputs(self, family, N, seed):
        K = FAMILY_KERNELS[family]
        g = make_grid(1, 1.0, N)
        rng = np.random.default_rng(seed)
        f1, f2 = (GridFunction(g, rng.uniform(size=g.shape) * (rng.uniform(size=g.shape) < 0.7))
                  for _ in range(2))
        a = apply_potential(K, [f1, f2]).values
        b = apply_potential(K, [f2, f1]).values
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13 * np.abs(a).max())


def kernel_spectrum_full_slabs(K, grid):
    """operators._kernel_spectrum with every first-axis slab of the table
    built, P of them where the fast path builds N + 1 and mirrors the rest."""
    N, n, m, nm = grid.N, grid.n, K.m, K.nm
    P = 2 * N
    d = np.concatenate([np.arange(N), np.arange(-N, 0)]) * grid.h
    slot = np.sqrt(sum(c * c for c in np.meshgrid(*[d] * n, indexing="ij", sparse=True)))
    rest = np.zeros(())
    for _ in range(m - 1):
        rest = np.add.outer(rest, slot)
    part = np.empty((P,) * (nm - 1) + (N + 1,) if nm > 1 else (P,))
    rows = max(1, operators._BLOCK_ELEMENTS // P ** (nm - 1))
    for lo in range(0, P, rows):
        s = np.add.outer(slot[lo : lo + rows], rest)
        if lo == 0:
            s.flat[0] = 1.0
        vals = np.asarray(K.radial(s))
        if lo == 0:
            vals.flat[0] = operators.kernel_cell_value(K, np.zeros(nm), grid.h)
        part[lo : lo + rows] = np.fft.rfftn(vals, axes=range(1, nm)).real if nm > 1 else vals
    half = np.ascontiguousarray(np.fft.rfft(part, axis=0).real)
    spec = part[: P if nm > 1 else N + 1]
    for lo in range(0, P, rows):
        zeta = list(np.ogrid[tuple(slice(k) for k in spec[lo : lo + rows].shape)])
        zeta[0] = zeta[0] + lo
        xi = [z if ax < n else z - zeta[ax - n] for ax, z in enumerate(zeta)]
        xi[0], xi[-1] = [np.minimum(abs(x), P - abs(x)) for x in (xi[0], xi[-1])]
        spec[lo : lo + rows] = half[tuple(xi)]
    return spec


class TestKernelSpectrumHalfSlabs:
    @pytest.mark.parametrize("family", ["fractional", "bessel", "profile", "tabulated"])
    @pytest.mark.parametrize("n,m,N", [(1, 1, 64), (1, 1, 4), (1, 2, 8), (1, 3, 4), (1, 4, 4),
                                       (1, 5, 4), (1, 6, 4), (2, 1, 8), (2, 2, 4), (2, 3, 4),
                                       (3, 1, 4), (3, 2, 4)])
    def test_equals_the_full_slab_build(self, family, n, m, N, monkeypatch):
        # the singular cell average is the same call in both builds; a
        # stand-in keeps the Bessel and profile cases cheap
        monkeypatch.setattr(operators, "kernel_cell_value", lambda K, center, width: 7.25)
        K = {"fractional": frac(0.3 + 0.4 * n * m, n, m),
             "bessel": Kernel("bessel", n, m, alpha=1.0, Mt=64),
             "profile": Kernel("profile", n, m, profile_fn=lambda s: 1.0 / (1.0 + s)),
             "tabulated": Kernel("tabulated", n, m, table_s=(0.0, 0.5, 1.0, 4.0),
                                 table_v=(3.0, 2.0, 1.0, 0.0))}[family]
        g = make_grid(n, 1.3, N)
        np.testing.assert_array_equal(operators._kernel_spectrum.__wrapped__(K, g),
                                      kernel_spectrum_full_slabs(K, g))

    @pytest.mark.parametrize("n,m,N", [(1, 2, 8), (2, 2, 4), (1, 3, 8)])
    def test_equals_the_full_slab_build_in_many_blocks(self, n, m, N, monkeypatch):
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 1)
        K, g = frac(0.5, n, m), make_grid(n, 1.0, N)
        np.testing.assert_array_equal(operators._kernel_spectrum.__wrapped__(K, g),
                                      kernel_spectrum_full_slabs(K, g))


# every (n, m) the Grid and Kernel constructors accept with nm <= 6, one
# kernel object each so that examples of one arity share the spectrum cache
ARITY_KERNELS = {(n, m): frac(0.3 + 0.4 * n * m, n, m)
                 for n in (1, 2, 3) for m in range(1, 7) if n * m <= 6}


def random_inputs(g, m, rng, count):
    """count tuples of m nonnegative inputs with random sparse supports."""
    return [[GridFunction(g, rng.uniform(size=g.shape) * (rng.uniform(size=g.shape) < 0.6))
             for _ in range(m)] for _ in range(count)]


def arity_case(draw):
    n, m = draw(st.sampled_from(sorted(ARITY_KERNELS)))
    return ARITY_KERNELS[n, m], make_grid(n, 1.0, 8 if n * m <= 3 else 4)


class TestPotentialProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_multilinear_in_each_slot(self, data, seed):
        K, g = arity_case(data.draw)
        rng = np.random.default_rng(seed)
        (fs,) = random_inputs(g, K.m, rng, 1)
        j = data.draw(st.integers(0, K.m - 1))
        a, b = rng.uniform(-2.0, 2.0, 2)
        h = GridFunction(g, rng.normal(size=g.shape))
        mixed = list(fs)
        mixed[j] = GridFunction(g, a * fs[j].values + b * h.values)
        with_h = list(fs)
        with_h[j] = h
        base, other = apply_potential(K, fs).values, apply_potential(K, with_h).values
        lhs = apply_potential(K, mixed).values
        scale = (abs(a) + abs(b)) * max(np.abs(base).max(), np.abs(other).max())
        np.testing.assert_allclose(lhs, a * base + b * other, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_positive_and_monotone(self, data, seed):
        K, g = arity_case(data.draw)
        rng = np.random.default_rng(seed)
        small, extra = random_inputs(g, K.m, rng, 2)
        big = [GridFunction(g, f.values + e.values) for f, e in zip(small, extra)]
        lo = apply_potential(K, small).values
        hi = apply_potential(K, big).values
        tol = 1e-12 * np.abs(hi).max()
        assert np.all(lo >= -tol)
        assert np.all(hi >= lo - tol)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_commutator_vanishes_for_constant_symbols(self, data, seed):
        K, g = arity_case(data.draw)
        rng = np.random.default_rng(seed)
        (fs,) = random_inputs(g, K.m, rng, 1)
        consts = rng.uniform(-3.0, 3.0, K.m)
        bs = [GridFunction.constant(g, c) for c in consts]
        out = apply_commutator(K, bs, fs).values
        scale = np.abs(consts).sum() * np.abs(apply_potential(K, fs).values).max()
        assert np.abs(out).max() <= 1e-12 * scale


class TestApplyCommutator:
    @pytest.mark.parametrize("symbols,inputs", [(1, 2), (2, 1), (3, 3)])
    def test_wrong_arity_raises(self, symbols, inputs):
        g = make_grid(1, 1.0, 8)
        one = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError, match="one symbol and one input per linear slot"):
            apply_commutator(frac(1.0, 1, 2), [one] * symbols, [one] * inputs)

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
        x = g.centers_1d()
        b = GridFunction(g, x)
        f = GridFunction(g, np.where((0 <= x) & (x < 1), 1.0, 0.0))
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
        lhs = apply_commutator(K, bs, [GridFunction(g, f.values + h.values), w]).values
        rhs = apply_commutator(K, bs, [f, w]).values + apply_commutator(K, bs, [h, w]).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMaximal:
    def test_constants(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        fs = [GridFunction.constant(g, 2.0), GridFunction.constant(g, 3.0)]
        specs = [NormSpec.lebesgue(1.5), NormSpec.lebesgue(2.0)]
        out = maximal(lambda Q: 1.0, specs, fs, g, fam)
        np.testing.assert_allclose(out.values, 6.0, rtol=1e-12)

    def test_family_that_leaves_cells_uncovered_raises(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError, match="leaves part of the grid uncovered"):
            maximal_corpus(lambda Q: 1.0, [NormSpec.lebesgue(1.0)], [[GridFunction.constant(g, 1.0)]],
                           g, [Cube(g, (0,), 4)])

    @pytest.mark.parametrize("other", [(1, 1.0, 16), (1, 2.0, 8), (2, 1.0, 8)])
    def test_input_on_another_grid_raises(self, other):
        g = make_grid(1, 1.0, 8)
        fs = [GridFunction.constant(g, 1.0), GridFunction.constant(make_grid(*other), 1.0)]
        with pytest.raises(ValueError, match="share one grid"):
            maximal(lambda Q: 1.0, [NormSpec.lebesgue(1.0)] * 2, fs, g,
                    cube_family(g, "centered"))

    def test_brute_force_oracle(self):
        g = make_grid(1, 2.0, 16)
        fam = cube_family(g, "centered")
        x = g.centers_1d()
        f = GridFunction(g, np.where((0 <= x) & (x < 1), 1.0, 0.0))
        spec = NormSpec.lebesgue(1.0)
        out = maximal(lambda Q: 1.0, [spec], [f], g, fam)
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
        joint = maximal(lambda Q: 1.0, specs, fs, g, fam)
        singles = [
            maximal(lambda Q: 1.0, [specs[i]], [fs[i]], g, fam)
            for i in range(2)
        ]
        assert np.all(joint.values <= singles[0].values * singles[1].values + 1e-12)

    def test_scaling_exact(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.uniform(size=g.shape), nonneg=True)
        spec = NormSpec.lebesgue(1.0)
        a = maximal(lambda Q: 1.0, [spec], [f], g, fam)
        b = maximal(lambda Q: 2.5, [spec], [f], g, fam)
        np.testing.assert_allclose(b.values, 2.5 * a.values, rtol=1e-13)

    def test_constant_maximal_single(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        u = GridFunction.constant(g, 1.0)
        out = maximal(lambda Q: 1.0, [NormSpec.lebesgue(1.0)], [u], g, fam)
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-12)

    def test_logl_constant_cross_check(self):
        g = make_grid(1, 1.0, 8)
        fam = cube_family(g, "centered")
        u = GridFunction.constant(g, 1.0)
        spec = NormSpec.power_log(1.0, 1.0)
        out = maximal(lambda Q: 1.0, [spec], [u], g, fam)
        expected = luxemburg_norm(u, g.whole_box(), spec)
        np.testing.assert_allclose(out.values, expected, rtol=1e-8)

    def test_majorizes_continuous_function(self):
        g = make_grid(1, 1.0, 32)
        fam = cube_family(g, "centered")
        u = GridFunction(g, 1.0 + 0.5 * np.cos(g.centers_1d()))
        out = maximal(lambda Q: 1.0, [NormSpec.lebesgue(1.0)], [u], g, fam)
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
            M = maximal(lambda Q: 1.0, specs, fs, g, fam)
            num = (np.sum(M.values**p) * cell) ** (1 / p)
            den = 1.0
            for f, pi in zip(fs, (p1, p2)):
                den *= (np.sum(f.values**pi) * cell) ** (1 / pi)
            worst = max(worst, num / den)
        assert math.isfinite(worst)
        assert worst < 50.0


def test_maximal_builds_a_few_cubes_per_width(cube_constructions):
    g = make_grid(1, 1.0, 128)
    f = GridFunction(g, np.random.default_rng(0).lognormal(0.0, 1.0, g.shape))
    fam = cube_family(g, "centered")
    out = maximal(lambda Q: 1.0, [parse_norm_spec("Lp1logL1")], [f], g, fam)
    assert np.isfinite(out.values).all()
    widths = len(set(fam.w.tolist()))
    # the family and the call together, where the family alone was one
    # Cube per member (777 here)
    assert len(cube_constructions) <= 4 * widths < len(fam)


def per_cube_maximal(phi, specs, fs, grid, family):
    """The per-cube loop over luxemburg_norm that maximal batches."""
    out = np.full(grid.shape, -np.inf)
    for Q in family:
        val = phi(Q)
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
        phi = lambda Q: Q.measure**0.25
        got = maximal(phi, specs, fs, g, fam).values
        want = per_cube_maximal(phi, specs, fs, g, fam)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        kind=st.sampled_from(["centered", "dyadic", "triples"]),
        specs=st.lists(st.sampled_from(BATCH_SPECS), min_size=1, max_size=3),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_monotone_in_each_slot(self, n, kind, specs, data, seed):
        g = make_grid(n, 1.0, BATCH_N[n])
        fam = family_of(g, kind)
        rng = np.random.default_rng(seed)
        fs = [GridFunction(g, rng.lognormal(0.0, 1.0, g.shape)
                           * (rng.uniform(size=g.shape) < 0.7)) for _ in specs]
        j = data.draw(st.integers(0, len(specs) - 1))
        bigger = list(fs)
        bigger[j] = GridFunction(g, fs[j].values + rng.exponential(size=g.shape)
                                 * (rng.uniform(size=g.shape) < 0.5))
        specs = [parse_norm_spec(s) for s in specs]
        phi = lambda Q: Q.measure**0.25
        lo = maximal(phi, specs, fs, g, fam).values
        hi = maximal(phi, specs, bigger, g, fam).values
        # each norm is within its solver tolerance (1e-10 relative) of the root
        assert np.all(hi >= lo * (1.0 - 1e-9))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["expL", "L^2"])
    def test_zero_input_and_zero_scaling(self, n, spec):
        g = make_grid(n, 1.0, BATCH_N[n])
        fam = family_of(g, "triples")
        specs = [parse_norm_spec(spec)] * 2
        one, zero = GridFunction.constant(g, 1.0), GridFunction.constant(g, 0.0)
        for phi, fs in ((lambda Q: 1.0, [zero, one]),
                        (lambda Q: 0.0, [one, one])):
            got = maximal(phi, specs, fs, g, fam).values
            np.testing.assert_array_equal(got, per_cube_maximal(phi, specs, fs, g, fam))
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
        phi = lambda Q: 1.0
        got = maximal(phi, specs, fs, g, fam).values
        want = per_cube_maximal(phi, specs, fs, g, fam)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


CORPUS_SPECS = ["L^1", "L^1.5", "Lp1logL1", "Lp1.5logL2", "expL"]


def corpus_family(g, kind, rng):
    """A cube family of the given kind; "list" is a plain list of Cube: the
    whole box and up to two cubes that may stick out of it."""
    if kind != "list":
        return cube_family(g, kind)
    extra = [Cube(g, tuple(int(i) for i in rng.integers(-2, g.N, g.n)), int(rng.integers(1, 4)))
             for _ in range(int(rng.integers(0, 3)))]
    return [g.whole_box()] + extra


class TestMaximalCorpus:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        m=st.integers(1, 3),
        kind=st.sampled_from(["centered", "dyadic", "list"]),
        specs=st.lists(st.sampled_from(CORPUS_SPECS), min_size=3, max_size=3),
        small_chunks=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_call_per_tuple(self, n, m, kind, specs, small_chunks, seed):
        g = make_grid(n, 1.0, BATCH_N[n])
        rng = np.random.default_rng(seed)
        fam = corpus_family(g, kind, rng)
        shared = GridFunction(g, rng.lognormal(0.0, 1.0, g.shape))  # in every tuple
        corpus = [[GridFunction(g, rng.lognormal(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.6))
                   for _ in range(m - 1)] + [shared] for _ in range(4)]
        corpus.insert(int(rng.integers(0, 5)), [GridFunction.constant(g, 0.0)] * m)
        specs = [parse_norm_spec(s) for s in specs[:m]]
        phi = lambda Q: Q.measure**0.25
        with pytest.MonkeyPatch.context() as patch:
            if small_chunks:  # batches split the corpus; with a small family chunks mix tuples
                patch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
            got = maximal_corpus(phi, specs, corpus, g, fam)
        assert len(got) == len(corpus)
        for fs, M in zip(corpus, got):
            np.testing.assert_array_equal(M.values, maximal(phi, specs, fs, g, fam).values)

    def test_one_norm_call_per_slot_and_batch(self, monkeypatch):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(3)
        corpus = [[GridFunction(g, rng.uniform(0.5, 2.0, g.shape)) for _ in range(2)] for _ in range(5)]
        fam, specs = [g.whole_box(), Cube(g, (-1,), 3), Cube(g, (6,), 2)], [parse_norm_spec("Lp1logL1")] * 2
        calls, norms = [], operators.luxemburg_norms

        def spy(fs, cubes, spec, which):
            calls.append(np.unique(which).size)
            return norms(fs, cubes, spec, which=which)

        monkeypatch.setattr(operators, "luxemburg_norms", spy)
        maximal_corpus(lambda Q: 1.0, specs, corpus, g, fam)
        assert calls == [5, 5]  # the whole corpus in one batch
        calls.clear()
        monkeypatch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)  # two tuples of three cubes per batch
        maximal_corpus(lambda Q: 1.0, specs, corpus, g, fam)
        assert calls == [2, 2, 2, 2, 1, 1]

    def test_empty_corpus(self):
        g = make_grid(1, 1.0, 8)
        assert maximal_corpus(lambda Q: 1.0, [NormSpec.lebesgue(1.0)], [], g,
                              cube_family(g, "centered")) == []

    @pytest.mark.parametrize("bad", ["arity", "grid"])
    def test_bad_tuple_raises_before_any_norm(self, bad, monkeypatch):
        g = make_grid(1, 1.0, 8)
        one = GridFunction.constant(g, 1.0)
        last = [one] if bad == "arity" else [one, GridFunction.constant(make_grid(1, 1.0, 16), 1.0)]
        corpus = [[one, one]] * 3 + [last]

        def no_norms(*args, **kwargs):
            raise AssertionError("a norm was computed before the check")

        monkeypatch.setattr(operators, "luxemburg_norms", no_norms)
        with pytest.raises(ValueError, match="one norm spec per input|share one grid"):
            maximal_corpus(lambda Q: 1.0, [NormSpec.lebesgue(1.0)] * 2, corpus, g,
                           cube_family(g, "centered"))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), w=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 32]),
       extra=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_running_max_is_the_window_max_property(n, w, extra, seed):
    # w = 1, powers of two and 3 * 2^k, over a (2, L, ..., L) array with
    # -inf entries, as _scatter_max's corner lattice holds them
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2,) + (w + extra,) * n)
    a[rng.uniform(size=a.shape) < 0.4] = -np.inf
    for axis in range(1, n + 1):
        want = sliding_window_view(a, w, axis=axis).max(axis=-1)
        np.testing.assert_array_equal(operators._running_max(a, w, axis), want)


def kernel_scale(K):
    """The kernel-derived scale factor as maximal takes it."""
    return lambda Q: phi_theta(K, 1.0, Q.side)


class TestPhiScaling:
    g = make_grid(1, 1.0, 1024)  # h = 1/512

    def test_kernel_derived_monotone(self):
        phi = kernel_scale(frac(0.5))
        # the smallest rho with phi(t) <= rho phi(s) for sampled sides t <= s
        widths = np.unique(np.geomspace(1, 5120, 60).astype(int)).tolist()
        vals = np.array([phi(Cube(self.g, (0,), w)) for w in widths])
        run_max_after = np.maximum.accumulate(vals[::-1])[::-1]
        assert (vals > 0).all()
        assert max(float(np.max(vals / run_max_after)), 1.0) < 1.05

    def test_vanishing_slope(self):
        phi = kernel_scale(frac(0.5))
        # phi grows like sqrt(t) so phi(t)/t decays like 1/sqrt(t)
        big, bigger = Cube(self.g, (0,), 512 * 10**8), Cube(self.g, (0,), 512 * 10**12)
        assert phi(big) / big.measure < 1e-2
        assert phi(bigger) / bigger.measure < phi(big) / big.measure / 10.0

    def test_memoization_consistency(self):
        phi, Q = kernel_scale(frac(0.5)), Cube(self.g, (0,), 256)
        assert phi(Q) == phi(Q)
