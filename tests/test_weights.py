import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipot import (
    Cube,
    Grid,
    GridFunction,
    cube_family,
    gen_bmo_log,
    gen_power_weight,
    make_grid,
    parse_weight,
    rh_check,
)


def mean_oscillation(b, family):
    """max over the family of the mean of |b - b_Q| on Q."""
    return max(float(np.abs(b.values[Q.slices()] - b.values[Q.slices()].mean()).mean()) for Q in family)


def rh_inf(w, family):
    """max over the family of (sup of w on Q) / (avg of w on Q)."""
    return max(float(w.values[Q.slices()].max() / w.values[Q.slices()].mean()) for Q in family)


class TestGenPowerWeight:
    def test_beta_zero_is_one(self):
        g = make_grid(1, 1.0, 16)
        w = gen_power_weight(0.0, g)
        np.testing.assert_allclose(w.values, 1.0)

    def test_linear_weight_at_half(self):
        g = make_grid(1, 1.0, 8)  # centers include 0.625, 0.375, ...
        w = gen_power_weight(1.0, g)
        i = int(np.argmin(np.abs(g.centers_1d() - 0.625)))
        assert w.values[i] == pytest.approx(0.625)

    def test_origin_cell_closed_form(self):
        g = make_grid(1, 1.0, 8)
        w = gen_power_weight(-0.5, g)
        h = g.h
        # average of y^(-1/2) over (0, h) is 2/sqrt(h)
        cells = np.flatnonzero(np.abs(g.centers_1d()) < h)
        assert len(cells) == 2
        for i in cells:
            assert w.values[i] == pytest.approx(2.0 / math.sqrt(h), rel=1e-12)

    def test_integrability_bound(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            gen_power_weight(-1.0, g)

    def test_2d_origin_cells_finite(self):
        g = make_grid(2, 1.0, 8)
        w = gen_power_weight(-0.5, g)
        assert np.all(np.isfinite(w.values))
        assert np.all(w.values > 0)


class TestGenBmoLog:
    def test_value_at_one(self):
        # choose the box so that x = 1 is an exact cell center
        g = Grid(1, 4.0 / 3.0, 4)
        b = gen_bmo_log(g)
        i = int(np.argmin(np.abs(g.centers_1d() - 1.0)))
        assert abs(g.centers_1d()[i] - 1.0) < 1e-12
        assert b.values[i] == pytest.approx(0.0, abs=1e-12)

    def test_even_symmetry(self):
        g = make_grid(1, 1.0, 16)
        b = gen_bmo_log(g)
        np.testing.assert_allclose(b.values, b.values[::-1], rtol=1e-12)

    def test_norm_resolution_stable(self):
        norms = []
        for N in (64, 128, 256):
            g = make_grid(1, 1.0, N)
            fam = cube_family(g, "dyadic")
            norms.append(mean_oscillation(gen_bmo_log(g), fam))
        base = norms[-1]
        for v in norms:
            assert abs(v - base) / base < 0.15


class TestRhCheck:
    def test_constant_weight(self):
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "dyadic")
        got = rh_check(GridFunction.constant(g, 3.0), 2.0, fam)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_power_weight_stable(self):
        vals = []
        for N in (64, 128):
            g = make_grid(1, 1.0, N)
            fam = cube_family(g, "dyadic")
            vals.append(rh_check(gen_power_weight(0.5, g), 2.0, fam))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.10

    def test_blowup_detected_under_refinement(self):
        # beta*s <= -n: the s-mean diverges near the origin as N grows
        vals = []
        for N in (64, 256):
            g = make_grid(1, 1.0, N)
            fam = cube_family(g, "dyadic")
            vals.append(rh_check(gen_power_weight(-0.9, g), 2.0, fam))
        assert vals[1] > 1.2 * vals[0]

    def test_exponent_validation(self):
        g = make_grid(1, 1.0, 16)
        with pytest.raises(ValueError):
            rh_check(GridFunction.constant(g, 1.0), 1.0, cube_family(g, "dyadic"))

    def test_nondecreasing_in_s(self):
        g = make_grid(1, 1.0, 64)
        fam = cube_family(g, "dyadic")
        w = gen_power_weight(0.5, g)
        vals = [rh_check(w, s, fam) for s in (1.5, 2.0, 3.0, 4.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRhInfCheck:
    """rh_check against the reverse-Holder-infinity constant sup_Q w / avg_Q w."""

    def test_two_level_hand_count(self):
        g = make_grid(1, 1.0, 4)
        x = g.centers_1d()
        w = GridFunction(g, np.where((0 <= x) & (x < 1), 1.1, 0.1))
        fam = [g.whole_box()]
        assert rh_inf(w, fam) == pytest.approx(1.1 / 0.6, rel=1e-12)
        assert rh_check(w, 2.0, fam) == pytest.approx(math.sqrt(0.61) / 0.6, rel=1e-12)
        big = ((1.1**64 + 0.1**64) / 2.0) ** (1.0 / 64.0) / 0.6
        assert rh_check(w, 64.0, fam) == pytest.approx(big, rel=1e-12)

    def test_rh_inf_implies_rh_s(self):
        g = make_grid(1, 1.0, 64)
        fam = cube_family(g, "dyadic")
        w = GridFunction(g, 2.0 - np.abs(g.centers_1d()))
        cinf = rh_inf(w, fam)
        assert math.isfinite(cinf)
        for s in (1.5, 2.0, 4.0):
            assert rh_check(w, s, fam) <= cinf + 1e-12


def rh_check_per_cube(w, s, family):
    """rh_check as a loop over the cubes, averaging over the cells of each
    cube inside the box."""
    worst = 0.0
    for Q in family:
        sub = w.values[Q.slices()]
        if sub.size == 0:
            continue
        den = float(sub.mean())
        if den == 0.0:
            continue
        worst = max(worst, float(np.mean(sub**s)) ** (1.0 / s) / den)
    return worst


_WEIGHTS = {
    "one": lambda g: GridFunction.constant(g, 1.0),
    "pow0.3": lambda g: gen_power_weight(0.3, g),
    "pow-0.5": lambda g: gen_power_weight(-0.5, g),
    "|bmolog|": lambda g: gen_bmo_log(g).map(np.abs),
}


class TestRhCheckAgainstPerCubeLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        log2_N=st.integers(2, 7),
        kind=st.sampled_from(["centered", "dyadic"]),
        weight=st.sampled_from(sorted(_WEIGHTS)),
        L=st.sampled_from([1.0, 1.3]),
        s=st.sampled_from([1.5, 2.0, 4.0, 64.0]),
    )
    def test_within_1e_14_of_the_loop(self, n, log2_N, kind, weight, L, s):
        # the L^r sums of rh_check are window sums by doubling, not np.mean's order
        g = make_grid(n, L, 2 ** min(log2_N, {1: 7, 2: 5, 3: 3}[n]))
        w, fam = _WEIGHTS[weight](g), cube_family(g, kind)
        assert rh_check(w, s, fam) == pytest.approx(rh_check_per_cube(w, s, fam), rel=1e-14, abs=0)

    def test_zero_cubes_are_skipped(self):
        g = make_grid(2, 1.0, 16)
        w = GridFunction(g, np.where(g.radius() < 0.5, 0.0, g.radius()), nonneg=True)
        fam = cube_family(g, "centered")
        assert rh_check(w, 2.0, fam) == rh_check_per_cube(w, 2.0, fam) > 1.0
        assert rh_check(w, 2.0, []) == 0.0

    @pytest.mark.parametrize("lo", [(-1, 0), (0, 13), (16, 16), (-8, 3)])
    def test_cube_outside_the_box_raises(self, lo):
        # clipped by the box edge, or wholly off the box
        g = make_grid(2, 1.0, 16)
        fam = list(cube_family(g, "dyadic")) + [Cube(g, lo, 4)]
        with pytest.raises(ValueError, match="inside the box"):
            rh_check(GridFunction.constant(g, 1.0), 2.0, fam)


class TestParseWeight:
    def test_one(self):
        g = make_grid(1, 1.0, 8)
        np.testing.assert_allclose(parse_weight("one", g).values, 1.0)

    def test_pow(self):
        g = make_grid(1, 1.0, 8)
        got = parse_weight("pow0.3", g)
        expected = gen_power_weight(0.3, g)
        np.testing.assert_allclose(got.values, expected.values)

    def test_bmolog(self):
        g = make_grid(1, 1.0, 8)
        got = parse_weight("bmolog", g)
        np.testing.assert_allclose(got.values, gen_bmo_log(g).values)

    def test_file(self, tmp_path):
        g = make_grid(1, 1.0, 8)
        f = gen_power_weight(0.5, g)
        path = tmp_path / "w.csv"
        f.to_csv(path)
        got = parse_weight(f"file:{path}", g)
        np.testing.assert_allclose(got.values, f.values)

    def test_file_grid_mismatch(self, tmp_path):
        g = make_grid(1, 1.0, 8)
        f = gen_power_weight(0.5, g)
        path = tmp_path / "w.csv"
        f.to_csv(path)
        with pytest.raises(ValueError):
            parse_weight(f"file:{path}", make_grid(1, 1.0, 16))

    def test_unknown(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            parse_weight("gauss", g)
