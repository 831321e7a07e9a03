import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipot import Cube, Grid, GridFunction, cube_family, integrate, make_grid


class TestMakeGrid:
    def test_1d_cell_geometry(self):
        g = make_grid(1, 1.0, 8)
        assert g.h == 0.25
        expected = -1.0 + 0.125 + np.arange(8) * 0.25
        np.testing.assert_allclose(g.centers_1d(), expected, atol=1e-15)

    def test_2d_cell_count(self):
        g = make_grid(2, 2.0, 4)
        assert g.h == 1.0
        assert int(np.prod(g.shape)) == 16

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 3)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            make_grid(4, 1.0, 8)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 2)


class TestIntegrate:
    def test_zero_function(self):
        g = make_grid(1, 1.0, 8)
        assert integrate(GridFunction.constant(g, 0.0)) == 0.0

    def test_constant_one_gives_box_measure(self):
        g = make_grid(1, 1.0, 8)
        assert integrate(GridFunction.constant(g, 1.0)) == pytest.approx(2.0, abs=1e-14)

    def test_indicator_cell_exact(self):
        for N in (8, 16):
            g = make_grid(1, 1.0, N)
            f = GridFunction.from_callable(g, lambda x: 1.0 if 0 <= x < 1 else 0.0)
            assert integrate(f) == pytest.approx(1.0, abs=1e-14)

    def test_linearity(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.normal(size=g.shape))
        h = GridFunction(g, rng.normal(size=g.shape))
        lhs = integrate(2.5 * f + (-1.5) * h)
        rhs = 2.5 * integrate(f) - 1.5 * integrate(h)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_children_sum_to_parent(self):
        g = make_grid(2, 1.0, 8)
        rng = np.random.default_rng(1)
        f = GridFunction(g, rng.uniform(size=g.shape))
        Q = Cube(g, (0, 4), 4)
        total = sum(integrate(f, child) for child in Q.children())
        assert total == pytest.approx(integrate(f, Q), rel=1e-13)

    def test_refinement_second_order(self):
        # midpoint rule error should shrink ~4x per refinement on smooth data
        exact = 2.0 * math.sin(1.0)
        errs = []
        for N in (16, 32, 64):
            g = make_grid(1, 1.0, N)
            f = GridFunction.from_callable(g, math.cos)
            errs.append(abs(integrate(f) - exact))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestCubeFamily:
    def test_dyadic_count_1d(self):
        g = make_grid(1, 1.0, 4)
        fam = cube_family(g, "dyadic")
        assert len(fam) == 7
        sides = sorted(Q.side for Q in fam)
        assert sides == [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0]

    def test_dyadic_count_2d(self):
        g = make_grid(2, 2.0, 4)
        assert len(cube_family(g, "dyadic")) == 21

    def test_centered_deduplicated(self):
        g = make_grid(1, 1.0, 4)
        fam = cube_family(g, "centered")
        keys = [(Q.lo, Q.w) for Q in fam]
        assert len(keys) == len(set(keys))
        # every point is covered at every dyadic width
        for w in (1, 2, 4):
            covered = np.zeros(4, dtype=bool)
            for Q in fam:
                if Q.w == w:
                    covered[Q.slices()[0]] = True
            assert covered.all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cube_family(make_grid(1, 1.0, 4), "random")


class TestCube:
    def test_dilate3_geometry(self):
        g = make_grid(1, 1.0, 8)
        Q = Cube(g, (2,), 2)
        Q3 = Q.dilate3()
        assert Q3.lo == (0,)
        assert Q3.w == 6
        assert Q3.measure == pytest.approx(3.0 * Q.side)

    def test_clipping(self):
        g = make_grid(1, 1.0, 8)
        Q3 = Cube(g, (0,), 2).dilate3()
        assert Q3.clipped
        assert Q3.measure_clipped == pytest.approx(4 * g.h)
        assert Q3.measure == pytest.approx(6 * g.h)

    def test_cube_outside_box_is_empty(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        for Q in (Cube(g, (-7,), 2), Cube(g, (9,), 2)):
            assert Q.cell_count() == 0
            assert f.restrict(Q).size == 0

    def test_children_partition(self):
        g = make_grid(2, 1.0, 8)
        Q = Cube(g, (0, 0), 8)
        mask = np.zeros(g.shape, dtype=int)
        for child in Q.children():
            mask[child.slices()] += 1
        assert (mask == 1).all()


class TestGridFunction:
    def test_values_immutable(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_nonneg_flag_enforced(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            GridFunction(g, -np.ones(g.shape), nonneg=True)

    def test_rejects_nan(self):
        g = make_grid(1, 1.0, 8)
        vals = np.ones(g.shape)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(g, vals)

    def test_csv_roundtrip(self, tmp_path):
        g = make_grid(2, 1.5, 4)
        rng = np.random.default_rng(2)
        f = GridFunction(g, rng.normal(size=g.shape))
        path = tmp_path / "f.csv"
        f.to_csv(path)
        back = GridFunction.from_csv(path)
        assert back.grid.compatible(g)
        np.testing.assert_array_equal(back.values, f.values)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_integrate_linear_property(a, b, seed):
    g = make_grid(1, 1.0, 8)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=g.shape))
    h = GridFunction(g, rng.normal(size=g.shape))
    lhs = integrate(a * f + b * h)
    rhs = a * integrate(f) + b * integrate(h)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
