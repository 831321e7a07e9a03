import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multipot
from multipot import (
    Cube,
    CubeSet,
    Grid,
    GridFunction,
    NormSpec,
    cube_family,
    integrate,
    luxemburg_norms,
    make_grid,
    maximal,
)


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

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_rejects_nonpositive_half_width(self, L):
        with pytest.raises(ValueError, match="half-width"):
            make_grid(1, L, 8)


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
            x = g.centers_1d()
            f = GridFunction(g, np.where((0 <= x) & (x < 1), 1.0, 0.0))
            assert integrate(f) == pytest.approx(1.0, abs=1e-14)

    def test_linearity(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.normal(size=g.shape))
        h = GridFunction(g, rng.normal(size=g.shape))
        lhs = integrate(GridFunction(g, 2.5 * f.values + (-1.5) * h.values))
        rhs = 2.5 * integrate(f) - 1.5 * integrate(h)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_refinement_second_order(self):
        # midpoint rule error should shrink ~4x per refinement on smooth data
        exact = 2.0 * math.sin(1.0)
        errs = []
        for N in (16, 32, 64):
            g = make_grid(1, 1.0, N)
            f = GridFunction(g, np.cos(g.centers_1d()))
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


def nested_loop_family(grid, kind):
    """cube_family as one Cube per loop step: the order the arrays keep."""
    N = grid.N
    out = []
    if kind == "dyadic":
        w = N
        while w >= 1:
            for lo in np.ndindex(*((N // w,) * grid.n)):
                out.append(Cube(grid, tuple(l * w for l in lo), w))
            w //= 2
        return out
    seen = set()
    w = 1
    while w <= N:
        for idx in np.ndindex(*grid.shape):
            lo = tuple(min(max(i - w // 2, 0), N - w) for i in idx)
            if (lo, w) not in seen:
                seen.add((lo, w))
                out.append(Cube(grid, lo, w))
        w *= 2
    return out


class TestCubeFamilyOracle:
    @pytest.mark.parametrize("kind", ["dyadic", "centered"])
    @pytest.mark.parametrize(
        "n,N", [(1, 4), (1, 8), (1, 64), (1, 512), (2, 4), (2, 16), (2, 64), (3, 4), (3, 8), (3, 16)]
    )
    def test_same_cubes_in_the_same_order(self, n, N, kind):
        g = make_grid(n, 1.0, N)
        fam = cube_family(g, kind)
        assert isinstance(fam, CubeSet)
        expected = nested_loop_family(g, kind)
        assert [(Q.lo, Q.w) for Q in fam] == [(Q.lo, Q.w) for Q in expected]
        assert list(fam) == expected


class TestCubeSet:
    def test_iteration_and_int_index_give_the_list(self):
        g = make_grid(2, 1.0, 8)
        fam = cube_family(g, "centered")
        cubes = nested_loop_family(g, "centered")
        assert len(fam) == len(cubes)
        assert list(fam) == cubes
        assert [fam[i] for i in range(len(fam))] == cubes
        assert fam[-1] == cubes[-1] and fam[np.int64(3)] == cubes[3]
        assert all(type(l) is int for Q in fam for l in Q.lo + (Q.w,))

    def test_array_mask_and_slice_give_sets(self):
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "dyadic")
        cubes = list(fam)
        mask = fam.w == 2
        for key, expected in [
            (np.array([4, 0, 4]), [cubes[4], cubes[0], cubes[4]]),
            (mask, [Q for Q in cubes if Q.w == 2]),
            (slice(3, 9, 2), cubes[3:9:2]),
            (np.array([], dtype=int), []),
        ]:
            sub = fam[key]
            assert isinstance(sub, CubeSet) and sub.grid is g
            assert list(sub) == expected

    def test_dilate3_matches_the_cubes(self):
        g = make_grid(2, 1.0, 8)
        fam = cube_family(g, "dyadic")
        assert list(fam.dilate3()) == [Q.dilate3() for Q in fam]

    def test_per_width_once_per_width(self):
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "centered")
        seen = []
        got = fam.per_width(lambda Q: seen.append(Q.w) or Q.side)
        assert seen == sorted(set(fam.w.tolist()))
        np.testing.assert_array_equal(got, [Q.side for Q in fam])

    def test_of_is_idempotent(self):
        g = make_grid(2, 1.0, 8)
        fam = cube_family(g, "dyadic")
        assert CubeSet.of(g, fam) is fam
        again = CubeSet.of(g, list(fam))
        assert again is not fam and list(again) == list(fam)
        assert CubeSet.of(g, again) is again
        assert CubeSet.of(make_grid(2, 1.0, 8), fam) is fam  # a compatible grid
        assert CubeSet.of(g, iter(list(fam)[:3])).w.tolist() == [8, 4, 4]

    def test_bad_cubes_raise_as_cube_does(self):
        g = make_grid(2, 1.0, 8)
        for lo, w in [((0, 0), 0), ((0,), 2), ((0, 0, 0), 2)]:
            with pytest.raises(ValueError) as cube_err:
                Cube(g, lo, w)
            with pytest.raises(ValueError) as set_err:
                CubeSet(g, [lo], [w])
            assert str(set_err.value) == str(cube_err.value)
        with pytest.raises(ValueError, match="at least one cell"):
            CubeSet(g, [(0, 0), (2, 2)], [2, -1])

    def test_incompatible_grid_raises(self):
        g, other = make_grid(1, 1.0, 16), make_grid(1, 2.0, 16)
        f = GridFunction.constant(g, 1.0)
        spec = NormSpec.lebesgue(1.0)
        for fam in (cube_family(other, "centered"), list(cube_family(other, "centered"))):
            with pytest.raises(ValueError, match="does not live on this grid"):
                CubeSet.of(g, fam)
            with pytest.raises(ValueError, match="does not live on this grid"):
                luxemburg_norms(f, fam, spec)
            with pytest.raises(ValueError, match="does not live on this grid"):
                maximal(lambda Q: 1.0, [spec], [f], g, fam)
        mixed = list(cube_family(g, "dyadic")) + [Cube(other, (0,), 2)]
        with pytest.raises(ValueError, match="does not live on this grid"):
            luxemburg_norms(f, mixed, spec)

    def test_empty_set_gives_empty_results(self):
        g = make_grid(2, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        for empty in (CubeSet(g, np.zeros((0, 2), dtype=int), []), cube_family(g, "dyadic")[:0],
                      CubeSet.of(g, [])):
            assert len(empty) == 0 and list(empty) == []
            assert empty.lo.shape == (0, 2)
            assert luxemburg_norms(f, empty, NormSpec.power_log(1.0, 1.0)).shape == (0,)
            assert empty.per_width(lambda Q: 1.0).shape == (0,)
            assert len(empty.dilate3()) == 0


class TestByWidth:
    def test_widths_ascending_with_ascending_indices(self):
        g = make_grid(2, 1.0, 8)
        cubes = CubeSet(g, np.zeros((6, 2), dtype=int), [4, 1, 2, 1, 4, 12])
        got = [(w, idx.tolist()) for w, idx in cubes.by_width()]
        assert got == [(1, [1, 3]), (2, [2]), (4, [0, 4]), (12, [5])]
        assert all(type(w) is int for w, _ in cubes.by_width())
        assert CubeSet(g, np.zeros((0, 2), dtype=int), 1).by_width() == []

    def test_commands_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma, about 10 ms, on its first call in a process
        code = (
            "import sys\n"
            "from multipot import cube_family, cz_decompose, make_grid, parse_kernel, parse_weight\n"
            "from multipot.verify import make_corpus, verify_control\n"
            "g = make_grid(1, 1.0, 16)\n"
            "corpus = make_corpus(g, 1, count=2, seed=0)\n"
            "verify_control(0, 0.5, parse_kernel('frac0.5', 1, 1), parse_weight('pow0.3', g), corpus,\n"
            "               cube_family(g, 'centered'))\n"
            "g = make_grid(2, 1.0, 16)\n"
            "cz_decompose(make_corpus(g, 1, count=1, seed=3)[0], 2.0, g).to_json()\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(multipot.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


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
        assert Q3.measure == pytest.approx(6 * g.h)

    def test_cube_outside_box_is_empty(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        for Q in (Cube(g, (-7,), 2), Cube(g, (9,), 2)):
            assert f.restrict(Q).size == 0


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

    def test_rejects_values_of_another_shape(self):
        # the 16 values of a 4 x 4 grid, flat, are not reshaped onto it
        g = make_grid(2, 1.0, 4)
        with pytest.raises(ValueError, match=r"shape \(16,\) on a grid of shape \(4, 4\)"):
            GridFunction(g, np.ones(16))

    def test_restrict_to_a_cube_on_another_grid_raises(self):
        f = GridFunction.constant(make_grid(1, 1.0, 8), 1.0)
        with pytest.raises(ValueError, match="does not live on this grid"):
            f.restrict(make_grid(1, 1.0, 16).whole_box())

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
        assert back.grid == g
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
    lhs = integrate(GridFunction(g, a * f.values + b * h.values))
    rhs = a * integrate(f) + b * integrate(h)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
