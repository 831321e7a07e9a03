import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from multipot import (
    Cube,
    GridFunction,
    NormSpec,
    YoungFunction,
    cube_family,
    integrate,
    luxemburg_norm,
    luxemburg_norms,
    make_grid,
    maximal,
    parse_norm_spec,
)
from multipot import orlicz


def _random_f(grid, rng):
    return GridFunction(grid, rng.uniform(0.1, 3.0, size=grid.shape))


class TestYoungEval:
    def test_power_log_at_one(self):
        Y = YoungFunction("power-log", p=1, alpha=1)
        assert Y(1.0) == pytest.approx(1.0)

    def test_exp_at_zero(self):
        assert YoungFunction("exp")(0.0) == 0.0

    def test_power_log_at_e(self):
        Y = YoungFunction("power-log", p=2, alpha=1)
        assert Y(math.e) == pytest.approx(2.0 * math.e**2, rel=1e-14)

    def test_composed_is_right_to_left(self):
        sq = YoungFunction("power-log", p=2)
        Y = sq.iterate(2)
        assert Y(3.0) == pytest.approx(81.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            YoungFunction("exp")(-1.0)

    def test_convex_increasing_zero_at_zero(self):
        cases = [
            (YoungFunction("power-log", p=1, alpha=1), 1e6),
            (YoungFunction("power-log", p=2, alpha=0.5), 1e6),
            (YoungFunction("identity"), 1e6),
            # exp-power is convex only from t = 1 on; sample there
            (YoungFunction("exp-power", q=2), (1.0, 100.0)),
        ]
        for Y, tmax in cases:
            lo, hi = tmax if isinstance(tmax, tuple) else (0.0, tmax)
            ts = np.linspace(lo, hi, 201)
            v = np.asarray(Y(ts))
            assert float(Y(0.0)) == 0.0
            assert np.all(np.diff(v) >= -1e-9)
            # midpoint convexity on the sample
            assert np.all(v[1:-1] <= 0.5 * (v[:-2] + v[2:]) + 1e-6 * np.abs(v[2:]))


class TestSpecValidation:
    @pytest.mark.parametrize("fields,message", [
        (dict(kind="gauss"), "unknown Young family"),
        (dict(kind="power-log", p=0.5), "p >= 1"),
        (dict(kind="power-log", alpha=-1.0), "alpha >= 0"),
        (dict(kind="composed"), "needs parts"),
    ], ids=["unknown-family", "power-below-one", "negative-log-power", "composed-without-parts"])
    def test_young_function_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            YoungFunction(**fields)

    @pytest.mark.parametrize("fields,message", [
        (dict(), "exactly one of r, young"),
        (dict(r=2.0, young=YoungFunction("exp")), "exactly one of r, young"),
        (dict(r=0.5), "r >= 1"),
    ], ids=["neither", "both", "exponent-below-one"])
    def test_norm_spec_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            NormSpec(**fields)


class TestLuxemburgNorm:
    def test_constant_l1(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 3.0)
        assert luxemburg_norm(f, g.whole_box(), NormSpec.lebesgue(1.0)) == pytest.approx(3.0)

    def test_constant_exp(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        spec = NormSpec.orlicz(YoungFunction("exp"))
        got = luxemburg_norm(f, g.whole_box(), spec, tol=1e-12)
        assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-8)

    def test_two_level_l2(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction(g, np.where(g.centers_1d() < 0, 2.0, 0.0))
        got = luxemburg_norm(f, g.whole_box(), NormSpec.lebesgue(2.0))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zero_function(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 0.0)
        spec = NormSpec.orlicz(YoungFunction("exp"))
        assert luxemburg_norm(f, g.whole_box(), spec) == 0.0

    def test_bad_tol(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            luxemburg_norm(GridFunction.constant(g, 1.0), g.whole_box(),
                           NormSpec.lebesgue(1.0), tol=-1.0)

    def test_young_power_matches_lebesgue(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(3)
        fam = cube_family(g, "dyadic")
        for r in (1.0, 1.5, 2.0):
            young = NormSpec.orlicz(YoungFunction("power-log", p=r))
            fast = NormSpec.lebesgue(r)
            for _ in range(10):
                f = _random_f(g, rng)
                Q = fam[int(rng.integers(0, len(fam)))]
                a = luxemburg_norm(f, Q, young, tol=1e-12)
                b = luxemburg_norm(f, Q, fast)
                assert a == pytest.approx(b, rel=1e-9)

    def test_homogeneity(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(4)
        f = _random_f(g, rng)
        Q = g.whole_box()
        for spec in (NormSpec.lebesgue(2.0),
                     NormSpec.orlicz(YoungFunction("exp")),
                     NormSpec.power_log(1.0, 1.0)):
            base = luxemburg_norm(f, Q, spec, tol=1e-12)
            scaled = luxemburg_norm(GridFunction(g, 3.7 * f.values), Q, spec, tol=1e-12)
            assert scaled == pytest.approx(3.7 * base, rel=1e-8)

    def test_pointwise_monotonicity(self):
        g = make_grid(1, 1.0, 16)
        rng = np.random.default_rng(5)
        f = _random_f(g, rng)
        bigger = GridFunction(g, f.values + rng.uniform(0.0, 1.0, size=g.shape))
        Q = g.whole_box()
        for spec in (NormSpec.lebesgue(1.5), NormSpec.power_log(1.0, 1.0)):
            assert luxemburg_norm(f, Q, spec) <= luxemburg_norm(bigger, Q, spec) + 1e-9


class TestLuxemburgNorms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["Lp1logL1", "expL^{1/2}", "L^1.5"])
    def test_matches_scalar_on_clipped_cubes(self, n, spec):
        g = make_grid(n, 1.0, {1: 16, 2: 8, 3: 4}[n])
        rng = np.random.default_rng(n)
        f = GridFunction(g, rng.lognormal(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.7))
        spec = parse_norm_spec(spec)
        by_width = {}
        for Q in cube_family(g, "dyadic"):
            by_width.setdefault(3 * Q.w, []).append(Q.dilate3())
        for w, cubes in by_width.items():
            # two cubes that miss the box have norm 0
            cubes += [Cube(g, (-w - 5,) * n, w), Cube(g, (g.N,) * n, w)]
            got = luxemburg_norms(f, cubes, spec)
            want = [luxemburg_norm(f, Q, spec) for Q in cubes]
            if spec.young is not None:
                # both sum the nonzero cells of a cube left to right
                np.testing.assert_array_equal(got, want)
            else:
                # the L^r sum of a window also adds its padded zeros
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            assert got[-1] == got[-2] == 0.0

    def test_mixed_widths_match_per_width_calls(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction(g, np.arange(1.0, 9.0))
        cubes = [Cube(g, (0,), 2), Cube(g, (-1,), 4), Cube(g, (3,), 2), Cube(g, (6,), 4)]
        for spec in (NormSpec.lebesgue(1.0), parse_norm_spec("Lp1logL1")):
            np.testing.assert_array_equal(luxemburg_norms(f, cubes, spec),
                                          _per_width_norms(f, cubes, spec))


def _per_width_norms(f, cubes, spec):
    """luxemburg_norms with one call per cube width, in input order."""
    out = np.empty(len(cubes))
    for w in {Q.w for Q in cubes}:
        idx = [k for k, Q in enumerate(cubes) if Q.w == w]
        out[idx] = luxemburg_norms(f, [cubes[k] for k in idx], spec)
    return out


class TestLogLNesting:
    def test_log_refined_norm_below_l2_with_constant(self):
        # ||f||_{L(logL)^a, Q} <= C ||f||_{L^2, Q}: the discrete cube norms
        # obey this with a constant slightly above 1, not with C = 1
        # (two-level counterexamples reach ~1.04), so the bound is checked
        # with an empirical constant.
        g = make_grid(1, 1.0, 32)
        rng = np.random.default_rng(6)
        fam = cube_family(g, "dyadic")
        l2 = NormSpec.lebesgue(2.0)
        for a in (0.5, 1.0):
            spec = NormSpec.power_log(1.0, a)
            worst = 0.0
            for _ in range(40):
                f = _random_f(g, rng)
                Q = fam[int(rng.integers(0, len(fam)))]
                denom = luxemburg_norm(f, Q, l2)
                if denom == 0.0:
                    continue
                worst = max(worst, luxemburg_norm(f, Q, spec) / denom)
            assert worst <= 1.1


class TestBmoPairing:
    def test_oscillation_against_logl_norm(self):
        # (1/|Q|) int |b - b_Q| |f| <= C ||b||_* ||f||_{L(logL),Q}
        # with one finite constant across the dyadic family
        from multipot import gen_bmo_log

        g = make_grid(1, 1.0, 32)
        fam = cube_family(g, "dyadic")
        b = gen_bmo_log(g)
        bstar = max(float(np.abs(b.restrict(Q) - b.restrict(Q).mean()).mean()) for Q in fam)
        assert bstar > 0
        rng = np.random.default_rng(9)
        spec = NormSpec.power_log(1.0, 1.0)
        worst = 0.0
        for _ in range(20):
            f = _random_f(g, rng)
            for Q in fam:
                sub_b = b.restrict(Q)
                mean = float(sub_b.mean())
                osc = float((np.abs(sub_b - mean) * f.restrict(Q)).mean())
                denom = bstar * luxemburg_norm(f, Q, spec)
                if denom > 0:
                    worst = max(worst, osc / denom)
        assert math.isfinite(worst)
        assert worst < 10.0


class TestParseNormSpec:
    def test_lebesgue(self):
        spec = parse_norm_spec("L^2")
        assert spec.r == 2.0

    def test_power_log(self):
        spec = parse_norm_spec("Lp1logL1.5")
        assert spec.young.kind == "power-log"
        assert spec.young.p == 1.0
        assert spec.young.alpha == 1.5

    def test_exp(self):
        assert parse_norm_spec("expL").young.kind == "exp"

    def test_exp_power(self):
        spec = parse_norm_spec("expL^{1/2}")
        assert spec.young.kind == "exp-power"
        assert spec.young.q == 2.0

    def test_composed(self):
        spec = parse_norm_spec("B^2(Lp1logL1)")
        assert spec.young.kind == "composed"
        assert len(spec.young.parts) == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_norm_spec("sobolev")


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.01, 100.0), seed=st.integers(0, 50))
def test_homogeneity_property(c, seed):
    g = make_grid(1, 1.0, 8)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.uniform(0.1, 2.0, size=g.shape))
    spec = NormSpec.power_log(1.0, 1.0)
    Q = g.whole_box()
    base = luxemburg_norm(f, Q, spec, tol=1e-12)
    assert luxemburg_norm(GridFunction(g, c * f.values), Q, spec, tol=1e-12) == pytest.approx(c * base, rel=1e-7)


_SOLVER_SPECS = ["Lp1logL1", "Lp1.5logL2", "expL", "expL^{1/2}", "B^2(Lp1logL1)"]


def _bisection_norm(f, Q, spec, tol=1e-10):
    """Young-spec Luxemburg norm by bracketing and bisection on lambda: the
    oracle for the Illinois solver of luxemburg_norm and luxemburg_norms."""
    v = np.abs(f.restrict(Q)).ravel()
    if v.size == 0 or v.max() == 0.0:
        return 0.0
    cellfrac = f.grid.cell_volume / Q.measure
    Y = spec.young
    v = v[v > 0]

    def constraint(lam):
        return float(np.sum(Y(v / lam)) * cellfrac)

    hi = v.max()
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


def _young_sum(v, lam, Y, cellfrac):
    """sum Y(v / lam) * cellfrac, with the float operations of the solver:
    the terms are added left to right."""
    total = 0.0
    for y in Y(v / lam).tolist():
        total += y
    return total * cellfrac


def _window(f, Q):
    """|f| on the cells of Q in C order, zero off the box: the row that
    luxemburg_norms takes for Q (Q must meet the box)."""
    padded = np.pad(np.abs(f.values), Q.w)
    return padded[tuple(slice(lo + Q.w, lo + 2 * Q.w) for lo in Q.lo)].ravel()


def _assert_solved(r, oracle, v, Q, spec, tol):
    """r is within 2 tol of the bisection, feasible, and r (1 - tol) is not,
    unless r is an exact root."""
    assert abs(r - oracle) <= 2 * tol * oracle
    if oracle == 0.0:
        return
    cellfrac = Q.grid.cell_volume / Q.measure
    s = _young_sum(v, r, spec.young, cellfrac)
    assert s <= 1.0
    if s != 1.0:
        assert _young_sum(v, r * (1 - tol), spec.young, cellfrac) > 1.0


def _banded_function(g, seed):
    """Zero, then constant 2.5, then sparse lognormal along the first axis,
    so small dyadic cubes give zero rows, constant rows and random rows."""
    rng = np.random.default_rng(seed)
    vals = rng.lognormal(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.7)
    i0 = np.arange(g.N).reshape((-1,) + (1,) * (g.n - 1))
    vals = np.where(i0 < g.N // 4, 0.0, np.where(i0 < g.N // 2, 2.5, vals))
    return GridFunction(g, vals)


@pytest.fixture
def young_calls(monkeypatch):
    """A list that gets one entry per YoungFunction evaluation: the number
    of values it evaluates.  The evaluator is YoungFunction._apply, which
    __call__ and the root-finder both use."""
    calls = []
    young_apply = YoungFunction._apply

    def counted(self, t):
        calls.append(np.size(t))
        return young_apply(self, t)

    monkeypatch.setattr(YoungFunction, "_apply", counted)
    return calls


class TestSolverAgainstBisection:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", _SOLVER_SPECS)
    def test_scalar_and_batched(self, n, spec):
        g = make_grid(n, 1.0, {1: 16, 2: 8, 3: 4}[n])
        f = _banded_function(g, n)
        spec = parse_norm_spec(spec)
        tol = 1e-10
        by_width = {}
        for Q in cube_family(g, "dyadic"):
            by_width.setdefault(Q.w, []).append(Q)
            by_width.setdefault(3 * Q.w, []).append(Q.dilate3())
        exact = clipped = zero = 0
        for w, cubes in by_width.items():
            cubes += [Cube(g, (-w - 5,) * n, w), Cube(g, (g.N,) * n, w)]
            batched = luxemburg_norms(f, cubes, spec)
            for Q, got in zip(cubes, batched):
                want = _bisection_norm(f, Q, spec, tol)
                if want == 0.0:
                    zero += 1
                    assert got == luxemburg_norm(f, Q, spec, tol) == 0.0
                    continue
                _assert_solved(got, want, _window(f, Q), Q, spec, tol)
                r = luxemburg_norm(f, Q, spec, tol)
                v = np.abs(f.restrict(Q)).ravel()
                _assert_solved(r, want, v, Q, spec, tol)
                exact += _young_sum(v, r, spec.young, g.cell_volume / Q.measure) == 1.0
                clipped += any(l < 0 or l + Q.w > g.N for l in Q.lo)
        assert clipped and zero
        if spec.young.kind == "power-log":
            # a constant is solved at its first bracket point, vmax
            assert exact

    def test_constant_solved_at_vmax(self, young_calls):
        g = make_grid(1, 1.0, 16)
        f = GridFunction.constant(g, 3.0)
        spec = parse_norm_spec("Lp1logL1")
        assert luxemburg_norm(f, g.whole_box(), spec) == 3.0
        assert len(young_calls) == 1
        young_calls.clear()
        cubes = [Cube(g, (i,), 4) for i in range(0, 13, 4)]
        np.testing.assert_array_equal(luxemburg_norms(f, cubes, spec), 3.0)
        assert len(young_calls) == 1

    @pytest.mark.parametrize("spec", _SOLVER_SPECS)
    def test_multi_chunk(self, spec, monkeypatch):
        monkeypatch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
        g = make_grid(2, 1.0, 8)
        f = _banded_function(g, 11)
        spec = parse_norm_spec(spec)
        cubes = [Cube(g, lo, 3) for lo in np.ndindex(8, 8)] + [Cube(g, (-2, 6), 3)]
        got = luxemburg_norms(f, cubes, spec)
        for Q, r in zip(cubes, got):
            want = _bisection_norm(f, Q, spec)
            _assert_solved(r, want, _window(f, Q), Q, spec, 1e-10)

    def test_young_evaluations_per_call(self, young_calls):
        # one luxemburg_norms call on the cubes of one width that meet the
        # box; bisection takes about 37 Young evaluations per call
        g = make_grid(1, 1.0, 128)
        f = GridFunction(g, np.random.default_rng(0).lognormal(0.0, 1.0, g.shape))
        spec = parse_norm_spec("Lp1logL1")
        for w in range(1, g.N + 1):
            young_calls.clear()
            luxemburg_norms(f, [Cube(g, (lo,), w) for lo in range(1 - w, g.N)], spec)
            assert len(young_calls) <= 16, w

    def test_young_evaluations_per_maximal_call(self, young_calls):
        # one root-finder pass for all 8 widths of the family, where one
        # pass per width took 70-78 Young evaluations
        g = make_grid(1, 1.0, 128)
        f = GridFunction(g, np.random.default_rng(0).lognormal(0.0, 1.0, g.shape))
        spec = parse_norm_spec("Lp1logL1")
        fam = cube_family(g, "centered")
        maximal(lambda Q: 1.0, [spec], [f], g, fam)
        assert len(young_calls) <= 16
        values = sum(young_calls)
        young_calls.clear()
        _per_width_norms(f, fam, spec)
        assert sum(young_calls) == values  # the same values are evaluated

    def test_growth_bound_step_takes_fewer_young_calls(self, young_calls):
        # on a row with S(vmax) < 1 the step to vmax S(vmax)^(1/p) closes the
        # bracket; halving from the row max took 12 calls on each
        g = make_grid(1, 1.0, 128)
        rng = np.random.default_rng(1)
        dense = rng.lognormal(0.0, 1.0, g.shape)
        sparse = dense * (np.random.default_rng(2).uniform(size=g.shape) < 0.3)
        for vals, most in ((dense, 10), (sparse, 9)):
            young_calls.clear()
            maximal(lambda Q: 1.0, [parse_norm_spec("Lp1logL1")], [GridFunction(g, vals)],
                    g, cube_family(g, "centered"))
            assert len(young_calls) <= most

    def test_growth_bound_fallback_for_a_nonconvex_young(self, monkeypatch):
        # expL^{1/2}, e^sqrt(t) - 1, is concave near 0, so on half ones and
        # half zeros S(x) = (e^(1 / sqrt(x)) - 1) / 2 < 1 at x = S(1): x
        # becomes hi and the halving starts from it
        g = make_grid(1, 1.0, 16)
        f = GridFunction(g, (np.arange(g.N) < g.N // 2).astype(float))
        spec = parse_norm_spec("expL^{1/2}")
        lams, young_apply = [], YoungFunction._apply

        def spied(self, t):
            lams.append(1.0 / float(np.max(t)))  # the cells are 0 or 1
            return young_apply(self, t)

        monkeypatch.setattr(YoungFunction, "_apply", spied)
        tol = 1e-10
        got = luxemburg_norm(f, g.whole_box(), spec, tol)
        s_max = 0.5 * math.expm1(1.0)
        assert lams[0] == 1.0
        assert lams[1] == pytest.approx(s_max, rel=1e-15)
        assert 0.5 * math.expm1(1.0 / math.sqrt(lams[1])) < 1.0
        assert lams[2] == pytest.approx(0.5 * lams[1], rel=1e-15)
        assert got == pytest.approx(1.0 / math.log(3.0) ** 2, rel=2 * tol)
        _assert_solved(got, _bisection_norm(f, g.whole_box(), spec, tol), f.values, g.whole_box(), spec, tol)

    def test_young_never_receives_a_zero(self, monkeypatch):
        # Y(0) = 0 adds nothing to S, so the root-finder leaves zero cells out
        g = make_grid(1, 1.0, 128)
        vals = np.random.default_rng(0).lognormal(0.0, 1.0, g.shape)
        f = GridFunction(g, np.where(np.arange(g.N) < g.N // 2, 0.0, vals))
        seen, young_apply = [], YoungFunction._apply

        def spied(self, t):
            seen.append(np.array(t, dtype=float).ravel())
            return young_apply(self, t)

        monkeypatch.setattr(YoungFunction, "_apply", spied)
        maximal(lambda Q: 1.0, [parse_norm_spec("Lp1logL1")], [f], g,
                cube_family(g, "centered"))
        values = np.concatenate(seen)
        assert values.size and np.count_nonzero(values == 0.0) == 0

    @pytest.mark.parametrize("kind", ["centered", "dyadic"])
    def test_cube_set_and_list_evaluate_the_same(self, young_calls, kind):
        g = make_grid(1, 1.0, 128)
        f = GridFunction(g, np.random.default_rng(0).lognormal(0.0, 1.0, g.shape))
        spec = parse_norm_spec("Lp1logL1")
        fam = cube_family(g, kind)
        got = maximal(lambda Q: 1.0, [spec], [f], g, fam)
        calls, young_calls[:] = list(young_calls), []
        expected = maximal(lambda Q: 1.0, [spec], [f], g, list(fam))
        assert calls == young_calls  # the same calls on the same numbers of values
        np.testing.assert_array_equal(got.values, expected.values)

    @pytest.mark.parametrize("spec", _SOLVER_SPECS)
    def test_chunks_span_widths(self, spec, monkeypatch):
        g = make_grid(1, 1.0, 16)
        f = _banded_function(g, 5)
        spec = parse_norm_spec(spec)
        cubes = _mixed_width_cubes(g)
        want = _per_width_norms(f, cubes, spec)
        chunks, young_row_norms = [], orlicz._young_row_norms

        def young_spy(v, row, frac, *args):
            chunks.append((v.size, frac.copy()))
            return young_row_norms(v, row, frac, *args)

        monkeypatch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
        monkeypatch.setattr(orlicz, "_young_row_norms", young_spy)
        np.testing.assert_array_equal(luxemburg_norms(f, cubes, spec), want)
        # a constant has 8 nonzero cells in a cube of width 8, over the cap
        luxemburg_norms(GridFunction.constant(g, 2.5), cubes, spec)
        # in 1-D a row is one line: at most 7 nonzero cells and 7 rows, or one row alone
        assert chunks
        for cells, fracs in chunks:
            assert (cells <= 7 and fracs.size <= 7) or fracs.size == 1
        assert any(np.unique(fracs).size > 1 for _, fracs in chunks)  # a chunk spans widths
        assert any(fracs.size == 1 and cells == 8 for cells, fracs in chunks)

    def test_lr_chunks_hold_one_width(self, monkeypatch):
        g = make_grid(1, 1.0, 16)
        f = _banded_function(g, 5)
        spec = parse_norm_spec("L^1.5")
        cubes = _mixed_width_cubes(g)
        want = _per_width_norms(f, cubes, spec)
        shapes, lr_norms = [], orlicz._lr_norms

        def spy(v, r, frac):
            shapes.append(v.shape)
            return lr_norms(v, r, frac)

        monkeypatch.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
        monkeypatch.setattr(orlicz, "_lr_norms", spy)
        np.testing.assert_array_equal(luxemburg_norms(f, cubes, spec), want)
        # narrowest first, 7 // w cubes of width w a chunk, a cube of width 8 alone
        expected = []
        for w in (1, 2, 3, 8):
            count, k = sum(Q.w == w for Q in cubes), max(1, 7 // w)
            expected += [(min(k, count - i), w) for i in range(0, count, k)]
        assert shapes == expected


def _mixed_width_cubes(g):
    """Cubes of widths 1, 2, 3 and 8 along a 1-D grid, some clipped by the
    box, in a shuffled order."""
    cubes = [Cube(g, (lo,), w) for w in (1, 2, 3, 8) for lo in range(-w, g.N + 1, 3)]
    return [cubes[k] for k in np.random.default_rng(0).permutation(len(cubes))]


def _random_cubes(g, w, rng, k=4):
    """k cubes of width w, some clipped by the box."""
    return [Cube(g, tuple(int(i) for i in rng.integers(-w + 1, g.N, g.n)), w) for _ in range(k)]


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(_SOLVER_SPECS), n=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**16), c=st.floats(1e-3, 1e3), w=st.sampled_from([1, 2, 3, 4]))
def test_solver_homogeneity_property(spec, n, seed, c, w):
    g = make_grid(n, 1.0, {1: 16, 2: 4}[n])
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.lognormal(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.6))
    spec = parse_norm_spec(spec)
    cubes = _random_cubes(g, w, rng)
    tol = 1e-10
    cf = GridFunction(g, c * f.values)
    base = luxemburg_norms(f, cubes, spec)
    np.testing.assert_allclose(luxemburg_norms(cf, cubes, spec), c * base, rtol=2 * tol, atol=0)
    assert luxemburg_norm(cf, cubes[0], spec, tol) == pytest.approx(
        c * luxemburg_norm(f, cubes[0], spec, tol), rel=2 * tol, abs=0)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(_SOLVER_SPECS + ["L^1.5"]), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**16))
def test_mixed_widths_match_per_width_calls_property(spec, n, seed):
    # dyadic cubes, their clipped triples and cubes that miss the box, in a
    # random order; the banded f gives zero rows and constant rows
    g = make_grid(n, 1.0, {1: 16, 2: 8, 3: 4}[n])
    f = _banded_function(g, seed)
    spec = parse_norm_spec(spec)
    rng = np.random.default_rng(seed)
    cubes = [C for Q in cube_family(g, "dyadic") for C in (Q, Q.dilate3())]
    cubes += [Cube(g, (-6,) * n, 1), Cube(g, (-8,) * n, 3), Cube(g, (g.N,) * n, 2)]
    cubes = [cubes[k] for k in rng.permutation(len(cubes))[: rng.integers(1, len(cubes) + 1)]]
    got = luxemburg_norms(f, cubes, spec)
    np.testing.assert_array_equal(got, _per_width_norms(f, cubes, spec))
    np.testing.assert_array_equal(luxemburg_norms(f, cubes[::-1], spec), got[::-1])


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(_SOLVER_SPECS), n=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**16), w=st.sampled_from([1, 2, 3, 4]))
def test_solver_monotonicity_property(spec, n, seed, w):
    g = make_grid(n, 1.0, {1: 16, 2: 4}[n])
    rng = np.random.default_rng(seed)
    small = rng.lognormal(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.6)
    big = small + rng.uniform(0.0, 1.0, g.shape) * (rng.uniform(size=g.shape) < 0.3)
    f, h = GridFunction(g, small), GridFunction(g, big)
    spec = parse_norm_spec(spec)
    cubes = _random_cubes(g, w, rng)
    tol = 1e-10
    assert np.all(luxemburg_norms(f, cubes, spec) <= luxemburg_norms(h, cubes, spec) * (1 + tol))
    for Q in cubes:
        assert luxemburg_norm(f, Q, spec, tol) <= luxemburg_norm(h, Q, spec, tol) * (1 + tol)


def _power_log_two_pass(t, p, alpha):
    """The earlier power-log evaluation: log+ through np.where over a
    clamped log, and both powers taken even when the exponent is 1."""
    t = np.asarray(t, dtype=float)
    logplus = np.where(t > 1, np.log(np.maximum(t, 1e-300)), 0.0)
    return t**p * (1.0 + logplus) ** alpha


class TestPowerLogAgainstTwoPassFormula:
    @pytest.mark.parametrize("p,alpha", [(1, 1), (1, 0.5), (1, 1.5), (2, 1), (1.5, 0)])
    def test_equal_bit_for_bit(self, p, alpha):
        rng = np.random.default_rng(0)
        edges = [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-320,
                 1e-300, 1e300, 5e-324, 0.5, 2.0]
        t = np.concatenate([edges, rng.lognormal(0.0, 3.0, 500), rng.uniform(0.0, 2.0, 500)])
        Y = YoungFunction("power-log", p=p, alpha=alpha)
        with np.errstate(over="ignore"):  # (1e300) ** 2 is inf on both sides
            np.testing.assert_array_equal(Y(t), _power_log_two_pass(t, p, alpha))
            for s in edges:
                assert Y(s) == float(_power_log_two_pass(s, p, alpha))


def test_l1_lr_norms_are_the_sums():
    # for r = 1 the scalar root s ** 1.0 is skipped: it returns s
    rng = np.random.default_rng(1)
    for v, frac in ((rng.lognormal(0.0, 1.0, (5, 4)), 0.25), (rng.uniform(size=(3, 9)), 1 / 9),
                    (np.zeros((2, 9)), 1 / 9)):
        sums = np.sum(v, axis=1) * frac
        np.testing.assert_array_equal(orlicz._lr_norms(v, 1.0, frac), [s ** (1.0 / 1.0) for s in sums.tolist()])


class TestMultiFunctionNorms:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(_SOLVER_SPECS + ["L^1", "L^1.5"]), n=st.sampled_from([1, 2, 3]),
           count=st.integers(1, 4), small_chunks=st.booleans(), seed=st.integers(0, 2**16))
    def test_match_one_call_per_function_property(self, spec, n, count, small_chunks, seed):
        g = make_grid(n, 1.0, {1: 16, 2: 8, 3: 4}[n])
        rng = np.random.default_rng(seed)
        fs = [_banded_function(g, seed + j) for j in range(count)]
        fs[-1] = GridFunction.constant(g, 0.0) if count > 2 else fs[-1]
        fs.append(fs[0])  # one object twice
        spec = parse_norm_spec(spec)
        cubes = [C for Q in cube_family(g, "dyadic") for C in (Q, Q.dilate3())]
        cubes += [Cube(g, (-6,) * n, 1), Cube(g, (g.N,) * n, 2)]
        cubes = [cubes[k] for k in rng.permutation(len(cubes))]
        which = rng.integers(0, len(fs), len(cubes))
        with pytest.MonkeyPatch.context() as mp:
            if small_chunks:
                mp.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
            got = luxemburg_norms(fs, cubes, spec, which=which)
        want = np.empty(len(cubes))
        for j, f in enumerate(fs):
            idx = np.flatnonzero(which == j)
            want[idx] = luxemburg_norms(f, [cubes[k] for k in idx], spec)
        np.testing.assert_array_equal(got, want)

    def test_bad_index_or_grid_raises(self):
        g = make_grid(1, 1.0, 8)
        f, cubes = GridFunction.constant(g, 1.0), cube_family(g, "dyadic")
        for which in ([0] * (len(cubes) - 1), [1] * len(cubes), [-1] * len(cubes)):
            with pytest.raises(ValueError, match="one function index per cube"):
                luxemburg_norms([f], cubes, NormSpec.lebesgue(1.0), which=which)
        other = GridFunction.constant(make_grid(1, 1.0, 16), 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            luxemburg_norms([f, other], cubes, NormSpec.lebesgue(1.0), which=[0] * len(cubes))


def test_solver_converges_when_the_sum_overflows_at_lo():
    # expL on lognormal data: e^(v / lam) overflows at the lower end of some
    # brackets, where the regula falsi step used to creep by tol * hi / 2
    g = make_grid(3, 1.0, 4)
    rng = np.random.default_rng(65536)
    f = GridFunction(g, rng.lognormal(0.0, 2.0, g.shape) * (rng.uniform(size=g.shape) < 0.6))
    spec, tol = parse_norm_spec("expL"), 1e-10
    cubes = [Q.dilate3() for Q in cube_family(g, "dyadic")]
    with np.errstate(over="ignore"):
        got = luxemburg_norms(f, cubes, spec)
        for r, Q in zip(got, cubes):
            _assert_solved(r, _bisection_norm(f, Q, spec, tol), _window(f, Q), Q, spec, tol)


def test_overflow_at_lo_raises_no_warning():
    # the data of the test above: S(lam) overflows to inf at the lower end
    # of some brackets, which the root-finder allows for, so the overflow
    # is not reported as a RuntimeWarning (an error under the test settings)
    g = make_grid(3, 1.0, 4)
    rng = np.random.default_rng(65536)
    f = GridFunction(g, rng.lognormal(0.0, 2.0, g.shape) * (rng.uniform(size=g.shape) < 0.6))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        luxemburg_norms(f, [Q.dilate3() for Q in cube_family(g, "dyadic")], parse_norm_spec("expL"))


def _padded_window_norms(fs, cubes, spec, which):
    """The gather that luxemburg_norms replaced: the stacked |f| through
    np.pad, the windows of each width from sliding_window_view and the
    cell fraction from Cube.measure, all the rows of a width at once: the
    L^r sums and a scalar root per row, or one root-finder call."""
    g, n = fs[0].grid, fs[0].grid.n
    ws = np.array([Q.w for Q in cubes])
    lo = np.clip([Q.lo for Q in cubes], -ws[:, None], g.N)
    before, after = max(0, -lo.min()), max(0, (lo + ws[:, None]).max() - g.N)
    padded = np.pad(np.abs(np.stack([f.values for f in fs])), [(0, 0)] + [(before, after)] * n)
    out = np.empty(len(cubes))
    for w in set(ws.tolist()):
        idx = np.flatnonzero(ws == w)
        windows = sliding_window_view(padded, (w,) * n, axis=tuple(range(1, n + 1)))
        block = windows[(which[idx], *(lo[idx] + before).T)].reshape(-1, w**n)
        frac = g.cell_volume / cubes[idx[0]].measure
        if spec.young is None:
            out[idx] = [s ** (1.0 / spec.r) for s in (np.sum(block**spec.r, axis=1) * frac).tolist()]
        else:
            row = np.repeat(np.arange(len(block)), np.count_nonzero(block, axis=1))
            out[idx] = orlicz._young_row_norms(block[block != 0], row, np.full(len(block), frac),
                                               spec.young, 1e-10)
    return out


def _gather_case(n, count, seed):
    """count banded functions, the zero function and one with a single
    nonzero cell, on a small grid whose cell side is not a power of two,
    and dyadic cubes, their clipped triples and cubes that miss the box,
    shuffled, with a random function index per cube."""
    g = make_grid(n, 1.3, {1: 16, 2: 8, 3: 4}[n])
    rng = np.random.default_rng(seed)
    fs = [_banded_function(g, seed + j) for j in range(count)]
    single = np.zeros(g.shape)
    single[tuple(rng.integers(0, g.N, n))] = rng.lognormal(0.0, 1.0)
    fs += [GridFunction.constant(g, 0.0), GridFunction(g, single)]
    cubes = [C for Q in cube_family(g, "dyadic") for C in (Q, Q.dilate3())]
    cubes += [Cube(g, (-6,) * n, 1), Cube(g, (-8,) * n, 3), Cube(g, (g.N,) * n, 2),
              Cube(g, (g.N + 3,) * n, 5)]
    cubes = [cubes[k] for k in rng.permutation(len(cubes))[: rng.integers(1, len(cubes) + 1)]]
    return fs, cubes, rng.integers(0, len(fs), len(cubes))


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(_SOLVER_SPECS + ["L^1", "L^1.5"]), n=st.sampled_from([1, 2, 3]),
       count=st.integers(1, 3), small_chunks=st.booleans(), seed=st.integers(0, 2**16))
def test_gather_matches_padded_windows_property(spec, n, count, small_chunks, seed):
    fs, cubes, which = _gather_case(n, count, seed)
    spec = parse_norm_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        if small_chunks:
            mp.setattr(orlicz, "_CHUNK_ELEMENTS", 7)
        got = luxemburg_norms(fs, cubes, spec, which=which)
    np.testing.assert_array_equal(got, _padded_window_norms(fs, cubes, spec, which))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=st.sampled_from(_SOLVER_SPECS), n=st.sampled_from([1, 2, 3]),
       count=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_batched_young_values_are_those_of_one_cube_calls_property(young_calls, spec, n, count,
                                                                   seed):
    # the root-finder gathers a row's cells again only when rows finish, and
    # never evaluates a finished row, so a batch evaluates what its cubes
    # would one at a time
    fs, cubes, which = _gather_case(n, count, seed)
    spec = parse_norm_spec(spec)
    young_calls.clear()
    luxemburg_norms(fs, cubes, spec, which=which)
    batched = sum(young_calls)
    young_calls.clear()
    for Q, j in zip(cubes, which.tolist()):
        luxemburg_norm(fs[j], Q, spec)
    assert batched == sum(young_calls)
