import math

import numpy as np
import pytest
from conftest import weak_maximal_lhs_at

from multipot import (
    GridFunction,
    Kernel,
    NormSpec,
    cube_family,
    luxemburg_norm,
    make_grid,
    maximal,
    parse_weight,
    phi_theta,
)
from multipot import verify
from multipot.orlicz import YoungFunction
from multipot.verify import (
    HypothesisUnmet,
    InequalityReport,
    lorentz_weak_quasinorm,
    make_corpus,
    remark_bundle,
    verify_coifman,
    verify_control,
    verify_fefferman_stein,
    verify_ftd,
    verify_strong,
    verify_weak_maximal,
)
from multipot.verify import testing_condition_W as eval_condition_W


def frac(alpha, n=1, m=1):
    return Kernel("fractional", n, m, alpha=alpha)


def small_setup(m=2, N=16, count=3, seed=0):
    g = make_grid(1, 1.0, N)
    fam = cube_family(g, "centered")
    K = frac(1.0, 1, m)
    corpus = make_corpus(g, m, count=count, seed=seed)
    one = GridFunction.constant(g, 1.0)
    return g, fam, K, corpus, one


class TestInequalityReport:
    def test_vanishing_right_side_raises(self):
        with pytest.raises(ArithmeticError, match="vanishing right side"):
            InequalityReport("t", {}).add(1.0, 0.0, "tuple0")

    def test_non_finite_ratio_raises(self):
        with pytest.raises(ArithmeticError, match="non-finite ratio"):
            InequalityReport("t", {}).add(math.inf, 1.0, "tuple0")


class TestLorentzWeakQuasinorm:
    def test_indicator_closed_form(self):
        # g = c on a set E, u = 1: the sup is c * |E|^(1/p)
        g = make_grid(1, 2.0, 32)
        vals = np.zeros(g.shape)
        vals[: g.N // 4] = 3.0  # measure 1.0
        f = GridFunction(g, vals)
        u = GridFunction.constant(g, 1.0)
        for p in (0.5, 1.0, 2.0):
            got = lorentz_weak_quasinorm(f, u, p)
            assert got == pytest.approx(3.0 * 1.0 ** (1.0 / p), rel=1e-12)

    def test_zero_function(self):
        g = make_grid(1, 1.0, 8)
        z = GridFunction.constant(g, 0.0)
        u = GridFunction.constant(g, 1.0)
        assert lorentz_weak_quasinorm(z, u, 1.0) == 0.0

    def test_agrees_with_dense_lambda_scan(self):
        g = make_grid(1, 1.0, 64)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.uniform(size=g.shape))
        u = GridFunction(g, rng.uniform(0.5, 1.5, size=g.shape))
        p = 0.5
        got = lorentz_weak_quasinorm(f, u, p)
        lams = np.linspace(1e-6, float(np.abs(f.values).max()), 10_000)
        cell = g.cell_volume
        brute = max(
            lam * (float(u.values[np.abs(f.values) > lam].sum()) * cell) ** (1 / p)
            for lam in lams
        )
        assert brute <= got + 1e-12
        assert got == pytest.approx(brute, rel=1e-3)

    def test_exponent_validation(self):
        g = make_grid(1, 1.0, 8)
        f = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError):
            lorentz_weak_quasinorm(f, f, 0.0)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_matches_per_value_loop(self, n, N, p):
        # few distinct levels give ties, a third of the cells are zero and
        # some negative values share |g| with positive ones
        g = make_grid(n, 1.0, N)
        rng = np.random.default_rng(n * 100 + N)
        vals = rng.integers(-4, 5, size=g.shape) * 0.25
        vals[rng.uniform(size=g.shape) < 0.3] = 0.0
        f = GridFunction(g, vals)
        u = GridFunction(g, rng.uniform(0.0, 2.0, size=g.shape), nonneg=True)
        expected = _lorentz_per_value(f, u, p)
        assert expected > 0
        assert lorentz_weak_quasinorm(f, u, p) == pytest.approx(expected, rel=1e-12)

    def test_single_value_and_zero_weight(self):
        g = make_grid(1, 1.0, 16)
        vals = np.zeros(g.shape)
        vals[3] = -2.0
        f = GridFunction(g, vals)
        u = GridFunction(g, np.linspace(0.0, 1.0, g.N), nonneg=True)
        for p in (0.5, 2.0):
            assert lorentz_weak_quasinorm(f, u, p) == pytest.approx(
                _lorentz_per_value(f, u, p), rel=1e-12)
        zero = GridFunction.constant(g, 0.0)
        assert lorentz_weak_quasinorm(f, zero, 1.0) == 0.0


def _lorentz_per_value(g, u, p):
    """max over distinct values v > 0 of |g| of v * u({|g| >= v})^(1/p),
    one masked sum per value."""
    av = np.abs(g.values)
    best = 0.0
    for v in np.unique(av[av > 0]):
        mass = float(u.values[av >= v].sum()) * g.grid.cell_volume
        best = max(best, float(v) * mass ** (1.0 / p))
    return best


class TestMakeCorpus:
    def test_deterministic(self):
        g = make_grid(1, 1.0, 32)
        a = make_corpus(g, 2, count=4, seed=7)
        b = make_corpus(g, 2, count=4, seed=7)
        for ta, tb in zip(a, b):
            for fa, fb in zip(ta, tb):
                np.testing.assert_array_equal(fa.values, fb.values)

    def test_seed_changes_output(self):
        g = make_grid(1, 1.0, 32)
        a = make_corpus(g, 1, count=4, seed=0)
        b = make_corpus(g, 1, count=4, seed=1)
        assert any(
            not np.array_equal(ta[0].values, tb[0].values) for ta, tb in zip(a, b)
        )

    def test_shape_and_sign(self):
        g = make_grid(1, 1.0, 16)
        corpus = make_corpus(g, 3, count=5, seed=2)
        assert len(corpus) == 5
        for tup in corpus:
            assert len(tup) == 3
            for f in tup:
                assert np.all(f.values >= 0)


class TestTestingConditionW:
    def _tc(self, u, vs, K, fam, X, Y, p=2.0, q=2.0, gamma=1.0):
        """The arguments of testing_condition_W, theta = 1."""
        return 1.0, gamma, X, Y, u, vs, K, p, q, fam

    def test_trivial_bundle_reduces_to_scale_function(self):
        # u = v = 1 and plain L^1 norms: every Luxemburg factor is 1 and
        # the sup is just the largest scale-function value over the family
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        Y = [[L1, L1], [L1, L1]]
        got = eval_condition_W(*self._tc(one, [one, one], K, fam, L1, Y))
        expected = max(phi_theta(K, 1.0, Q.side) for Q in fam)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_weight_gives_zero(self):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        z = GridFunction.constant(g, 0.0)
        Y = [[L1, L1], [L1, L1]]
        assert eval_condition_W(*self._tc(z, [one, one], K, fam, L1, Y)) == 0.0

    def test_doubling_u_doubles_value(self):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        Y = [[L1, L1], [L1, L1]]
        base = eval_condition_W(*self._tc(one, [one, one], K, fam, L1, Y))
        double = eval_condition_W(*self._tc(GridFunction(g, 2.0 * one.values), [one, one], K, fam, L1, Y))
        assert double == pytest.approx(2.0 * base, rel=1e-10)

    def test_vanishing_v_rejected(self):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        z = GridFunction.constant(g, 0.0)
        with pytest.raises(ValueError):
            eval_condition_W(*self._tc(one, [one, z], K, fam, L1,
                                         [[L1, L1], [L1, L1]]))

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_rejected(self, gamma):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        with pytest.raises(ValueError, match="gamma > 0"):
            eval_condition_W(*self._tc(one, [one, one], K, fam, L1, [[L1, L1], [L1, L1]], gamma=gamma))

    def test_bundle_shape_validated(self):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        with pytest.raises(ValueError):
            eval_condition_W(*self._tc(one, [one, one], K, fam, L1, [[L1]]))

    @pytest.mark.parametrize("count", [1, 3])
    def test_weight_count_validated(self, count):
        g, fam, K, _, one = small_setup(m=2)
        L1 = NormSpec.lebesgue(1.0)
        with pytest.raises(ValueError, match="one weight v per linear slot"):
            eval_condition_W(*self._tc(one, [one] * count, K, fam, L1, [[L1, L1], [L1, L1]]))


def per_cube_condition_W(theta, gamma, X, Y, u, vs, K, p, q, family):
    """max over j, sup over the family, of the weighted product, with one
    scalar luxemburg_norm per cube, factor and j: the per-cube loop, kept
    as the oracle for testing_condition_W."""
    m, grid = K.m, u.grid
    ug = GridFunction(grid, u.values**gamma)
    invs = [GridFunction(grid, 1.0 / v.values) for v in vs]
    expo = 1.0 / q - 1.0 / p
    best = 0.0
    for Q in family:
        base = phi_theta(K, theta, Q.side)
        base *= Q.measure**expo
        base *= luxemburg_norm(ug, Q, X) ** (1.0 / gamma)
        if base == 0.0:
            continue
        for j in range(m):
            term = base
            for i in range(m):
                term *= luxemburg_norm(invs[i], Q, Y[i][j])
            best = max(best, term)
    return best


def _strong_conditions(ell, p_list, q, K, u, vs, fam, delta_rem=0.5):
    """The arguments of each testing condition that verify_strong evaluates,
    built as it builds them."""
    p = 1.0 / sum(1.0 / pi for pi in p_list)
    b = remark_bundle(ell, q, p_list, delta_rem)

    def tc(theta, gamma, X, Y):
        return theta, gamma, X, Y, u, list(vs), K, p, q, fam

    if q > 1:
        out = [tc(1.0, 1.0, b["X1"] if ell == 1 else b["X0"], b["Y0"])]
        return out + [tc(1.0, 1.0, b["X0"], b["Y1"])] if ell == 1 else out
    out = [tc(q, q, NormSpec.power_log(1.0, ell * q), b["Y0"])]
    return out + [tc(q, 1.0, NormSpec.lebesgue(1.0), b["Y1"])] if ell == 1 else out


class TestTestingConditionOracle:
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n, m, N, p_list, q", [
        (1, 1, 32, [2.0], 2.0),
        (2, 1, 8, [2.0], 2.0),
        (1, 2, 16, [4.0, 4.0], 2.0),
        (1, 2, 16, [1.5, 1.5], 0.9),
    ])
    def test_matches_per_cube_loop(self, n, m, N, p_list, q, ell):
        g = make_grid(n, 1.0, N)
        fam = cube_family(g, "centered")
        K = Kernel("fractional", n, m, alpha=0.5)
        u = parse_weight("pow0.3", g)
        vs = [parse_weight(s, g) for s in ("pow-0.2", "pow0.4")[:m]]
        for tc in _strong_conditions(ell, p_list, q, K, u, vs, fam):
            got = eval_condition_W(*tc)
            assert got > 0.0
            assert got == per_cube_condition_W(*tc)
            for Q in fam:  # each cube's value, not only the sup
                one = (*tc[:-1], [Q])
                assert eval_condition_W(*one) == per_cube_condition_W(*one)


class TestVerifyStrong:
    def test_bilinear_runs_and_reports(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_strong(0, [4.0, 4.0], 2.0, K, one, [one, one], corpus, fam)
        assert rep.theorem == "strong"
        assert len(rep.instances) == len(corpus)
        assert 0 < rep.max_ratio < 100.0
        assert all(math.isfinite(v) for v in rep.params["testing"].values())

    def test_commutator_variant_runs(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_strong(1, [4.0, 4.0], 2.0, K, one, [one, one], corpus, fam)
        assert 0 < rep.max_ratio < 100.0

    def test_exponent_hypothesis_enforced(self):
        g = make_grid(1, 1.0, 16)
        fam = cube_family(g, "centered")
        one = GridFunction.constant(g, 1.0)
        K = frac(0.5, 1, 1)
        corpus = make_corpus(g, 1, count=2)
        with pytest.raises(HypothesisUnmet):
            verify_strong(0, [2.0], 0.4, K, one, [one], corpus, fam)

    def test_arity_mismatch(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            verify_strong(0, [4.0], 2.0, K, one, [one, one], corpus, fam)

    def test_homogeneity_of_ratios(self):
        # for ell = 0 both sides are 1-homogeneous in each slot, so
        # rescaling the inputs leaves every ratio unchanged
        g, fam, K, corpus, one = small_setup(count=2)
        scaled = [tuple(GridFunction(g, 3.0 * f.values) for f in tup) for tup in corpus]
        a = verify_strong(0, [4.0, 4.0], 2.0, K, one, [one, one], corpus, fam)
        b = verify_strong(0, [4.0, 4.0], 2.0, K, one, [one, one], scaled, fam)
        ra = [i["ratio"] for i in a.instances]
        rb = [i["ratio"] for i in b.instances]
        np.testing.assert_allclose(ra, rb, rtol=1e-10)

    def test_symbol_doubling_scales_commutator_ratio(self):
        # the commutator is linear in the symbols while the right side
        # ignores them, so doubling every b doubles each ratio
        g, fam, K, corpus, one = small_setup(count=2)
        rng = np.random.default_rng(3)
        bs = [GridFunction(g, rng.normal(size=g.shape)) for _ in range(2)]
        a = verify_strong(1, [4.0, 4.0], 2.0, K, one, [one, one], corpus, fam,
                          bs=bs)
        b = verify_strong(1, [4.0, 4.0], 2.0, K, one, [one, one], corpus, fam,
                          bs=[GridFunction(g, 2.0 * bi.values) for bi in bs])
        np.testing.assert_allclose(
            [i["ratio"] for i in b.instances],
            [2.0 * i["ratio"] for i in a.instances],
            rtol=1e-10,
        )

    def test_zero_tuple_gives_zero_ratio(self):
        g, fam, K, _, one = small_setup()
        z = GridFunction.constant(g, 0.0)
        rep = verify_strong(0, [4.0, 4.0], 2.0, K, one, [one, one],
                            [(z, z)], fam)
        assert rep.instances[0]["lhs"] == 0.0
        assert rep.instances[0]["ratio"] == 0.0


class TestVerifyFeffermanStein:
    def test_case_i(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_fefferman_stein("i", 0, [3.0, 3.0], 0.5, K, [one, one],
                                     corpus, fam)
        assert 0 < rep.max_ratio < 100.0

    def test_case_ii(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_fefferman_stein("ii", 0, [2.0, 2.0], 0.5, K, [one, one],
                                     corpus, fam)
        assert 0 < rep.max_ratio < 100.0

    def test_case_iii(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_fefferman_stein("iii", 1, [2.0, 2.0], 0.5, K, [one, one],
                                     corpus, fam)
        assert 0 < rep.max_ratio < 100.0

    def test_case_exponent_coupling(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            # harmonic mean of (3, 3) is 1.5 > 1
            verify_fefferman_stein("ii", 0, [3.0, 3.0], 0.5, K, [one, one],
                                   corpus, fam)
        with pytest.raises(ValueError):
            verify_fefferman_stein("iii", 0, [2.0, 2.0], 0.5, K, [one, one],
                                   corpus, fam)
        with pytest.raises(ValueError):
            verify_fefferman_stein("i", 0, [2.0, 2.0], 1.5, K, [one, one],
                                   corpus, fam)

    def test_unknown_case(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            verify_fefferman_stein("iv", 0, [3.0, 3.0], 0.5, K, [one, one],
                                   corpus, fam)

    @pytest.mark.parametrize("count", [1, 3])
    def test_weight_count_raises_before_compute(self, monkeypatch, count):
        # one weight at m = 2 used to drop the second factor from both sides
        g, fam, K, corpus, one = small_setup()
        calls = []
        monkeypatch.setattr(verify, "maximal_corpus", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="one weight per linear slot"):
            verify_fefferman_stein("i", 0, [4.0, 4.0], 0.5, K, [one] * count, corpus, fam)
        assert calls == []


class TestVerifyCoifman:
    def test_all_cases_run(self):
        g, fam, K, corpus, one = small_setup()
        for case, ell, p in (("i", 0, 1.0), ("ii", 1, 0.5), ("iii", 0, 2.0)):
            rep = verify_coifman(case, ell, p, K, one, corpus, fam)
            assert 0 < rep.max_ratio < 100.0
            assert math.isfinite(rep.params["rh_constant"])

    def test_case_validation(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            verify_coifman("i", 1, 1.0, K, one, corpus, fam)
        with pytest.raises(ValueError):
            verify_coifman("iii", 0, 0.5, K, one, corpus, fam)
        with pytest.raises(ValueError, match="unknown case 'iv'"):
            verify_coifman("iv", 0, 1.0, K, one, corpus, fam)


class TestVerifyFtd:
    def test_both_cases_run(self):
        g, fam, K, corpus, one = small_setup()
        for case, p in (("i", 1.0), ("ii", 2.0)):
            rep = verify_ftd(case, 0, p, K, one, corpus, fam)
            assert 0 < rep.max_ratio < 100.0

    def test_agrees_with_coifman_for_flat_weight(self):
        # with u = 1 the maximal function of the weight is 1, so the two
        # harnesses evaluate literally the same quantities
        g, fam, K, corpus, one = small_setup()
        a = verify_ftd("i", 0, 1.0, K, one, corpus, fam)
        b = verify_coifman("i", 0, 1.0, K, one, corpus, fam)
        assert a.max_ratio == pytest.approx(b.max_ratio, rel=1e-10)

    def test_case_validation(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            verify_ftd("i", 0, 2.0, K, one, corpus, fam)
        with pytest.raises(ValueError):
            verify_ftd("ii", 0, 0.5, K, one, corpus, fam)
        with pytest.raises(ValueError, match="unknown case 'iii'"):
            verify_ftd("iii", 0, 1.0, K, one, corpus, fam)


class TestVerifyControl:
    def test_runs_with_corollary_branch(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_control(0, 0.5, K, one, corpus, fam, us=[one, one])
        tags = {i["tag"] for i in rep.instances}
        assert any(t.endswith("-corollary") for t in tags)
        assert 0 < rep.max_ratio < 100.0

    def test_corollary_branch_at_ell_one_raises_before_compute(self, monkeypatch):
        g, fam, K, corpus, one = small_setup()
        calls = []
        monkeypatch.setattr(verify, "maximal_corpus", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="ell = 0 only"):
            verify_control(1, 0.5, K, one, corpus, fam, us=[one, one])
        assert calls == []

    def test_commutator_variant(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_control(1, 0.5, K, one, corpus, fam)
        assert 0 < rep.max_ratio < 100.0

    def test_delta_validated(self):
        g, fam, K, corpus, one = small_setup()
        with pytest.raises(ValueError):
            verify_control(0, 0.0, K, one, corpus, fam)


class TestVerifyWeakMaximal:
    def test_identity_young(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_weak_maximal(lambda Q: 1.0,
                                  YoungFunction("identity"),
                                  [one, one], corpus, fam)
        assert 0 < rep.max_ratio < 1000.0

    def test_log_bump_young(self):
        g, fam, K, corpus, one = small_setup()
        rep = verify_weak_maximal(lambda Q: 1.0,
                                  YoungFunction("power-log", p=1.0, alpha=1.0),
                                  [one, one], corpus, fam)
        assert 0 < rep.max_ratio < 1000.0

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("young", ["identity", "log"])
    @pytest.mark.parametrize("phi", ["constant", "sqrt"])
    def test_lhs_matches_level_set_oracle(self, n, N, m, young, phi):
        g = make_grid(n, 1.0, N)
        fam = cube_family(g, "centered")
        corpus = make_corpus(g, m, count=4, seed=10 * n + m)
        rng = np.random.default_rng(N + m)
        us = [GridFunction(g, rng.uniform(0.5, 2.0, g.shape), nonneg=True) for _ in range(m)]
        B = YoungFunction("identity") if young == "identity" else YoungFunction(
            "power-log", p=1.0, alpha=1.0)
        scale = (lambda Q: 1.0) if phi == "constant" else (lambda Q: math.sqrt(Q.measure))
        rep = verify_weak_maximal(scale, B, us, corpus, fam)
        u = GridFunction(g, np.prod([ui.values for ui in us], axis=0) ** (1.0 / m))
        for fs, inst in zip(corpus, rep.instances):
            M = maximal(scale, [NormSpec.orlicz(B)] * m, fs, g, fam)
            # lambda^m just below each distinct value of M
            below = np.nextafter(np.unique(M.values[M.values > 0]), 0.0)
            want = weak_maximal_lhs_at(M, u, B.iterate(m), m, below)
            assert want > 0
            assert inst["lhs"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("count", [1, 3])
    def test_weight_count_raises_before_compute(self, monkeypatch, count):
        # three weights with a corpus of pairs used to fail inside
        # maximal_corpus, and one weight with pairs the same way
        g, fam, K, corpus, one = small_setup()
        calls = []
        monkeypatch.setattr(verify, "maximal_corpus", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=f"one weight per linear slot: {count} weights, "
                                             "a corpus tuple of 2"):
            verify_weak_maximal(lambda Q: 1.0, YoungFunction("identity"), [one] * count, corpus, fam)
        assert calls == []

    def test_non_submultiplicative_rejected(self):
        # e^t - 1 fails B(st) <= B(s) B(t) for large arguments
        g, fam, K, corpus, one = small_setup(count=1)
        with np.errstate(over="ignore"):
            with pytest.raises(HypothesisUnmet):
                verify_weak_maximal(lambda Q: 1.0,
                                    YoungFunction("exp"),
                                    [one, one], corpus, fam)
