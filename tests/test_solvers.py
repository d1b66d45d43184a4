"""Tests for the sweep schemes, their equivalences, and the run loop."""

import math

import numpy as np
import pytest

from bregsolve.bregman import BregmanSpec, PrimalDualState
from bregsolve.inclusion import InclusionProblem, solve_inclusion
from bregsolve.objectives import (L1QuadraticObjective, QuadraticObjective,
                                  StudentTObjective, impulse_noise,
                                  make_test_image)
from bregsolve.solvers import (InvariantViolation, SolverConfig, SolverError,
                               bia_sweep, blcd_sweep, bsor_sweep,
                               coordinate_time_steps, effective_tau_max,
                               gauss_seidel_sweep, ia_sweep, l1_bsor_sweep,
                               run, sor_sweep, stationarity_residual)


def spd_system(n, seed, ridge=0.1):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G.T @ G + ridge * np.eye(n)
    b = rng.standard_normal(n)
    return QuadraticObjective(A, b), rng


class TestSolverConfig:
    def test_unknown_variant(self):
        with pytest.raises(SolverError):
            SolverConfig("newton")

    def test_omega_range(self):
        with pytest.raises(SolverError):
            SolverConfig("sor", omega=2.0)
        with pytest.raises(SolverError):
            SolverConfig("blcd", omega=0.0)

    def test_tau_positive(self):
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(SolverError):
                SolverConfig("bia", tau=tau)
        for max_iters in (0, -1):
            with pytest.raises(SolverError):
                SolverConfig("bsor", max_iters=max_iters)


class TestSorSweep:
    def test_hand_example(self):
        q = QuadraticObjective(np.array([[2.0, 1.0], [1.0, 2.0]]),
                               np.array([3.0, 3.0]))
        y = sor_sweep(q, np.zeros(2), 1.0)
        assert np.allclose(y, [1.5, 0.75])

    def test_fixed_point(self):
        q, _ = spd_system(8, 30)
        xstar = np.linalg.solve(q.A, q.b)
        y = sor_sweep(q, xstar, 1.3)
        assert np.allclose(y, xstar, atol=1e-10)

    def test_gauss_seidel_is_omega_one(self):
        q, rng = spd_system(6, 31)
        x = rng.standard_normal(6)
        assert np.array_equal(gauss_seidel_sweep(q, x), sor_sweep(q, x, 1.0))

    def test_bad_omega(self):
        q, _ = spd_system(2, 32)
        with pytest.raises(SolverError):
            sor_sweep(q, np.zeros(2), 2.5)

    def test_converges_to_direct_solve(self):
        q, _ = spd_system(16, 33, ridge=1.0)
        spec = BregmanSpec.euclidean(16)
        cfg = SolverConfig("sor", omega=1.0, max_iters=2000, stop_tol=1e-10)
        state, _ = run(q, spec, np.zeros(16), cfg)
        assert np.allclose(state.x, np.linalg.solve(q.A, q.b), atol=1e-6)


class TestEquivalenceTriangle:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.5])
    def test_sor_ia_cd_agree(self, omega):
        q, rng = spd_system(16, 34)
        x0 = rng.standard_normal(16)
        spec = BregmanSpec.euclidean(16)
        taus = 2.0 * omega / ((2.0 - omega) * q.diag)

        x_sor = x0.copy()
        st_ia = PrimalDualState.initial(spec, x0)
        x_cd = x0.copy()
        alphas = omega / q.diag
        gap = 0.0
        for _ in range(100):
            x_sor = sor_sweep(q, x_sor, omega)
            st_ia = ia_sweep(q, st_ia, taus).state
            # explicit coordinate descent with per-coordinate steps
            for i in range(16):
                g = float(q.A[i] @ x_cd - q.b[i])
                x_cd[i] -= alphas[i] * g
            gap = max(gap,
                      float(np.max(np.abs(x_sor - st_ia.x))),
                      float(np.max(np.abs(x_sor - x_cd))))
        assert gap <= 1e-12


class TestBsorSweep:
    def test_scalar_hand_example(self):
        q = QuadraticObjective(np.array([[1.0]]), np.array([3.0]))
        spec = BregmanSpec.elastic_net(1, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(1))
        res = bsor_sweep(q, state, gamma=1.0, tau=2.0)
        assert res.state.x[0] == pytest.approx(2.5)
        assert res.state.p[0] == pytest.approx(3.5)
        # the subgradient decomposition gives r = (p - x)/gamma = 1
        assert (res.state.p[0] - res.state.x[0]) == pytest.approx(1.0)
        # inclusion residual: p_new = p - tau * DQ with DQ = -1.75
        dq = q.coord_diff_quotient(np.zeros(1), 0, 0.0, 2.5)
        assert dq == pytest.approx(-1.75)
        assert res.state.p[0] == pytest.approx(0.0 - 2.0 * dq)

    def test_zero_stays_zero(self):
        q = QuadraticObjective(np.eye(2), np.zeros(2))
        spec = BregmanSpec.elastic_net(2, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(2))
        res = bsor_sweep(q, state, gamma=1.0, tau=2.0)
        assert np.array_equal(res.state.x, np.zeros(2))

    def test_matches_bia_over_50_sweeps(self):
        q, _ = spd_system(16, 35)
        spec = BregmanSpec.elastic_net(16, 1.0)
        taus = 2.0 / q.diag
        st_a = PrimalDualState.initial(spec, np.zeros(16))
        st_b = PrimalDualState.initial(spec, np.zeros(16))
        for _ in range(50):
            st_a = bsor_sweep(q, st_a, gamma=1.0, tau=2.0).state
            st_b = bia_sweep(q, spec, st_b, taus).state
            assert np.max(np.abs(st_a.x - st_b.x)) <= 1e-10
            assert np.max(np.abs(st_a.p - st_b.p)) <= 1e-10

    def test_requires_positive_gamma(self):
        q, _ = spd_system(2, 36)
        spec = BregmanSpec.elastic_net(2, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(2))
        with pytest.raises(SolverError):
            bsor_sweep(q, state, gamma=0.0, tau=2.0)


class TestL1BsorSweep:
    def test_lambda_zero_reduces_to_bsor(self):
        q, rng = spd_system(12, 37)
        spec = BregmanSpec.elastic_net(12, 0.8)
        st_a = PrimalDualState.initial(spec, np.zeros(12))
        st_b = PrimalDualState.initial(spec, np.zeros(12))
        for _ in range(30):
            st_a = l1_bsor_sweep(q, st_a, gamma=0.8, lam=0.0, tau=1.5).state
            st_b = bsor_sweep(q, st_b, gamma=0.8, tau=1.5).state
            assert np.max(np.abs(st_a.x - st_b.x)) <= 1e-12
            assert np.max(np.abs(st_a.p - st_b.p)) <= 1e-12

    def test_matches_inclusion_oracle_randomized(self):
        # 10^4 randomized scalar instances: the closed-form coordinate
        # update must match the root-solved scalar inclusion
        rng = np.random.default_rng(38)
        for _ in range(10_000):
            aii = float(rng.uniform(0.2, 5.0))
            g = float(rng.uniform(-5.0, 5.0))
            gamma = float(rng.uniform(0.1, 2.0))
            lam = float(rng.uniform(0.0, 3.0))
            tau = float(rng.uniform(0.2, 4.0))
            # random current point, occasionally exactly zero
            x = 0.0 if rng.random() < 0.4 else float(rng.uniform(-2, 2))
            r = (float(rng.uniform(-1, 1)) if x == 0.0
                 else math.copysign(1.0, x))
            q = QuadraticObjective(np.array([[aii]]),
                                   np.array([aii * x - g]))
            spec = BregmanSpec.elastic_net(1, gamma)
            state = PrimalDualState(np.array([x]),
                                    np.array([x + gamma * r]))
            V = L1QuadraticObjective(q, lam)
            res = l1_bsor_sweep(q, state, gamma, lam, tau)
            ref = bia_sweep(V, spec, state, np.array([tau / aii]))
            assert abs(res.state.x[0] - ref.state.x[0]) <= 1e-8
            assert abs(res.state.p[0] - ref.state.p[0]) <= 1e-8

    def test_multisweep_matches_bia(self):
        q, _ = spd_system(10, 39)
        lam = 2.0
        V = L1QuadraticObjective(q, lam)
        spec = BregmanSpec.elastic_net(10, 1.0)
        taus = 2.0 / q.diag
        st_a = PrimalDualState.initial(spec, np.zeros(10))
        st_b = PrimalDualState.initial(spec, np.zeros(10))
        for _ in range(40):
            st_a = l1_bsor_sweep(q, st_a, 1.0, lam, 2.0).state
            st_b = bia_sweep(V, spec, st_b, taus).state
            assert np.max(np.abs(st_a.x - st_b.x)) <= 1e-8

    def test_invalid_params(self):
        q, _ = spd_system(2, 40)
        spec = BregmanSpec.elastic_net(2, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(2))
        with pytest.raises(SolverError):
            l1_bsor_sweep(q, state, gamma=0.0, lam=1.0, tau=1.0)
        with pytest.raises(SolverError):
            l1_bsor_sweep(q, state, gamma=1.0, lam=-1.0, tau=1.0)


class TestBlcdSweep:
    def test_gamma_zero_is_explicit_cd(self):
        q, rng = spd_system(8, 41)
        x0 = rng.standard_normal(8)
        spec = BregmanSpec.euclidean(8)
        state = PrimalDualState.initial(spec, x0)
        alpha = 1.2
        res = blcd_sweep(q, state, gamma=0.0, alpha=alpha)
        x_cd = x0.copy()
        for i in range(8):
            g = float(q.A[i] @ x_cd - q.b[i])
            x_cd[i] -= (alpha / q.A[i, i]) * g
        assert np.allclose(res.state.x, x_cd, atol=1e-14)

    def test_equivalence_map_to_bia(self):
        # blcd with elastic-net weight gamma/kappa equals the implicit
        # sweep with weight gamma and tau_i = 2 alpha / ((2 - alpha) a_ii)
        q, _ = spd_system(10, 42)
        alpha = 1.3
        gamma = 1.0
        kappa = 2.0 / (2.0 - alpha)
        spec_b = BregmanSpec.elastic_net(10, gamma / kappa)
        spec_i = BregmanSpec.elastic_net(10, gamma)
        taus = 2.0 * alpha / ((2.0 - alpha) * q.diag)
        st_b = PrimalDualState.initial(spec_b, np.zeros(10))
        st_i = PrimalDualState.initial(spec_i, np.zeros(10))
        for _ in range(50):
            st_b = blcd_sweep(q, st_b, gamma / kappa, alpha).state
            st_i = bia_sweep(q, spec_i, st_i, taus).state
            assert np.max(np.abs(st_b.x - st_i.x)) <= 1e-10

    def test_zero_gradient_leaves_coordinate(self):
        q = QuadraticObjective(np.eye(2), np.array([1.0, 0.0]))
        spec = BregmanSpec.euclidean(2)
        state = PrimalDualState.initial(spec, np.array([1.0, 0.0]))
        res = blcd_sweep(q, state, gamma=0.0, alpha=1.0)
        assert np.allclose(res.state.x, [1.0, 0.0])


class TestReductions:
    def test_bia_euclidean_equals_ia(self):
        q, rng = spd_system(8, 43)
        x0 = rng.standard_normal(8)
        spec = BregmanSpec.euclidean(8)
        state = PrimalDualState.initial(spec, x0)
        taus = np.full(8, 0.7)
        a = bia_sweep(q, spec, state, taus)
        b = ia_sweep(q, state, taus)
        assert np.max(np.abs(a.state.x - b.state.x)) <= 1e-12

    def test_scalar_ia_value(self):
        q = QuadraticObjective(np.array([[1.0]]), np.array([0.0]))
        spec = BregmanSpec.euclidean(1)
        state = PrimalDualState.initial(spec, np.array([1.0]))
        res = ia_sweep(q, state, np.array([1.0]))
        assert res.state.x[0] == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestRunLoop:
    def test_monotone_trace_and_dissipation(self):
        q, _ = spd_system(16, 44)
        spec = BregmanSpec.elastic_net(16, 1.0)
        cfg = SolverConfig("bia", tau=2.0, tau_schedule="diag_scaled",
                           max_iters=80)
        state, records = run(q, spec, np.zeros(16), cfg,
                             check_membership=True)
        objs = [r.objective for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        for r in records:
            assert r.dissipation_slack >= -1e-9 * max(1.0, abs(r.objective))

    def test_summability_bound(self):
        q, _ = spd_system(12, 45)
        spec = BregmanSpec.euclidean(12)
        cfg = SolverConfig("ia", tau=1.0, max_iters=100)
        x0 = np.zeros(12)
        state, records = run(q, spec, x0, cfg)
        tau_max = effective_tau_max(cfg, q, 12)
        total_sq = sum(r.step_norm ** 2 for r in records)
        v0 = q.value(x0)
        v_end = records[-1].objective
        assert total_sq <= (tau_max / spec.mu) * (v0 - v_end) + 1e-9

    def test_stopping_rule(self):
        q, _ = spd_system(6, 46)
        spec = BregmanSpec.euclidean(6)
        cfg = SolverConfig("sor", omega=1.0, max_iters=500, stop_tol=1e30)
        _, records = run(q, spec, np.zeros(6), cfg)
        assert len(records) == 3  # huge tolerance: three sweeps and stop

    def test_nan_objective_raises(self):
        # A NaN decrease must fail the monotonicity check, not pass it.
        q, _ = spd_system(4, 48)
        q.value = lambda x: math.nan
        with pytest.raises(InvariantViolation):
            run(q, BregmanSpec.euclidean(4), np.zeros(4),
                SolverConfig("sor", max_iters=3))

    def test_membership_after_every_sweep(self):
        q, _ = spd_system(10, 47)
        V = L1QuadraticObjective(q, 1.0)
        spec = BregmanSpec.elastic_net(10, 0.5)
        for variant in ("bia", "bia_modified", "l1_bsor"):
            cfg = SolverConfig(variant, tau=2.0,
                               tau_schedule="diag_scaled"
                               if variant != "l1_bsor" else "constant",
                               max_iters=30)
            state, _ = run(V, spec, np.zeros(10), cfg,
                           check_membership=True)
            assert spec.membership_violation(state.x, state.p) <= 1e-9

    def test_variant_objective_mismatch(self):
        rng = np.random.default_rng(48)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        spec = BregmanSpec.shifted_elastic_net(0.5, x_delta)
        cfg = SolverConfig("bsor", tau=2.0)
        with pytest.raises(SolverError):
            run(V, spec, x_delta, cfg)

    def test_ia_requires_euclidean(self):
        q, _ = spd_system(4, 49)
        spec = BregmanSpec.elastic_net(4, 1.0)
        with pytest.raises(SolverError):
            run(q, spec, np.zeros(4), SolverConfig("ia"))

    def test_diag_scaled_needs_quadratic(self):
        rng = np.random.default_rng(50)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        spec = BregmanSpec.shifted_elastic_net(0.5, x_delta)
        cfg = SolverConfig("bia", tau=1.0, tau_schedule="diag_scaled")
        with pytest.raises(SolverError):
            run(V, spec, x_delta, cfg)


class TestStationarityResidual:
    def test_zero_at_minimum(self):
        q, _ = spd_system(8, 51, ridge=1.0)
        xstar = np.linalg.solve(q.A, q.b)
        res = stationarity_residual(q, xstar)
        assert float(np.max(res)) <= 1e-8

    def test_gradient_magnitude_at_smooth_point(self):
        q, rng = spd_system(5, 52)
        x = rng.standard_normal(5)
        res = stationarity_residual(q, x)
        assert np.allclose(res, np.abs(q.A @ x - q.b))

    def test_l1_kink_absorbs_gradient(self):
        q = QuadraticObjective(np.eye(1), np.array([0.5]))
        V = L1QuadraticObjective(q, 1.0)
        # at x=0 the Clarke interval is [-1.5, 0.5], containing 0
        res = stationarity_residual(V, np.zeros(1))
        assert res[0] == 0.0

    def test_active_box_masks_outward_direction(self):
        q = QuadraticObjective(np.eye(1), np.array([2.0]))
        spec = BregmanSpec.euclidean(1, lower=0.0, upper=1.0)
        # at x=1 the gradient is 1-2 = -1 (descent is upward, blocked)
        res = stationarity_residual(q, np.array([1.0]), spec)
        assert res[0] == 0.0

    def test_small_after_converged_run(self):
        q, _ = spd_system(16, 53, ridge=1.0)
        spec = BregmanSpec.elastic_net(16, 1.0)
        cfg = SolverConfig("bsor", tau=2.0, max_iters=3000, stop_tol=1e-9)
        state, _ = run(q, spec, np.zeros(16), cfg)
        res = stationarity_residual(q, state.x, spec)
        assert float(np.max(res)) <= 1e-5


class TestStudentTSolvers:
    def test_bia_dissipation_on_denoising(self):
        img = make_test_image(16, 16)
        noisy = impulse_noise(img, 0.1, seed=54)
        V = StudentTObjective(16, 16, noisy.ravel())
        spec = BregmanSpec.shifted_elastic_net(0.5, noisy.ravel())
        cfg = SolverConfig("bia", tau=1.0, max_iters=15)
        state, records = run(V, spec, noisy.ravel(), cfg,
                             check_membership=True)
        assert records[-1].objective < V.value(noisy.ravel())
        for r in records:
            assert r.dissipation_slack >= -1e-9 * max(1.0, abs(r.objective))

    def test_modified_scheme_keeps_membership(self):
        img = make_test_image(8, 8)
        noisy = impulse_noise(img, 0.2, seed=55)
        V = StudentTObjective(8, 8, noisy.ravel())
        spec = BregmanSpec.shifted_elastic_net(0.5, noisy.ravel())
        cfg = SolverConfig("bia_modified", tau=1.0, max_iters=10)
        state, _ = run(V, spec, noisy.ravel(), cfg, check_membership=True)
        assert spec.membership_violation(state.x, state.p) <= 1e-9
