"""Tests for the sweep schemes, their equivalences, and the run loop."""

import dataclasses
import math
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
from contextlib import contextmanager, nullcontext
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregsolve import _quadpass, cli, inclusion, objectives, solvers
from bregsolve.bregman import BregmanError, BregmanSpec, PrimalDualState
from bregsolve.objectives import (L1QuadraticObjective, ObjectiveError,
                                  QuadraticObjective, StudentTObjective,
                                  _QuadraticSweepContext,
                                  gaussian_system, impulse_noise,
                                  make_test_image)
from bregsolve.solvers import (InvariantViolation, SolverConfig, SolverError,
                               SweepResult, bia_sweep, blcd_sweep, bsor_sweep,
                               VARIANTS, coordinate_time_steps,
                               gauss_seidel_sweep, ia_sweep, l1_bsor_sweep,
                               make_sweeper, run, sor_sweep,
                               stationarity_residual)


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
        for stop_tol in (-1.0, math.nan):
            with pytest.raises(SolverError):
                SolverConfig("bsor", stop_tol=stop_tol)


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

    @pytest.mark.parametrize("tau", [0.5, 2.0, 6.0])
    def test_gamma_zero_is_ia_and_sor(self, tau):
        # At gamma = 0 bsor is the Itoh-Abe sweep with steps tau / a_ii,
        # which is SOR with omega = 2 tau / (2 + tau).
        q, rng = spd_system(16, 36)
        x0 = rng.standard_normal(16)
        spec = BregmanSpec.euclidean(16)
        st_b = st_ia = PrimalDualState.initial(spec, x0)
        x_sor = x0.copy()
        gap = 0.0
        for _ in range(100):
            st_b = bsor_sweep(q, st_b, gamma=0.0, tau=tau).state
            st_ia = ia_sweep(q, st_ia, tau / q.diag).state
            x_sor = sor_sweep(q, x_sor, 2.0 * tau / (2.0 + tau))
            gap = max(gap, float(np.max(np.abs(st_b.x - st_ia.x))),
                      float(np.max(np.abs(st_b.p - st_ia.p))),
                      float(np.max(np.abs(st_b.x - x_sor))))
        assert gap <= 1e-12

    @pytest.mark.parametrize("tau", [0.0, -1.0, -2.0, -3.0, math.nan,
                                     math.inf])
    def test_requires_positive_tau(self, tau):
        # Only a finite positive step is an implicit step (at tau = -2 the
        # rule would divide by 1 + tau/2 = 0, at tau = inf p is NaN); with
        # the C kernel and on the NumPy pass, bsor and l1_bsor refuse any
        # other.
        q, _ = spd_system(2, 36)
        state = PrimalDualState.initial(BregmanSpec.elastic_net(2, 1.0),
                                        np.ones(2))
        for sweep in (partial(bsor_sweep, gamma=1.0),
                      partial(l1_bsor_sweep, gamma=1.0, lam=0.5)):
            with pytest.raises(SolverError):
                sweep(q, state, tau=tau)
            with numpy_pass(), pytest.raises(SolverError):
                sweep(q, state, tau=tau)


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
        # 10^4 randomized scalar instances, each also at gamma = 0 with
        # the euclidean spec: the closed-form coordinate update must match
        # the root-solved scalar inclusion
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
            V = L1QuadraticObjective(q, lam)
            for gamma, spec in ((gamma, BregmanSpec.elastic_net(1, gamma)),
                                (0.0, BregmanSpec.euclidean(1))):
                state = PrimalDualState(np.array([x]),
                                        np.array([x + gamma * r]))
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

    @staticmethod
    def with_oracle(aii, x, p, g, gamma, lam, tau):
        """``(x, p)`` after one l1_bsor sweep of the 1 x 1 quadratic ``aii
        (y - x)^2 / 2 + g (y - x)`` plus ``lam |y|`` from ``(x, p)``, which
        must leave ``p`` in ``dJ(x)``, and after the root-solved bia_sweep."""
        q = QuadraticObjective(np.array([[aii]]), np.array([aii * x - g]))
        spec = BregmanSpec.elastic_net(1, gamma)
        state = PrimalDualState(np.array([x]), np.array([p]))
        res = l1_bsor_sweep(q, state, gamma, lam, tau).state
        ref = bia_sweep(L1QuadraticObjective(q, lam), spec, state,
                        np.array([tau / aii])).state
        assert spec.contains_subgradient(res.x, res.p)
        return (res.x[0], res.p[0]), (ref.x[0], ref.p[0])

    def test_stays_at_zero_between_cases_two_and_three(self):
        # c lies within rounding of the boundary between the move to zero
        # and the same-side shrinkage move: u sgn(x) > gamma, yet |c| is
        # not above gamma + t lam.  The move to zero takes it, p clamped.
        h = float.fromhex
        gamma = h("0x1.d982084d0e66fp+0")
        new, ref = self.with_oracle(
            h("0x1.e3216a5b31668p+1"), h("0x1.8237e010c9b30p-1"),
            h("0x1.4d4efc2ab9a04p+1"), h("0x1.f1eaa6f3d4a78p+0"), gamma,
            h("0x1.718f4e5bcd074p-1"), h("0x1.2526ac4c6cc69p+1"))
        assert new == pytest.approx(ref, abs=1e-8)
        assert new == (0.0, gamma)

    def test_crosses_zero_from_a_tiny_value(self):
        # |x| = 3e-200: the crossing root is near 41 |x|, and nothing
        # squares y - x, which would underflow.
        new, ref = self.with_oracle(2.0, -3e-200, -0.5, -2.0, 0.5, 0.7, 1.5)
        assert new == pytest.approx(ref, abs=1e-8)
        assert new == (pytest.approx(1.23e-198, rel=1e-2), 0.5)

    @pytest.mark.parametrize("x, g", [(0.0, math.nan), (0.3, math.nan),
                                      (-0.3, math.nan)])
    def test_nan_or_overflow_raises(self, x, g):
        # A NaN gradient raises and returns no value.
        q = QuadraticObjective(np.eye(1), np.zeros(1))
        state = PrimalDualState(np.array([x]),
                                np.array([x + math.copysign(0.5, x)]))
        with pytest.raises(InvariantViolation):
            l1_bsor_sweep(q, state, 0.5, 0.7, 1.5, r=np.array([g]))

    def test_crossing_root_beyond_the_square_of_a_float(self):
        # From x = -1e160 the crossing root is 7.57e160 (by exact rational
        # arithmetic), whose quadratic's coefficients square and multiply
        # past the largest float: scaled, the root comes out finite.
        q = QuadraticObjective(np.eye(1), np.zeros(1))
        state = PrimalDualState(np.array([-1e160]), np.array([-1e160 - 0.5]))
        with np.errstate(all="raise"):
            new = l1_bsor_sweep(q, state, 0.5, 0.7, 1.5,
                                r=np.array([-1e161])).state
        y, p = new.x[0], new.p[0]
        assert y == pytest.approx(7.5714285714285717e160, rel=1e-12)
        assert p == y + 0.5

    @settings(max_examples=300, deadline=None)
    @given(aii=st.floats(0.2, 5.0), tau=st.floats(0.2, 4.0),
           gamma=st.sampled_from([0.0, 0.05, 1.0]), lam=st.floats(0.0, 3.0),
           size=st.floats(-300.0, 3.0) | st.just(-math.inf),
           sign=st.sampled_from([-1.0, 1.0]), r=st.floats(-1.0, 1.0),
           boundary=st.sampled_from(["zero", "stay", "cross"]),
           ulps=st.integers(-4, 4))
    def test_matches_oracle_at_every_magnitude_and_boundary(
            self, aii, tau, gamma, lam, size, sign, r, boundary, ulps):
        # |x| from 1e-300 to 1e3, and 0, with c within a few ulps of where
        # two cases meet: leaving zero, staying on x's side, crossing it.
        x = sign * 10.0 ** size
        sgn_x = math.copysign(1.0, x) if x else 0.0
        t, h = tau / aii, tau / 2.0
        c = {"zero": sign * (gamma + t * lam),
             "stay": (t * lam + gamma) * sgn_x,
             "cross": (t * lam - gamma) * sgn_x}[boundary]
        for _ in range(abs(ulps)):
            c = math.nextafter(c, math.copysign(math.inf, ulps))
        p = x + gamma * (r if x == 0.0 else sgn_x)
        g = (p + h * x - c) / t
        (y, p_new), ref = self.with_oracle(aii, x, p, g, gamma, lam, tau)
        assert abs(y - ref[0]) <= 1e-8
        assert abs(p_new - ref[1]) <= 1e-8
        if y != x:
            dq = g + 0.5 * aii * (y - x) + lam * (abs(y) - abs(x)) / (y - x)
            scale = 1.0 + abs(p) + t * abs(g) + h * abs(x)
            assert abs(p_new - (p - t * dq)) <= 1e-9 * scale

    def test_root_nearer_than_the_least_probe_distance(self):
        # The root 0 lies 1e-69 from x, far inside the first probe at
        # 1e-8: the bracket from x finds it, and p crosses the kink.
        x = -1e-69
        assert self.with_oracle(1.0, x, x - 0.05, x - 0.05 + 0.5 * x, 0.05,
                                0.0, 1.0) == ((0.0, 0.0), (0.0, 0.0))

    def test_invalid_params(self):
        q, _ = spd_system(2, 40)
        spec = BregmanSpec.elastic_net(2, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(2))
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

    @pytest.mark.parametrize("gamma", [-1.0, math.nan])
    def test_requires_nonnegative_gamma(self, gamma):
        q, _ = spd_system(2, 41)
        state = PrimalDualState.initial(BregmanSpec.euclidean(2), np.ones(2))
        with pytest.raises(SolverError):
            blcd_sweep(q, state, gamma=gamma, alpha=1.0)
        with numpy_pass(), pytest.raises(SolverError):
            blcd_sweep(q, state, gamma=gamma, alpha=1.0)


class _ColumnSweepContext(_QuadraticSweepContext):
    """Reference residual cache that adds the column ``A[:, i]``."""

    def commit(self, i, new):
        delta = new - self.y[i]
        if delta != 0.0:
            self.r += self.objective.A[:, i] * delta
            self.y[i] = new


class ColumnQuadratic(QuadraticObjective):
    """Reference quadratic: ``A`` is kept exactly as given, symmetric or
    not, and the sweeps update the residual with its columns."""

    def __init__(self, A, b):
        self.A, self.b, self.n = A, b, len(b)

    def sweep_context(self, x):
        return _ColumnSweepContext(self, x)


def closed_form_iterates(q, x0, gamma, tau, omega, lam, sweeps):
    """Final ``(x, p)`` of each closed-form sweep after ``sweeps`` sweeps
    on ``q`` from ``x0``; ``sor`` keeps the initial ``p``."""
    state0 = PrimalDualState.initial(BregmanSpec.elastic_net(q.n, gamma), x0)
    steps = {
        "sor": lambda s: PrimalDualState(sor_sweep(q, s.x, omega), s.p),
        "bsor": lambda s: bsor_sweep(q, s, gamma, tau).state,
        "l1_bsor": lambda s: l1_bsor_sweep(q, s, gamma, lam, tau).state,
        "blcd": lambda s: blcd_sweep(q, s, gamma, omega).state,
    }
    out = {}
    for name, step in steps.items():
        state = state0
        for _ in range(sweeps):
            state = step(state)
        out[name] = (state.x, state.p)
    return out


@contextmanager
def numpy_pass():
    """Run the closed-form sweeps on the NumPy pass, as when the C kernel
    did not load."""
    with mock.patch.object(_quadpass, "load", lambda: None):
        yield


class RecordingQuadratic(QuadraticObjective):
    """Keeps the last sweep context, whose residual the pass updates."""

    def sweep_context(self, x):
        self.ctx = super().sweep_context(x)
        return self.ctx


def kernel_rule_outputs(A, b, x0, gamma, tau, omega, sweeps):
    """Bytes of ``x``, ``p`` and the cached residual after ``sweeps``
    sweeps of each rule the C kernel has."""
    q = RecordingQuadratic(A, b)
    steps = {
        "sor": lambda s: PrimalDualState(sor_sweep(q, s.x, omega), s.p),
        "bsor": lambda s: bsor_sweep(q, s, gamma, tau).state,
        "blcd": lambda s: blcd_sweep(q, s, gamma, omega).state,
    }
    out = {}
    for name, step in steps.items():
        state = PrimalDualState.initial(BregmanSpec.elastic_net(q.n, gamma),
                                        x0)
        for _ in range(sweeps):
            state = step(state)
        out[name] = [a.tobytes() for a in (state.x, state.p, q.ctx.r)]
    return out


def red_black_setup():
    """A 4 x 5 student-t image with impulse noise, a boxed spec with its
    data as shifts, and the start at the data."""
    x_delta = impulse_noise(np.full((4, 5), 0.5), 0.3, seed=2).ravel()
    V = StudentTObjective(4, 5, x_delta)
    spec = BregmanSpec(x_delta, 0.5, 0.0, 1.0)
    return V, spec, PrimalDualState.initial(spec, x_delta)


def red_black_bits(V, spec, state, sweeps=3):
    """Bytes of ``x`` and ``p`` after ``sweeps`` red-black bia sweeps."""
    for _ in range(sweeps):
        state = bia_sweep(V, spec, state, np.ones(V.n),
                          order="red_black").state
    return state.x.tobytes(), state.p.tobytes()


def kernel_sweep(V, spec, y, idx, p, tau, forget=False, fallback=print,
                 shift=None):
    """The compiled module's sweep of ``idx`` on the student-t image ``y``,
    which it writes in place with ``p``, with the pieces of ``spec`` or of
    another ``shift``."""
    shift = spec.shift if shift is None else shift
    return _quadpass.load().sweep(y, V.h, V.w, *V.phi, V.x_delta, idx,
                                  shift, spec.gamma, spec.lower, spec.upper,
                                  p, tau, forget, fallback)


needs_kernel = pytest.mark.skipif(
    _quadpass.load() is None,
    reason="the compiled module cannot be built here")


@pytest.fixture
def fresh_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache under ``tmp_path`` and a loader yet to run."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _quadpass.load.cache_clear()
    yield tmp_path / "bregsolve"
    _quadpass.load.cache_clear()


class TestRowResidualUpdate:
    """The sweeps update the residual with the row ``A[i]``; on the stored,
    exactly symmetric ``A`` that is the column the sweeps are defined by.
    The C kernel does the same and matches the NumPy pass bitwise."""

    @needs_kernel
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(0.0, 2.0), tau=st.floats(0.1, 10.0),
           omega=st.floats(0.1, 1.9), sweeps=st.integers(1, 3),
           layout=st.sampled_from(["C", "F", "near_symmetric"]))
    def test_kernel_matches_numpy_pass_bitwise(self, n, seed, gamma, tau,
                                               omega, sweeps, layout):
        A, b, _ = gaussian_system(n, seed=seed)
        rng = np.random.default_rng(seed)
        if layout == "F":
            A = np.asfortranarray(A)
        elif layout == "near_symmetric":
            H = rng.standard_normal((n, n))
            A = A + 1e-14 * (H - H.T)
        x0 = rng.standard_normal(n)
        x0[::3] = 0.0
        got = kernel_rule_outputs(A, b, x0, gamma, tau, omega, sweeps)
        with numpy_pass():
            want = kernel_rule_outputs(A, b, x0, gamma, tau, omega, sweeps)
        assert got == want

    @needs_kernel
    def test_module_rejects_arrays_it_would_misread(self):
        # A bad array raises before the pass runs, and changes nothing.
        lib = _quadpass.load()
        q, rng = spd_system(6, 1)
        x = rng.standard_normal(6)
        want = q.residual(x)
        for bad in (np.zeros(6, np.float32), np.zeros(6, ">f8"),
                    np.zeros(12)[::2], np.zeros((2, 3)).T,
                    np.zeros(6, np.intp)):
            r, y, p = want.copy(), x.copy(), np.zeros(6)
            for args in ((bad, y, p), (r, bad, p), (r, y, bad)):
                with pytest.raises(TypeError, match="C-contiguous"):
                    lib.quad_pass(q.A, *args, 1.0, 2.0, 0.5)
            with pytest.raises(TypeError, match="C-contiguous"):
                solvers._quadratic_pass(
                    q, x, None, ("bsor", bad, 1.0, 2.0, 0.5), r)
            assert np.array_equal(r, want) and not p.any()
            assert np.array_equal(y, x) and not bad.any()
        with pytest.raises(ValueError, match="fit"):
            lib.quad_pass(q.A, r[:5], y, p, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="fit"):
            lib.quad_pass(q.A, r, y, p[:5], 1.0, 2.0, 0.5)
        # The inclusion sweep's order is read as C longs, y and p as
        # writable doubles, and each index is checked when its turn comes.
        V = StudentTObjective(2, 3, np.zeros(6))
        spec = BregmanSpec.euclidean(6)
        y, p, tau = np.zeros(6), np.zeros(6), np.ones(6)
        for idx in (np.arange(6, dtype=np.int32), np.arange(12)[::2]):
            with pytest.raises(TypeError, match="C-contiguous"):
                kernel_sweep(V, spec, y, idx, p, tau)
        for bad in (np.zeros(6, np.float32), np.zeros(12)[::2]):
            for args in ((bad, p, tau), (y, bad, tau), (y, p, bad)):
                with pytest.raises(TypeError, match="C-contiguous"):
                    kernel_sweep(V, spec, args[0], np.arange(6), *args[1:])
            with pytest.raises(TypeError, match="C-contiguous"):
                kernel_sweep(V, spec, y, np.arange(6), p, tau, shift=bad)
        frozen = np.zeros(6)
        frozen.flags.writeable = False
        for args in ((frozen, p), (y, frozen)):
            with pytest.raises(ValueError, match="read-only"):
                kernel_sweep(V, spec, args[0], np.arange(6), args[1], tau)
        for idx in (np.array([0, 6]), np.array([-1])):
            with pytest.raises(IndexError, match="no coordinate"):
                kernel_sweep(V, spec, y, idx, p, tau)
        assert not y.any() and not p.any()

    @pytest.mark.parametrize("owner, name, error", [
        (_quadpass, "compile_to", FileNotFoundError("no gcc")),
        (_quadpass, "compile_to", subprocess.CalledProcessError(1, "gcc")),
        pytest.param(_quadpass, "ExtensionFileLoader",
                     ImportError("cannot load"), id="loader-ImportError"),
    ])
    def test_failed_kernel_falls_back_to_numpy_pass(self, owner, name, error,
                                                    fresh_kernel_cache,
                                                    monkeypatch):
        A, b, _ = gaussian_system(12, seed=7)
        x0 = np.random.default_rng(7).standard_normal(12)
        want = kernel_rule_outputs(A, b, x0, 0.7, 2.0, 1.2, 3)
        for lib in fresh_kernel_cache.glob("*.so"):
            lib.unlink()

        def fail(*args):
            raise error
        monkeypatch.setattr(owner, name, fail)
        _quadpass.load.cache_clear()
        assert _quadpass.load() is None
        assert kernel_rule_outputs(A, b, x0, 0.7, 2.0, 1.2, 3) == want
        if name == "compile_to":    # neither a library nor a temporary left
            assert list(fresh_kernel_cache.iterdir()) == []

    @pytest.mark.parametrize("unusable", ["file", "shared"])
    def test_unusable_cache_runs_numpy_pass(self, unusable, tmp_path,
                                            monkeypatch):
        # Without a private, persistent cache the kernel is not built: no
        # compile per process and nothing left in the temporary directory.
        home = tmp_path / "cache"
        if unusable == "file":
            home.write_text("")
        else:
            (home / "bregsolve").mkdir(parents=True)
            (home / "bregsolve").chmod(0o777)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        compiled = []
        monkeypatch.setattr(_quadpass, "compile_to", compiled.append)
        for _ in range(2):
            _quadpass.load.cache_clear()
            assert _quadpass.load() is None
        _quadpass.load.cache_clear()
        assert compiled == [] and list(scratch.iterdir()) == []
        if unusable == "shared":
            assert list((home / "bregsolve").iterdir()) == []

    def test_subclass_context_keeps_its_own_commit(self):
        # The kernel reproduces only the plain residual context; a
        # subclass that commits otherwise, here with the columns of a
        # slightly asymmetric A, runs the NumPy pass.
        A, b, _ = gaussian_system(12, seed=5)
        rng = np.random.default_rng(5)
        H = rng.standard_normal((12, 12))
        A = A + 1e-14 * (H - H.T)
        x0 = rng.standard_normal(12)
        got = closed_form_iterates(ColumnQuadratic(A, b), x0, 0.7, 2.0, 1.2,
                                   0.5, 2)
        with numpy_pass():
            want = closed_form_iterates(ColumnQuadratic(A, b), x0, 0.7, 2.0,
                                        1.2, 0.5, 2)
        for name, (x, p) in want.items():
            assert got[name][0].tobytes() == x.tobytes(), name
            assert got[name][1].tobytes() == p.tobytes(), name

    def test_package_data_ships_the_c_source(self):
        # A non-editable install without the source would load no module
        # and silently run every pass in Python.
        tomllib = pytest.importorskip("tomllib")
        package = os.path.dirname(solvers.__file__)
        with open(os.path.join(os.path.dirname(os.path.dirname(package)),
                               "pyproject.toml"), "rb") as f:
            data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        files = data["bregsolve"]
        assert all(os.path.isfile(os.path.join(package, f)) for f in files)
        assert _quadpass.SOURCE.name in files

    @needs_kernel
    def test_second_load_reuses_cached_library(self, fresh_kernel_cache,
                                               monkeypatch):
        compiled = []
        real = _quadpass.compile_to
        monkeypatch.setattr(_quadpass, "compile_to",
                            lambda out, *how: (compiled.append(out),
                                                  real(out, *how)))
        assert _quadpass.load() is not None and len(compiled) == 1
        lib, = fresh_kernel_cache.glob("compiled-*.so")
        assert stat.S_IMODE(fresh_kernel_cache.stat().st_mode) == 0o700
        _quadpass.load.cache_clear()
        assert _quadpass.load() is not None and len(compiled) == 1
        assert list(fresh_kernel_cache.iterdir()) == [lib]

    @needs_kernel
    def test_build_prunes_stale_libraries(self, fresh_kernel_cache,
                                          monkeypatch):
        # A build keeps the newest KEEP libraries, its own among them, and
        # removes every older *.so, also those that earlier versions named
        # quadpass-* and checked-*, and nothing else; a later load neither
        # removes nor rebuilds its own.
        fresh_kernel_cache.mkdir(mode=0o700)
        stems = ("compiled", "checked", "quadpass")
        stale = [fresh_kernel_cache / f"{stems[k % 3]}-{k:064d}.so"
                 for k in range(_quadpass.KEEP + 2)]
        for age, lib in enumerate(stale):
            lib.write_bytes(b"")
            os.utime(lib, (1e9 - age, 1e9 - age))
        other = fresh_kernel_cache / "notes.txt"
        other.write_bytes(b"")
        assert _quadpass.load() is not None
        lib, = set(fresh_kernel_cache.glob("compiled-*.so")) - set(stale)
        kept = [lib, other] + stale[:_quadpass.KEEP - 1]
        assert sorted(fresh_kernel_cache.iterdir()) == sorted(kept)
        inode = lib.stat().st_ino
        compiled = []
        monkeypatch.setattr(_quadpass, "compile_to", compiled.append)
        _quadpass.load.cache_clear()
        assert _quadpass.load() is not None and compiled == []
        assert lib.stat().st_ino == inode
        assert sorted(fresh_kernel_cache.iterdir()) == sorted(kept)

    @needs_kernel
    def test_alternating_sources_compile_once_each(self, fresh_kernel_cache,
                                                   monkeypatch, tmp_path):
        # Two checkouts with different kernel sources sharing one cache,
        # as a parent and a change benchmarked alternately.
        other = tmp_path / "_compiled.c"
        other.write_text(_quadpass.SOURCE.read_text() + "/* changed */\n")
        sources = [_quadpass.SOURCE, other]
        compiled = []
        real = _quadpass.compile_to
        monkeypatch.setattr(_quadpass, "compile_to",
                            lambda out, *how: (compiled.append(out),
                                                  real(out, *how)))
        for source in sources * 3:
            monkeypatch.setattr(_quadpass, "SOURCE", source)
            _quadpass.load.cache_clear()
            assert _quadpass.load() is not None
        assert len(compiled) == 2
        assert len(list(fresh_kernel_cache.glob("compiled-*.so"))) == 2

    def test_library_names_depend_on_the_interpreter_abi(self):
        # A cache shared by two Pythons keeps one extension for each.
        names = {_quadpass.lib_name(suffix)
                 for suffix in (".cpython-311-x86_64-linux-gnu.so",
                                ".cpython-312-x86_64-linux-gnu.so")}
        assert len(names) == 2
        assert all(n.startswith("compiled-") and n.endswith(".so")
                   for n in names)

    @pytest.mark.parametrize("owner, name, value", [
        (inclusion, "RESIDUAL_TOL", 2e-10), (inclusion, "_MAX_HALVINGS", 100),
        (inclusion, "_BRENT_FTOL", 1e-12),
        (objectives, "STATIONARY_REL_TOL", 1e-13)])
    def test_library_names_depend_on_the_search_constants(self, owner, name,
                                                          value, monkeypatch):
        # The C search is built with Python's constants, as -D flags of
        # exact literals: another constant gets another module.
        defined = dict(flag[2:].split("=") for flag in _quadpass.flags()
                       if flag.startswith("-D"))
        assert float.fromhex(defined["RESIDUAL_TOL"]) == inclusion.RESIDUAL_TOL
        assert int(defined["MAX_HALVINGS"]) == inclusion._MAX_HALVINGS
        assert float.fromhex(defined["BRENT_FTOL"]) == inclusion._BRENT_FTOL
        before = _quadpass.lib_name()
        monkeypatch.setattr(owner, name, value)
        assert _quadpass.lib_name() != before

    @needs_kernel
    def test_search_constants_reach_the_kernel(self, fresh_kernel_cache,
                                               monkeypatch):
        # With a looser residual tolerance, at which Brent stops too, the
        # module built for them, one more in the cache, leaves other bits,
        # and Python's search the same.
        V, spec, state = red_black_setup()
        before = red_black_bits(V, spec, state)
        monkeypatch.setattr(inclusion, "RESIDUAL_TOL", 1e-3)
        monkeypatch.setattr(inclusion, "_BRENT_FTOL", 1e-3)
        _quadpass.load.cache_clear()
        got = red_black_bits(V, spec, state)
        with numpy_pass():
            assert red_black_bits(V, spec, state) == got != before
        assert len(list(fresh_kernel_cache.glob("compiled-*.so"))) == 2

    @needs_kernel
    def test_missing_python_headers_leave_nothing_compiled(
            self, fresh_kernel_cache, monkeypatch, tmp_path):
        # Without Python.h nothing is built, and the closed-form and
        # red-black sweeps give the compiled ones' bits.
        A, b, _ = gaussian_system(12, seed=7)
        x0 = np.random.default_rng(7).standard_normal(12)
        V, spec, state = red_black_setup()
        want = (kernel_rule_outputs(A, b, x0, 0.7, 2.0, 1.2, 3),
                red_black_bits(V, spec, state))
        for lib in fresh_kernel_cache.glob("*.so"):
            lib.unlink()
        paths = dict(sysconfig.get_paths(), include=str(tmp_path / "none"))
        monkeypatch.setattr(sysconfig, "get_paths", lambda: paths)
        _quadpass.load.cache_clear()
        assert _quadpass.load() is None
        assert (kernel_rule_outputs(A, b, x0, 0.7, 2.0, 1.2, 3),
                red_black_bits(V, spec, state)) == want
        assert list(fresh_kernel_cache.iterdir()) == []

    @needs_kernel
    def test_fresh_cache_compiles_one_module_once(self, tmp_path):
        # An import, a bsor sweep and a red-black bia sweep in a new
        # process: one gcc call, through a gcc that logs its calls, and
        # one module left in the cache.
        bin_dir, log = tmp_path / "bin", tmp_path / "gcc.log"
        bin_dir.mkdir()
        (bin_dir / "gcc").write_text(
            f'#!/bin/sh\necho "$@" >> {log}\nexec {shutil.which("gcc")} "$@"\n')
        (bin_dir / "gcc").chmod(0o755)
        code = """if True:
            import numpy as np
            from bregsolve import solvers
            from bregsolve.bregman import BregmanSpec, PrimalDualState
            from bregsolve.objectives import (QuadraticObjective,
                                              StudentTObjective)
            q = QuadraticObjective(np.eye(4) * 2.0, np.ones(4))
            spec = BregmanSpec.elastic_net(4, 0.5)
            solvers.bsor_sweep(q, PrimalDualState.initial(spec, np.ones(4)),
                               0.5, 1.0)
            V = StudentTObjective(3, 3, np.linspace(0.0, 1.0, 9))
            spec = BregmanSpec(V.x_delta, 0.5)
            solvers.bia_sweep(V, spec, PrimalDualState.initial(
                spec, V.x_delta), np.ones(9), order="red_black")
        """
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src,
                                XDG_CACHE_HOME=str(tmp_path / "cache"),
                                PATH=f"{bin_dir}{os.pathsep}"
                                     f"{os.environ['PATH']}"))
        assert len(log.read_text().splitlines()) == 1
        assert [lib.name.split("-")[0] for lib in
                (tmp_path / "cache" / "bregsolve").iterdir()] == ["compiled"]

    @needs_kernel
    def test_warm_import_reads_no_sysconfig_data(self):
        # Cached libraries are named by the extension suffix; the path of
        # the headers is read for a build only.
        code = ("import sys, bregsolve.solvers as s; "
                "print(s._quadpass.load() is not None, sorted("
                "m for m in sys.modules if m.startswith('_sysconfigdata')))")
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        run = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.stdout.split() == ["True", "[]"]

    def test_import_compiles_nothing(self, tmp_path):
        # The module is built at the first sweep that asks for it: an
        # import in a new process with an empty cache calls no gcc, through
        # a gcc that logs its calls, and leaves no module.
        bin_dir, log = tmp_path / "bin", tmp_path / "gcc.log"
        bin_dir.mkdir()
        (bin_dir / "gcc").write_text(
            f'#!/bin/sh\necho "$@" >> {log}\n'
            f'exec {shutil.which("gcc") or "false"} "$@"\n')
        (bin_dir / "gcc").chmod(0o755)
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        subprocess.run([sys.executable, "-c",
                        "import bregsolve, bregsolve.cli, bregsolve.solvers"],
                       check=True,
                       env=dict(os.environ, PYTHONPATH=src,
                                XDG_CACHE_HOME=str(tmp_path / "cache"),
                                PATH=f"{bin_dir}{os.pathsep}"
                                     f"{os.environ['PATH']}"))
        assert not log.exists()
        assert list(tmp_path.glob("cache/**/*.so")) == []

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(0.0, 2.0), tau=st.floats(0.1, 10.0),
           omega=st.floats(0.1, 1.9), lam=st.floats(0.0, 3.0),
           sweeps=st.integers(1, 3))
    def test_sweeps_match_column_reference_bitwise(self, n, seed, gamma, tau,
                                                   omega, lam, sweeps):
        A, b, _ = gaussian_system(n, seed=seed)
        assert np.array_equal(A, A.T)
        q = QuadraticObjective(A, b)
        assert q.A is A
        x0 = np.random.default_rng(seed).standard_normal(n)
        x0[::3] = 0.0
        got = closed_form_iterates(q, x0, gamma, tau, omega, lam, sweeps)
        with numpy_pass():
            want = closed_form_iterates(ColumnQuadratic(A, b), x0, gamma,
                                        tau, omega, lam, sweeps)
        for name, (x, p) in want.items():
            assert got[name][0].tobytes() == x.tobytes(), name
            assert got[name][1].tobytes() == p.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           commits=st.lists(st.tuples(st.integers(0, 10**6),
                                      st.floats(-10.0, 10.0)), max_size=80))
    def test_cached_residual_matches_fresh(self, n, seed, commits):
        q, rng = spd_system(n, seed % 2**16)
        ctx = q.sweep_context(rng.standard_normal(n))
        scale = 0.0
        for j, value in commits:
            ctx.commit(j % n, value)
            scale = max(scale, float(np.max(np.abs(q.A) @ np.abs(ctx.y)
                                            + np.abs(q.b))))
        fresh = q.A @ ctx.y - q.b
        assert np.max(np.abs(ctx.r - fresh)) <= 1e-12 * max(scale, 1.0)

    def test_near_symmetric_input_is_symmetrised(self):
        for seed in (3, 4):
            A, b, _ = gaussian_system(16, seed=seed)
            H = np.random.default_rng(seed).standard_normal((16, 16))
            A_in = A + 1e-14 * (H - H.T)
            assert not np.array_equal(A_in, A_in.T)
            q = QuadraticObjective(A_in, b)
            assert np.array_equal(q.A, q.A.T)
            x0 = np.random.default_rng(seed).standard_normal(16)
            got = closed_form_iterates(q, x0, 0.7, 2.0, 1.2, 0.5, 3)
            with numpy_pass():
                want = closed_form_iterates(ColumnQuadratic(A_in, b), x0,
                                            0.7, 2.0, 1.2, 0.5, 3)
            for name, (x, p) in want.items():
                for a, ref in ((got[name][0], x), (got[name][1], p)):
                    assert np.max(np.abs(a - ref)) \
                        <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))), name


def closed_form_setups(q, gamma, tau, omega):
    """``(V, spec, cfg)`` of each closed-form variant on ``q``; l1_bsor
    runs on ``q`` plus ``0.5 * ||.||_1``."""
    net = BregmanSpec.elastic_net(q.n, gamma)
    return {
        "sor": (q, BregmanSpec.euclidean(q.n), SolverConfig("sor",
                                                            omega=omega)),
        "bsor": (q, net, SolverConfig("bsor", tau=tau)),
        "blcd": (q, net, SolverConfig("blcd", omega=omega)),
        "l1_bsor": (L1QuadraticObjective(q, 0.5), net,
                    SolverConfig("l1_bsor", tau=tau)),
    }


def sweeper_chain(V, spec, cfg, x0, sweeps, handed=lambda s: s):
    """The results of ``sweeps`` calls of one ``make_sweeper`` sweeper,
    each handed ``handed(state)`` of the state the call before returned."""
    sweep = make_sweeper(V, spec, cfg)
    state, out = PrimalDualState.initial(spec, x0), []
    for _ in range(sweeps):
        out.append(sweep(handed(state)))
        state = out[-1].state
    return out


def copied(state):
    return PrimalDualState(state.x, state.p, state.k)


class TestCarriedResidual:
    """A closed-form sweeper carries the residual its pass ended with into
    the next pass and computes it fresh every ``RESIDUAL_REFRESH`` sweeps
    and for any state it did not return itself."""

    def test_200_sweeps_stay_within_tolerance_of_fresh_residuals(self):
        A, b, _ = gaussian_system(256, seed=11)
        q = QuadraticObjective(A, b)
        x0 = np.random.default_rng(11).standard_normal(256)
        for name in ("sor", "bsor", "blcd"):
            V, spec, cfg = closed_form_setups(q, 0.7, 2.0, 1.2)[name]
            carried = sweeper_chain(V, spec, cfg, x0, 200)
            fresh = sweeper_chain(V, spec, cfg, x0, 200, copied)
            for c, f in zip(carried, fresh):
                assert np.max(np.abs(c.state.x - f.state.x)) <= 1e-10, name
                v = V.value(f.state.x)
                assert abs(V.value(c.state.x, c.r) - v) <= 1e-12 * abs(v)
            assert not all(np.array_equal(c.r, f.r)
                           for c, f in zip(carried, fresh)), name

    @needs_kernel
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(0.0, 2.0), tau=st.floats(0.1, 10.0),
           omega=st.floats(0.1, 1.9),
           extra=st.integers(1, solvers.RESIDUAL_REFRESH))
    def test_kernel_matches_numpy_pass_across_refreshes(self, n, seed, gamma,
                                                        tau, omega, extra):
        A, b, _ = gaussian_system(n, seed=seed)
        q = QuadraticObjective(A, b)
        x0 = np.random.default_rng(seed).standard_normal(n)
        x0[::3] = 0.0
        K = solvers.RESIDUAL_REFRESH
        for name in ("sor", "bsor", "blcd"):
            V, spec, cfg = closed_form_setups(q, gamma, tau, omega)[name]
            got = sweeper_chain(V, spec, cfg, x0, K + extra)
            with numpy_pass():
                want = sweeper_chain(V, spec, cfg, x0, K + extra)
            for g, w in zip(got, want):
                for a, ref in ((g.state.x, w.state.x), (g.state.p, w.state.p),
                               (g.r, w.r)):
                    assert a.tobytes() == ref.tobytes(), name
            # Sweep K + 1 starts from a fresh residual again.
            state = got[K - 1].state
            redo = make_sweeper(V, spec, cfg)(copied(state))
            assert got[K].r.tobytes() == redo.r.tobytes(), name

    @pytest.mark.parametrize("name", ["sor", "bsor", "blcd", "l1_bsor"])
    def test_foreign_state_gets_a_fresh_residual(self, name):
        A, b, _ = gaussian_system(24, seed=13)
        q = QuadraticObjective(A, b)
        x0 = np.random.default_rng(13).standard_normal(24)
        V, spec, cfg = closed_form_setups(q, 0.7, 2.0, 1.2)[name]
        direct = {
            "sor": lambda s: blcd_sweep(V, s, 0.0, cfg.omega),
            "bsor": lambda s: bsor_sweep(V, s, 0.7, cfg.tau),
            "blcd": lambda s: blcd_sweep(V, s, 0.7, cfg.omega),
            "l1_bsor": lambda s: l1_bsor_sweep(V, s, 0.7, 0.5, cfg.tau),
        }[name]
        sweep = make_sweeper(V, spec, cfg)
        state0 = PrimalDualState.initial(spec, x0)
        last = sweep(state0)
        for _ in range(3):
            last = sweep(last.state)
        # An equal copy of its own last state, then a state from before.
        for state in (copied(last.state), state0):
            got, want = sweep(state), direct(state)
            for a, ref in ((got.state.x, want.state.x),
                           (got.state.p, want.state.p), (got.r, want.r)):
                assert a.tobytes() == ref.tobytes()


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
        cfg = SolverConfig("bia", tau=2.0, max_iters=80)
        state, records = run(q, spec, np.zeros(16), cfg)
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
        tau_max = float(np.max(coordinate_time_steps(cfg, q)))
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
        q.value = lambda x, r=None: math.nan
        with pytest.raises(InvariantViolation):
            run(q, BregmanSpec.euclidean(4), np.zeros(4),
                SolverConfig("sor", max_iters=3))

    def test_objective_evaluated_once_per_sweep(self):
        # k sweeps cost k + 1 values of V, and the trace holds V itself.
        # A closed-form run makes one full evaluation, of x0, and k in O(n)
        # from the residual each sweep returns; bia makes k + 1 full ones.
        q, _ = spd_system(8, 51)
        full, carried = [], []
        value = q.value

        def counted(x, r=None):
            (full if r is None else carried).append(r)
            return value(x, r)
        q.value = counted
        sweeps = []
        real = solvers.make_sweeper

        def recording(V, spec, cfg):
            sweep = real(V, spec, cfg)

            def step(state):
                sweeps.append(sweep(state))
                return sweeps[-1]
            return step
        for variant in ("sor", "bsor", "bia", "blcd"):
            spec = BregmanSpec.euclidean(8) if variant == "sor" \
                else BregmanSpec.elastic_net(8, 1.0)
            full.clear()
            carried.clear()
            with mock.patch.object(solvers, "make_sweeper", recording):
                state, records = run(q, spec, np.zeros(8),
                                     SolverConfig(variant, max_iters=5))
            assert len(records) == 5
            last = records[-1].objective
            if variant == "bia":
                assert (len(full), len(carried)) == (6, 0)
                assert last == value(state.x)
                continue
            assert (len(full), len(carried)) == (1, 5), variant
            assert last == value(state.x, sweeps[-1].r)
            assert sweeps[-1].state is state
            assert abs(last - value(state.x)) <= 1e-12 * abs(last)

    def test_non_member_subgradient_raises(self, monkeypatch):
        # Every sweep's p must lie in dJ(x); a sweep that breaks it fails.
        real = solvers.make_sweeper

        def off_by_one(V, spec, cfg):
            sweep = real(V, spec, cfg)

            def bad(state):
                new = sweep(state).state
                return SweepResult(PrimalDualState(new.x, new.p + 1.0, new.k))
            return bad
        monkeypatch.setattr(solvers, "make_sweeper", off_by_one)
        q, _ = spd_system(4, 52)
        with pytest.raises(BregmanError, match="subgradient"):
            run(q, BregmanSpec.euclidean(4), np.zeros(4),
                SolverConfig("sor", max_iters=3))

    def test_membership_after_every_sweep(self):
        q, _ = spd_system(10, 47)
        V = L1QuadraticObjective(q, 1.0)
        spec = BregmanSpec.elastic_net(10, 0.5)
        for variant in ("bia", "bia_modified", "l1_bsor"):
            cfg = SolverConfig(variant, tau=2.0, max_iters=30)
            state, _ = run(V, spec, np.zeros(10), cfg)
            assert spec.contains_subgradient(state.x, state.p, 1e-9)

    def test_variant_objective_mismatch(self):
        rng = np.random.default_rng(48)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        spec = BregmanSpec.shifted_elastic_net(0.5, x_delta)
        cfg = SolverConfig("bsor", tau=2.0)
        with pytest.raises(SolverError):
            run(V, spec, x_delta, cfg)

    @pytest.mark.parametrize("variant", solvers.CLOSED_FORM_VARIANTS)
    @pytest.mark.parametrize("spec", [
        BregmanSpec.shifted_elastic_net(0.5, np.full(4, 0.3)),
        BregmanSpec.elastic_net(4, 0.0, 0.0, 1.0)], ids=["shifted", "boxed"])
    def test_closed_forms_refuse_shifts_and_boxes(self, variant, spec):
        # The closed forms read spec.gamma alone: such a spec is refused
        # before any sweep, not after the first, once p leaves dJ(x) or x
        # leaves the box.
        q, _ = spd_system(4, 50)
        V = L1QuadraticObjective(q, 0.5) if variant == "l1_bsor" else q
        with pytest.raises(SolverError, match="without a box"):
            make_sweeper(V, spec, SolverConfig(variant))
        with pytest.raises(SolverError, match="without a box"):
            run(V, spec, np.full(4, 0.5), SolverConfig(variant, max_iters=2))

    def test_ia_requires_euclidean(self):
        q, _ = spd_system(4, 49)
        spec = BregmanSpec.elastic_net(4, 1.0)
        with pytest.raises(SolverError):
            run(q, spec, np.zeros(4), SolverConfig("ia"))
        # sor and gauss_seidel run blcd at gamma = 0; they are refused when
        # the sweeper is made, before any sweep, not run as blcd.
        for variant in ("sor", "gauss_seidel"):
            with pytest.raises(SolverError, match="euclidean"):
                make_sweeper(q, spec, SolverConfig(variant))

    def test_dissipation_bound_enforced(self):
        # At tau = 1e-300 the bsor closed form moves x by rounding alone,
        # and mu / tau_max times that step outweighs any decrease of V.
        q, _ = spd_system(8, 56)
        x0 = np.random.default_rng(56).standard_normal(8)
        with pytest.raises(InvariantViolation, match="dissipation slack"):
            run(q, BregmanSpec.elastic_net(8, 1.0), x0,
                SolverConfig("bsor", tau=1e-300, max_iters=3))

    def test_coordinate_time_steps(self):
        # Relaxation sweeps are Bregman sweeps with steps
        # 2 omega / ((2 - omega) a_ii); every other variant takes tau / a_ii
        # on a quadratic (l1 term or not) and tau on any other objective.
        q, _ = spd_system(6, 50)
        x_delta = np.random.default_rng(50).uniform(0, 1, 6)
        student_t = StudentTObjective(2, 3, x_delta)
        d = np.diag(q.A)
        for variant in VARIANTS:
            cfg = SolverConfig(variant, tau=0.7, omega=1.5)
            omega = 1.0 if variant == "gauss_seidel" else 1.5
            relaxation = variant in ("sor", "gauss_seidel", "blcd")
            want = 2.0 * omega / ((2.0 - omega) * d) if relaxation \
                else 0.7 / d
            for V in (q, L1QuadraticObjective(q, 0.4)):
                assert np.array_equal(coordinate_time_steps(cfg, V), want)
            assert np.array_equal(coordinate_time_steps(cfg, student_t),
                                  np.full(6, 0.7))
        # The trace's dissipation slack is measured against the largest step.
        for variant in ("sor", "bia"):
            cfg = SolverConfig(variant, tau=0.7, omega=1.5, max_iters=10)
            spec = BregmanSpec.euclidean(6) if variant == "sor" \
                else BregmanSpec.elastic_net(6, 1.0)
            _, records = run(q, spec, np.zeros(6), cfg)
            tau_max = float(np.max(coordinate_time_steps(cfg, q)))
            v_prev = q.value(np.zeros(6))
            for r in records:
                want = (v_prev - r.objective) - r.step_norm ** 2 / tau_max
                assert r.dissipation_slack == pytest.approx(
                    want, rel=1e-9, abs=1e-12)
                v_prev = r.objective


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
        state, records = run(V, spec, noisy.ravel(), cfg)
        assert records[-1].objective < V.value(noisy.ravel())
        for r in records:
            assert r.dissipation_slack >= -1e-9 * max(1.0, abs(r.objective))

    def test_root_beside_a_shift_below_the_box(self):
        # Brent's root lies within 1e-9 of the piece's shift, which lies
        # just below the box, and misses the residual tolerance: the ulp
        # squeeze settles it, and no residual is taken outside the box,
        # where subdiff_interval raises BregmanError.  The compiled sweep
        # solves it alike, without Python.
        h = float.fromhex
        V = StudentTObjective(1, 1, np.array([h("0x1.c02589fbab5fcp-1")]))
        spec = BregmanSpec(np.array([h("0x1.c02589ca68ae0p-1")]), 2.0,
                           lower=0.8752863941010975)
        x0 = np.array([h("0x1.c0258a2cbe2eap-1")])
        cfg = SolverConfig("bia", tau=h("0x1.766272a20e167p-2"), max_iters=3)
        residual, outside = inclusion._residual, []

        def in_box(prob, y):
            if not prob.sb.lower <= y <= prob.sb.upper:
                outside.append(y)
            return residual(prob, y)
        with numpy_pass(), mock.patch.object(inclusion, "_residual", in_box):
            want, records = run(V, spec, x0, cfg)
        assert outside == []
        assert len(records) == 3 and want.x[0] != x0[0]
        assert spec.contains_subgradient(want.x, want.p, 0.0)
        for r in records:
            assert r.dissipation_slack >= -1e-9 * max(1.0, abs(r.objective))
        with counted(inclusion, "_search") as searches:
            got, _ = run(V, spec, x0, cfg)
        assert len(searches) == (0 if _quadpass.load() else 3)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.p.tobytes() == want.p.tobytes()

    def test_modified_scheme_keeps_membership(self):
        img = make_test_image(8, 8)
        noisy = impulse_noise(img, 0.2, seed=55)
        V = StudentTObjective(8, 8, noisy.ravel())
        spec = BregmanSpec.shifted_elastic_net(0.5, noisy.ravel())
        cfg = SolverConfig("bia_modified", tau=1.0, max_iters=10)
        state, _ = run(V, spec, noisy.ravel(), cfg)
        assert spec.contains_subgradient(state.x, state.p, 1e-9)


def red_black_order(V):
    return np.concatenate(V.colours)


def bits(*values):
    return [float(v).hex() for v in values]


def spied_sweep(V, spec, state, taus, mode="keep_box",
                order="lexicographic"):
    """The state after one :func:`bia_sweep` through a pass-through wrapper
    on :data:`solvers.solve_inclusion`, which makes it run Python's loop,
    and the problem and the solution of each scalar inclusion in it."""
    calls, solve = [], solvers.solve_inclusion

    def spy(prob, mode):
        sol = solve(prob, mode)
        calls.append((prob, sol))
        return sol
    with mock.patch.object(solvers, "solve_inclusion", spy):
        new = bia_sweep(V, spec, state, taus, mode, order).state
    return new, calls


@contextmanager
def counted(owner, name):
    """The first argument of each call of ``owner.name`` in the block."""
    seen, real = [], getattr(owner, name)
    with mock.patch.object(owner, name, lambda first, *rest:
                           seen.append(first) or real(first, *rest)):
        yield seen


class TestRedBlackSweep:
    """The compiled sweep solves each coordinate with the kernel's search
    on its own stencil, and stays bitwise the scalar sweep, which the
    loader patched to None runs, in every order."""

    @needs_kernel
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_sweep_on_denoising_preset(self, seed):
        args = cli.build_parser().parse_args(
            ["--preset", "student_t_denoise", "--seed", str(seed)])
        exp = cli.build_experiment(cli.effective_params(args))
        V, spec, taus = exp.V, exp.spec, np.ones(exp.V.n)
        kernel = scalar = PrimalDualState.initial(spec, exp.x0)
        searched = 0
        for _ in range(20):
            with counted(inclusion, "_search") as searches:
                kernel = bia_sweep(V, spec, kernel, taus,
                                   order="red_black").state
            searched += len(searches)
            with numpy_pass():
                scalar = bia_sweep(V, spec, scalar, taus,
                                   order=red_black_order(V)).state
            assert kernel.x.tobytes() == scalar.x.tobytes()
            assert kernel.p.tobytes() == scalar.p.tobytes()
        # The kernel's search solves every pixel that moves: Python
        # searches none.
        assert searched == 0

    @needs_kernel
    @settings(max_examples=50, deadline=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1),
           gamma=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
           tau=st.floats(0.1, 10.0), box=st.booleans(),
           mode=st.sampled_from(["keep_box", "forget_box"]),
           order=st.sampled_from(["lexicographic", "red_black", "permuted",
                                  "repeated"]))
    def test_matches_scalar_sweep_on_small_images(self, h, w, seed, gamma,
                                                  tau, box, mode, order):
        # Impulse noise puts pixels on 0 and 1, the box edges; the start
        # x_delta puts every pixel on its data kink and on the kink of J.
        rng = np.random.default_rng(seed)
        clean = rng.uniform(0.2, 0.8, (h, w))
        x_delta = impulse_noise(clean, 0.3, seed=seed).ravel()
        V = StudentTObjective(h, w, x_delta)
        spec = BregmanSpec(x_delta, gamma, *((0.0, 1.0) if box else ()))
        taus = np.full(V.n, tau)
        if order == "permuted":
            order = rng.permutation(V.n)
        elif order == "repeated":       # repeats and gaps
            order = rng.integers(0, V.n, V.n)
        kernel = scalar = PrimalDualState.initial(spec, x_delta)
        for _ in range(3):
            kernel = bia_sweep(V, spec, kernel, taus, mode, order).state
            with numpy_pass():
                scalar = bia_sweep(V, spec, scalar, taus, mode, order).state
            assert kernel.x.tobytes() == scalar.x.tobytes()
            assert kernel.p.tobytes() == scalar.p.tobytes()
        variant = "ia" if gamma == 0 else \
            "bia_modified" if mode == "forget_box" else "bia"
        # run raises on a dissipation or membership failure.
        _, records = run(V, spec, x_delta, SolverConfig(
            variant, tau=tau, max_iters=3, order="red_black"))
        assert len(records) == 3

    def test_error_stops_the_kernel_and_the_scalar_search_raises(self):
        # Pixel 1, 1e9 above its neighbour and its data, jumps to the box
        # edge 0, the neighbour's value, where the log1p argument of its
        # quotient rounds to -1.  The kernel's search stops there, so the
        # Python search runs and raises; pixel 0 stays put, also in a
        # second turn.
        V = StudentTObjective(1, 2, np.zeros(2))
        spec = BregmanSpec(np.zeros(2), 0.0, 0.0)
        state = PrimalDualState.initial(spec, np.array([0.0, 1e9]))
        taus = np.full(2, 1e10)
        with numpy_pass(), pytest.raises(ValueError) as want:
            bia_sweep(V, spec, state, taus)
        with counted(inclusion, "_search") as searches, \
                pytest.raises(ValueError) as got:
            bia_sweep(V, spec, state, taus, order=[0, 1])
        assert str(got.value) == str(want.value)
        assert [prob.x for prob in searches] == [1e9]
        new = bia_sweep(V, spec, state, taus, order=[0, 0]).state
        assert new.x.tobytes() == state.x.tobytes()

    def test_kernel_skips_subclasses_and_indices_out_of_range(self):
        # A subclass gets Python's loop, a solve per coordinate; every
        # order in range, repeats and gaps included, gets the compiled
        # sweep, which solves these coordinates without Python.  An index
        # outside range(n), time steps, a state or a spec that do not fit
        # the image, and an unknown mode raise the same error with and
        # without the module, before any coordinate's problem is built.
        class Sub(StudentTObjective):
            pass
        x_delta = impulse_noise(np.full((3, 3), 0.5), 0.3, seed=1).ravel()
        spec = BregmanSpec(x_delta, 0.5)
        state = PrimalDualState.initial(spec, x_delta)
        V = StudentTObjective(3, 3, x_delta)
        kernel = _quadpass.load() is not None
        with counted(inclusion, "_try_stationary") as solves:
            bia_sweep(Sub(3, 3, x_delta), spec, state, np.ones(9))
        assert len(solves) == 9
        ten = np.r_[x_delta, 0.5]
        long_state = PrimalDualState.initial(BregmanSpec(ten, 0.5), ten)
        for args, error in (
                ((spec, state, np.ones(10)), SolverError),
                ((spec, long_state, np.ones(9)), SolverError),
                ((BregmanSpec(np.zeros(12), 0.5), state, np.ones(9)),
                 SolverError),
                ((spec, state, np.ones(9), "sideways"),
                 inclusion.InclusionError)):
            errors = []
            for loaded in (True, False):
                with (nullcontext() if loaded else numpy_pass()), \
                        counted(solvers, "InclusionProblem") as built, \
                        pytest.raises(error) as err:
                    bia_sweep(V, *args, order="red_black")
                errors.append(str(err.value))
                assert built == []
            assert errors[0] == errors[1]
        assert errors[0] == "unknown mode 'sideways'"
        for order in ("lexicographic", "red_black", [0, 1, 2, 2, 4],
                      range(8), np.random.default_rng(1).integers(0, 9, 20)):
            with counted(inclusion, "_try_stationary") as solves:
                bia_sweep(V, spec, state, np.ones(9), order=order)
            visits = 9 if isinstance(order, str) else len(order)
            assert len(solves) == (0 if kernel else visits)
        for order, i in (([0, -1, 4], -1), ([4, 9], 9), ([-10, 20], -10)):
            errors = []
            for loaded in (True, False):
                with (nullcontext() if loaded else numpy_pass()), \
                        counted(inclusion, "_try_stationary") as solves, \
                        pytest.raises(IndexError) as err:
                    bia_sweep(V, spec, state, np.ones(9), order=order)
                errors.append(str(err.value))
                assert solves == []
            assert errors == [f"no coordinate {i}"] * 2

    def test_red_black_needs_a_student_t_inclusion_sweep(self):
        with pytest.raises(SolverError):
            SolverConfig("bia", order="zigzag")
        q, _ = spd_system(6, 0)
        spec = BregmanSpec.elastic_net(6, 0.5)
        for variant in ("bia", "bsor"):
            with pytest.raises(SolverError, match="red_black"):
                make_sweeper(q, spec, SolverConfig(variant,
                                                   order="red_black"))
        V = StudentTObjective(3, 3, np.zeros(9))
        with pytest.raises(SolverError, match="red_black"):
            make_sweeper(V, BregmanSpec.euclidean(9),
                         SolverConfig("sor", order="red_black"))


def sweeps_outcome(V, spec, state, taus, mode, order, sweeps):
    """The bytes of x and p after ``sweeps`` sweeps, or the error's type
    and message."""
    try:
        for _ in range(sweeps):
            state = bia_sweep(V, spec, state, taus, mode, order).state
    except Exception as err:
        return type(err), str(err)
    return state.x.tobytes(), state.p.tobytes()


def pass_through(prob, mode):
    """A wrapper on :data:`solvers.solve_inclusion` that changes nothing."""
    return inclusion.solve_inclusion(prob, mode)


def live_outcome(V, spec, state, taus, mode, order, sweeps):
    """:func:`sweeps_outcome` of Python's loop reading ``order`` at each
    turn, as the compiled sweep does: one single-coordinate sweep a turn."""
    try:
        with numpy_pass():
            for _ in range(sweeps):
                for k in range(len(order)):
                    state = bia_sweep(V, spec, state, taus, mode,
                                      order[k:k + 1]).state
    except Exception as err:
        return type(err), str(err)
    return state.x.tobytes(), state.p.tobytes()


#: Pixels where rounding, overflow and the sign of zero are at their edges.
adversarial_pixel = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
     0.5, 1.0]) | st.floats(-2.0, 2.0)

#: Coordinate 0 of a small image, (h, w, y, x_delta, gamma, box, p, tau),
#: with p in dJ(x), whose search reaches a branch that reuses a residual
#: taken before: the bracket from x, whose first probe is past the root and
#: whose end x has the residual's limit there; the bracket end that decides
#: a kink split; the bracket ends of an ulp squeeze; and that squeeze on
#: Brent's root x, which it skips.  The shifts are the data.
BRANCH_CASES = {
    "from_x": (1, 2, [0.0, 1.0], [0.7, 0.2], 0.0, (), 0.0, 20.0),
    "kink_split": (1, 2, [0.84, 0.39], [0.7, 0.1], 0.5, (), 1.34, 1.0),
    "ulp_squeeze": (1, 2, [0.55, 0.48], [0.5500000000000004, 0.4], 0.0, (),
                    0.55, 5.0),
    "squeeze_skips_x": (1, 2, [0.72, 0.63], [0.720000000000001, 0.13], 0.0,
                        (), 0.72, 5.0),
}


def branch_reached(branch, spies):
    """Whether Python's search took ``branch``, from the calls of the
    spies on its functions."""
    brackets = [c.args for c in spies["_bracketed_root"].call_args_list]
    squeezes = [c.args for c in spies["_ulp_root"].call_args_list]
    if branch == "from_x":
        return any(prob.x in (a, b) for prob, _, _, a, b in brackets)
    if branch == "kink_split":
        return any(prob.sb.gamma > 0 and min(a, b) < prob.sb.shift < max(a, b)
                   for prob, _, _, a, b in brackets)
    return any((root == x) == (branch == "squeeze_skips_x")
               for _, _, _, root, _, x in squeezes)


class TestSearchedCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), image=st.booleans(),
           gamma=st.sampled_from([0.0, 0.5]),
           tau=st.sampled_from([0.05, 1.0, 20.0]),
           box=st.sampled_from([(), (0.0, 1.0)]),
           mode=st.sampled_from(["keep_box", "forget_box"]))
    def test_no_searched_coordinate_has_a_zero_clarke_element(
            self, seed, image, gamma, tau, box, mode):
        # A sweep keeps p in dJ(x), so a coordinate that reaches the search
        # has no Clarke element 0, and the search's first side, the descent
        # side of v, is that of every element.  Small student-t images and
        # l1-quadratics, half of whose coordinates start on a kink; the
        # first sweep runs compiled where the module loads, the next two
        # Python's loop from its state.
        rng = np.random.default_rng(seed)
        if image:
            h, w = (int(k) for k in rng.integers(1, 5, 2))
            x_delta = impulse_noise(rng.uniform(0.2, 0.8, (h, w)), 0.3,
                                    seed=seed).ravel()
            V, spec = StudentTObjective(h, w, x_delta), BregmanSpec(
                x_delta, gamma, *box)
            x0 = np.where(rng.random(V.n) < 0.5, x_delta,
                          rng.uniform(0, 1, V.n))
        else:
            q, rng = spd_system(int(rng.integers(1, 7)), seed)
            V, spec = L1QuadraticObjective(q, 0.3), BregmanSpec(
                np.zeros(q.n), gamma)
            x0 = np.where(rng.random(V.n) < 0.5, 0.0,
                          rng.standard_normal(V.n))
        state, taus = PrimalDualState.initial(spec, x0), np.full(V.n, tau)
        with counted(inclusion, "_search") as searched:
            state = bia_sweep(V, spec, state, taus, mode).state
            with mock.patch.object(solvers, "solve_inclusion", pass_through):
                for _ in range(2):
                    state = bia_sweep(V, spec, state, taus, mode).state
        assert not any(lo <= 0.0 <= hi
                       for lo, hi in (prob.clarke for prob in searched))


class TestMovedCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), image=st.booleans(),
           gamma=st.sampled_from([0.0, 0.5]),
           tau=st.sampled_from([0.05, 1.0, 20.0]),
           box=st.sampled_from([(), (0.0, 1.0)]),
           mode=st.sampled_from(["keep_box", "forget_box"]),
           order=st.sampled_from(["lexicographic", "red_black"]),
           python=st.booleans())
    def test_each_moved_coordinate_solves_its_inclusion(
            self, seed, image, gamma, tau, box, mode, order, python):
        # Replaying one sweep, each coordinate that moved from x to y has
        # p_new = p - tau*DQ(y) projected, bitwise, and a residual at y
        # within the tolerance, or of the other sign than at a float next
        # to y; at x itself the residual is its limit on the searched side.
        # A y within STATIONARY_REL_TOL of x reads the Clarke midpoint.
        # Small student-t images, by the module where it loads or by
        # Python's loop, and l1-quadratics; half of the coordinates start
        # on a kink.
        rng = np.random.default_rng(seed)
        lo, hi = box or (-1.0, 2.0)
        if image:
            h, w = (int(k) for k in rng.integers(1, 5, 2))
            x_delta = impulse_noise(rng.uniform(0.2, 0.8, (h, w)), 0.3,
                                    seed=seed).ravel()
            V, shift = StudentTObjective(h, w, x_delta), x_delta
        else:
            q, rng = spd_system(int(rng.integers(1, 7)), seed)
            V, order = L1QuadraticObjective(q, 0.3), "lexicographic"
            shift = np.zeros(V.n)
        spec = BregmanSpec(shift, gamma, *box)
        x0 = np.where(rng.random(V.n) < 0.5, spec.shift,
                      rng.uniform(lo, hi, V.n))
        start = PrimalDualState.initial(spec, x0)
        with mock.patch.object(solvers, "solve_inclusion", pass_through) \
                if python else nullcontext():
            end = bia_sweep(V, spec, start, np.full(V.n, tau), mode,
                            order).state
        ctx = V.sweep_context(start.x)
        idx = V.red_black if order == "red_black" else range(V.n)
        for i in map(int, idx):
            x, y, p, sb = ctx.y.item(i), end.x.item(i), start.p[i], \
                spec.pieces[i]
            if y == x:
                continue
            prob = inclusion.InclusionProblem(sb, x, p, tau, ctx.dq(i),
                                              ctx.clarke(i))
            t = p - tau * prob.dq(y)
            ends = sb.j_interval(y) if mode == "forget_box" \
                else sb.subdiff_interval(y)
            assert end.p[i] == min(max(t, ends[0]), ends[1])
            side = min(max(0.0, prob.clarke[0]), prob.clarke[1]) <= 0

            def residual(z):
                if z == x:
                    return p - tau * prob.clarke[side] \
                        - sb.j_interval(x)[side]
                return inclusion._residual(prob, z)
            g = residual(y)
            near = [z for z in (math.nextafter(y, -math.inf),
                                math.nextafter(y, math.inf))
                    if sb.lower <= z <= sb.upper]
            assert abs(g) <= inclusion.RESIDUAL_TOL or any(
                (residual(z) < 0) != (g < 0) for z in near)
            ctx.commit(i, y)


@needs_kernel
class TestCompiledProblems:
    """The compiled sweep solves each coordinate's problem in C, bitwise as
    Python's loop builds and solves it, and hands the coordinates it cannot
    solve to Python.  A wrapper on ``solvers.solve_inclusion``, as
    ``bench/tracer.py`` installs, makes the sweep run Python's loop, so
    that the wrapper sees every coordinate."""

    @pytest.mark.parametrize("order", ["lexicographic", "red_black"])
    def test_tracer_contract_on_the_preset(self, order):
        # Unwrapped, one sweep searches nothing in Python and never builds
        # the spec's pieces; wrapped as the tracer wraps it, it calls the
        # wrapper once per pixel, whose replaced dq the search calls, and
        # gives the same bits.
        args = cli.build_parser().parse_args(
            ["--preset", "student_t_denoise", "--seed", "1"])
        exp = cli.build_experiment(cli.effective_params(args))
        V, spec, taus = exp.V, exp.spec, np.ones(exp.V.n)
        state = PrimalDualState.initial(spec, exp.x0)
        with counted(inclusion, "_search") as searches:
            want = bia_sweep(V, spec, state, taus, order=order).state
        assert searches == [] and "pieces" not in vars(spec)
        real, seen, wrapped = solvers.solve_inclusion, [], [0]

        def traced(prob, *args, **kwargs):     # as the tracer wraps it
            dq = prob.dq
            seen.append(prob)

            def counted_dq(y):
                wrapped[0] += 1
                return dq(y)
            prob.dq = counted_dq
            try:
                return real(prob, *args, **kwargs)
            finally:
                prob.dq = dq
        with mock.patch.object(solvers, "solve_inclusion", traced):
            got = bia_sweep(V, spec, state, taus, order=order).state
        assert len(seen) == V.n and wrapped[0] > 0
        assert got.x.tobytes() == want.x.tobytes()
        assert got.p.tobytes() == want.p.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 6), w=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), box=st.booleans())
    def test_fields_are_the_python_problems(self, h, w, seed, box):
        # Each problem that a wrapper sees is built when its turn comes,
        # from the image and p that the coordinates before it left: the
        # piece, x, p, tau and Clarke pair that the kernel reads, bitwise.
        # The start is off the data, with p in dJ(x).
        rng = np.random.default_rng(seed)
        x_delta = impulse_noise(rng.uniform(0.2, 0.8, (h, w)), 0.3,
                                seed=seed).ravel()
        V = StudentTObjective(h, w, x_delta)
        spec = BregmanSpec(x_delta, 0.5, *((0.0, 1.0) if box else ()))
        state = PrimalDualState.initial(spec, rng.uniform(0.0, 1.0, V.n))
        taus, idx = np.full(V.n, 0.5), rng.permutation(V.n)
        y, p, turns = state.x.copy(), state.p.copy(), iter(idx.tolist())
        real = solvers.solve_inclusion

        def check(prob, mode):
            i = next(turns)
            assert prob.sb is spec.pieces[i] and type(prob.clarke) is tuple
            assert bits(prob.x, prob.p, prob.tau, *prob.clarke) \
                == bits(y[i], p[i], 0.5, *V._clarke(y, i))
            sol = real(prob, mode)
            p[i] = sol.p_new
            if not sol.stationary:
                y[i] = sol.y
            return sol
        with mock.patch.object(solvers, "solve_inclusion", check):
            got = bia_sweep(V, spec, state, taus, order=idx).state
        assert next(turns, None) is None
        want = bia_sweep(V, spec, state, taus, order=idx).state
        assert got.x.tobytes() == want.x.tobytes() == y.tobytes()
        assert got.p.tobytes() == want.p.tobytes() == p.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 5), w=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1),
           box=st.sampled_from([(), (0.0, 1.0), (0.0, math.inf)]),
           gamma=st.sampled_from([0.0, 0.5]),
           tau=st.sampled_from([0.5, 1.0, 7.0, 1e10]),
           mode=st.sampled_from(["keep_box", "forget_box"]),
           order=st.sampled_from(["lexicographic", "red_black", "repeated"]),
           outlier=st.booleans(),
           odd=st.sampled_from([None, "tau_0", "tau_nan"]))
    def test_solve_is_the_python_solve(self, h, w, seed, box, gamma, tau,
                                       mode, order, outlier, odd):
        # Two sweeps by the kernel and by Python's loop, reached through a
        # pass-through wrapper: the same x and p bitwise, or the same error
        # and message.  Half of the pixels on their data kink, impulse
        # noise on the box edges; without an upper bound one pixel may sit
        # 1e9 off, whose move to an edge at its neighbour's value rounds a
        # log1p argument to -1, and Python raises.  One coordinate may have
        # tau 0 or NaN, which the kernel hands to Python.
        rng = np.random.default_rng(seed)
        x_delta = impulse_noise(rng.uniform(0.2, 0.8, (h, w)), 0.3,
                                seed=seed).ravel()
        V = StudentTObjective(h, w, x_delta)
        spec = BregmanSpec(x_delta, gamma, *box)
        y = np.where(rng.random(V.n) < 0.5, x_delta, rng.uniform(0, 1, V.n))
        if outlier and spec.upper == math.inf:
            y[int(rng.integers(V.n))] = 1e9
        if order == "repeated":         # repeats and gaps
            order = rng.integers(0, V.n, 2 * V.n)
        taus, j = np.full(V.n, tau), int(rng.integers(V.n))
        if odd is not None:
            taus[j] = 0.0 if odd == "tau_0" else math.nan
        state = PrimalDualState.initial(spec, y)
        args = (V, spec, state, taus, mode, order, 2)
        got = sweeps_outcome(*args)
        with mock.patch.object(solvers, "solve_inclusion", pass_through):
            assert got == sweeps_outcome(*args)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=st.sampled_from([(1, 1), (1, 5), (5, 1)])
           | st.tuples(st.integers(1, 4), st.integers(1, 4)),
           gamma=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
           tau=st.floats(1e-3, 20.0) | st.just(20.0),
           mode=st.sampled_from(["keep_box", "forget_box"]),
           order=st.sampled_from(["lexicographic", "red_black", "repeated"]))
    def test_adversarial_images_are_the_python_loop(self, data, shape, gamma,
                                                    tau, mode, order):
        # Two sweeps by the kernel and by Python's loop reading the order at
        # each turn: the same bits or the same error.  1 x 1, 1 x n and
        # n x 1 images of subnormal, +-1e300 and signed-zero pixels, shifts
        # and box edges at the pixels.  One coordinate may have tau NaN,
        # which the kernel hands to Python: there it is solved at tau 1,
        # and it writes the order array, the very array the kernel reads,
        # maybe with an index outside the image.
        (h, w), n = shape, shape[0] * shape[1]
        pixels = st.lists(adversarial_pixel, min_size=n, max_size=n)
        y, x_delta = np.array(data.draw(pixels)), np.array(data.draw(pixels))
        shift = [data.draw(st.sampled_from([*y, *x_delta])) for _ in y]
        box = (data.draw(st.sampled_from([-math.inf, y.min()])),
               data.draw(st.sampled_from([math.inf, y.max()])))
        V = StudentTObjective(h, w, x_delta)
        spec = BregmanSpec(np.array(shift), gamma, *box)
        idx = V.red_black.copy() if order == "red_black" else np.arange(n) \
            if order == "lexicographic" else np.array(data.draw(st.lists(
                st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        taus = np.full(n, tau)
        nan_at = data.draw(st.none() | st.integers(0, n - 1))
        if nan_at is not None:
            taus[nan_at] = math.nan
        at = data.draw(st.integers(0, len(idx) - 1))
        value = data.draw(st.integers(-1, n))
        live, problem = [None], solvers.InclusionProblem

        def written(sb, x, p, tau, dq, clarke):
            if math.isnan(tau):
                live[0][at], tau = value, 1.0
            return problem(sb, x, p, tau, dq, clarke)
        state = PrimalDualState.initial(spec, y)
        outcomes = []
        with mock.patch.object(solvers, "InclusionProblem", written):
            for outcome in (sweeps_outcome, live_outcome):
                live[0] = idx.copy()
                outcomes.append(outcome(V, spec, state, taus, mode, live[0],
                                        2))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
    def test_carried_quotients_in_each_branch(self, branch):
        # Python's search takes the branch, as the spies on its functions
        # show; the kernel, which solves the coordinate without Python,
        # gives the same bits.
        h, w, y, x_delta, gamma, box, p, tau = BRANCH_CASES[branch]
        V = StudentTObjective(h, w, np.array(x_delta))
        spec = BregmanSpec(V.x_delta, gamma, *box)
        state = PrimalDualState(np.array(y), np.r_[p, np.zeros(V.n - 1)])
        taus = np.full(V.n, tau)
        names = ("_bracketed_root", "_ulp_root")
        spies = {name: mock.Mock(wraps=getattr(inclusion, name))
                 for name in names}
        with numpy_pass(), mock.patch.multiple(inclusion, **spies):
            want = bia_sweep(V, spec, state, taus, order=[0]).state
        assert branch_reached(branch, spies)
        with counted(inclusion, "_search") as searches:
            got = bia_sweep(V, spec, state, taus, order=[0]).state
        assert searches == [] and got.x[0] != y[0]
        assert got.x.tobytes() == want.x.tobytes()
        assert got.p.tobytes() == want.p.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(h=st.integers(1, 5), w=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1),
           phi=st.tuples(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 4.0),
                         st.sampled_from([0.0, 3.0]) | st.floats(0.0, 4.0)),
           tau=st.sampled_from([0.01, 1.0, 20.0]),
           order=st.sampled_from(["lexicographic", "red_black"]))
    def test_quotient_is_the_objective_quotient_bitwise(self, h, w, seed,
                                                        phi, tau, order):
        # The kernel's quotient and Clarke interval, through the roots and
        # stationary tests they decide: every stencil kind (corners, edges,
        # interior, 1 x w, h x 1), filter weights of 0, a third of the
        # pixels on their data kink and one at 0.  Three sweeps by the
        # kernel and by Python's loop give the same bits.
        rng = np.random.default_rng(seed)
        x_delta, y = rng.uniform(-1.0, 2.0, (2, h * w))
        kink = rng.random(h * w) < 1 / 3
        y[kink] = x_delta[kink]
        y[int(rng.integers(h * w))] = 0.0
        V = StudentTObjective(h, w, x_delta, phi=phi)
        spec = BregmanSpec.euclidean(V.n)
        state = PrimalDualState.initial(spec, y)
        args = (V, spec, state, np.full(V.n, tau), "keep_box", order, 3)
        got = sweeps_outcome(*args)
        with mock.patch.object(solvers, "solve_inclusion", pass_through):
            assert got == sweeps_outcome(*args)

    def test_quotient_hands_other_calls_and_errors_to_python(self):
        # Where the kernel's quotient meets what makes Python raise, the
        # coordinate goes to Python, which raises its own error: pixel 1
        # moving onto its neighbour's 0, where the log1p argument rounds
        # to -1; pixel 1 of a 1 x 3 image with filter weights of 1.5e308,
        # whose Clarke interval is unbounded and whose kink split reads
        # its midpoint, at the shift 1e-16 from x.
        cases = [(StudentTObjective(1, 2, np.zeros(2)), np.array([0.0, 1e9]),
                  BregmanSpec(np.zeros(2), 0.0, 0.0), ValueError),
                 (StudentTObjective(1, 3, np.array([0.8, 1e-16, 0.5]),
                                    (1.5e308, 1.5e308)),
                  np.array([0.5, 0.0, 0.5]),
                  BregmanSpec(np.array([0.8, 1e-16, 0.5]), 0.5),
                  ObjectiveError)]
        for V, y, spec, error in cases:
            state = PrimalDualState.initial(spec, y)
            taus = np.full(V.n, 1e10)
            with counted(inclusion, "_search") as searches, \
                    pytest.raises(error) as got:
                bia_sweep(V, spec, state, taus, order=[1])
            with pytest.raises(error) as want:
                spied_sweep(V, spec, state, taus, order=[1])
            assert str(got.value) == str(want.value)
            assert [prob.x for prob in searches] == [y[1]]

    def test_failed_checks_raise_pythons_error(self):
        # An x outside the box, a tau of 0 or NaN: the kernel hands the
        # coordinate to Python, which raises as its loop does; an unknown
        # mode raises solve_inclusion's error before any solve.
        V = StudentTObjective(1, 3, np.full(3, 0.5))
        spec = BregmanSpec(V.x_delta, 0.5, 0.0, 1.0)
        for y, tau, mode in (([0.5, -0.5, 0.5], 1.0, "keep_box"),
                             ([0.5] * 3, 0.0, "forget_box"),
                             ([0.5] * 3, math.nan, "keep_box"),
                             ([0.5] * 3, 1.0, "sideways")):
            state = PrimalDualState(np.array(y), np.zeros(3))
            taus = np.array([1.0, 1.0, tau])
            errors = []
            for sweep in (bia_sweep, spied_sweep):
                with pytest.raises(inclusion.InclusionError) as err:
                    sweep(V, spec, state, taus, mode)
                errors.append(str(err.value))
            assert errors[0] == errors[1]
        y, p, tau, idx = np.full(3, 0.5), np.zeros(3), np.ones(3), np.arange(3)
        for bad in ((y, idx, p[:2], tau), (y, idx, p, tau[:2])):
            with pytest.raises(ValueError, match="fit"):
                kernel_sweep(V, spec, *bad)
        with pytest.raises(ValueError, match="fit"):
            kernel_sweep(V, spec, y, idx, p, tau, shift=spec.shift[:2])
        with pytest.raises(TypeError):
            kernel_sweep(V, spec, y, idx.astype(float), p, tau)

    def test_indices_written_after_the_call_are_checked(self):
        # The order is a writable array, V.red_black itself for a red-black
        # sweep, which a coordinate handed to Python, here by its tau of
        # NaN, may write: an index written there raises IndexError when its
        # turn comes.  In a new process, so that a crash fails this test
        # alone.
        bad = (-100000, -1, 6, 2**40)
        code = f"""if True:
            import numpy as np
            from bregsolve import _quadpass
            from bregsolve.objectives import StudentTObjective
            V = StudentTObjective(2, 3, np.zeros(6))
            tau = np.ones(6)
            tau[0] = np.nan
            for i in {bad}:
                idx = np.arange(6)

                def fallback(k, i=i):
                    idx[1] = i
                try:
                    _quadpass.load().sweep(
                        np.zeros(6), V.h, V.w, *V.phi, V.x_delta, idx,
                        np.zeros(6), 0.0, -np.inf, np.inf, np.zeros(6),
                        tau, False, fallback)
                except IndexError as err:
                    print(err)
        """
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [f"no coordinate {i}" for i in bad]

    @pytest.mark.parametrize("mode", ["keep_box", "forget_box"])
    @pytest.mark.parametrize("field", ["x", "clarke"])
    def test_replaced_problems_get_the_python_search(self, field, mode):
        # A wrapper that solves another problem in the place of each, here
        # with another x or Clarke pair: the sweep commits that problem's
        # solution, which Python searched.
        V, spec, state = red_black_setup()
        real, solved = solvers.solve_inclusion, []

        def replaced(prob, mode):
            x, (lo, hi) = prob.x, prob.clarke
            other = dataclasses.replace(prob, **(
                {"x": x + 0.25 if x < 0.5 else x - 0.25} if field == "x"
                else {"clarke": (lo, math.nextafter(hi, math.inf))}))
            solved.append(real(other, mode))
            return solved[-1]
        with mock.patch.object(solvers, "solve_inclusion", replaced), \
                counted(inclusion, "_search") as searches:
            got = bia_sweep(V, spec, state, np.full(V.n, 5.0), mode).state
        moved = [i for i, sol in enumerate(solved) if not sol.stationary]
        assert len(solved) == V.n and len(searches) >= len(moved) > 0
        assert bits(*got.p) == bits(*(sol.p_new for sol in solved))
        assert bits(*got.x[moved]) == bits(*(solved[i].y for i in moved))
