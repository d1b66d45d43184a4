"""Tests for the sweep schemes, their equivalences, and the run loop."""

import math
import stat
import subprocess
import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregsolve import _quadpass, solvers
from bregsolve.bregman import BregmanError, BregmanSpec, PrimalDualState
from bregsolve.inclusion import InclusionProblem, solve_inclusion
from bregsolve.objectives import (L1QuadraticObjective, QuadraticObjective,
                                  StudentTObjective, _QuadraticSweepContext,
                                  gaussian_system, impulse_noise,
                                  make_test_image)
from bregsolve.solvers import (InvariantViolation, SolverConfig, SolverError,
                               SweepResult, bia_sweep, blcd_sweep, bsor_sweep,
                               VARIANTS, coordinate_time_steps,
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

    def test_requires_positive_gamma(self):
        q, _ = spd_system(2, 36)
        spec = BregmanSpec.elastic_net(2, 1.0)
        state = PrimalDualState.initial(spec, np.zeros(2))
        with pytest.raises(SolverError):
            bsor_sweep(q, state, gamma=0.0, tau=2.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, -3.0, math.nan])
    def test_requires_positive_tau(self, tau):
        # tau < -2 makes the shrinkage threshold negative, which the NumPy
        # rule's shrink rejects and the C kernel would not; both refuse it.
        q, _ = spd_system(2, 36)
        state = PrimalDualState.initial(BregmanSpec.elastic_net(2, 1.0),
                                        np.ones(2))
        with pytest.raises(SolverError):
            bsor_sweep(q, state, gamma=1.0, tau=tau)
        with numpy_pass(), pytest.raises(SolverError):
            bsor_sweep(q, state, gamma=1.0, tau=tau)


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


needs_kernel = pytest.mark.skipif(_quadpass.load() is None,
                                  reason="the C kernel cannot be built here")


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
           gamma=st.floats(0.05, 2.0), tau=st.floats(0.1, 10.0),
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

    @pytest.mark.parametrize("owner, name, error", [
        (_quadpass, "compile_to", FileNotFoundError("no gcc")),
        (_quadpass, "compile_to", subprocess.CalledProcessError(1, "gcc")),
        (_quadpass.ctypes, "CDLL", OSError("cannot load")),
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

    @needs_kernel
    def test_second_load_reuses_cached_library(self, fresh_kernel_cache,
                                               monkeypatch):
        compiled = []
        real = _quadpass.compile_to
        monkeypatch.setattr(_quadpass, "compile_to",
                            lambda out: (compiled.append(out), real(out)))
        assert _quadpass.load() is not None and len(compiled) == 1
        lib, = fresh_kernel_cache.glob("quadpass-*.so")
        assert stat.S_IMODE(fresh_kernel_cache.stat().st_mode) == 0o700
        _quadpass.load.cache_clear()
        assert _quadpass.load() is not None and len(compiled) == 1
        assert list(fresh_kernel_cache.iterdir()) == [lib]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(0.05, 2.0), tau=st.floats(0.1, 10.0),
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
        q.value = lambda x: math.nan
        with pytest.raises(InvariantViolation):
            run(q, BregmanSpec.euclidean(4), np.zeros(4),
                SolverConfig("sor", max_iters=3))

    def test_objective_evaluated_once_per_sweep(self):
        # k sweeps cost k + 1 values of V, and the trace holds V itself.
        q, _ = spd_system(8, 51)
        calls = []
        value = q.value

        def counted(x):
            calls.append(x)
            return value(x)
        q.value = counted
        for variant in ("sor", "bsor", "bia", "blcd"):
            spec = BregmanSpec.euclidean(8) if variant == "sor" \
                else BregmanSpec.elastic_net(8, 1.0)
            calls.clear()
            state, records = run(q, spec, np.zeros(8),
                                 SolverConfig(variant, max_iters=5))
            assert len(records) == 5
            assert len(calls) == 6, variant
            assert records[-1].objective == value(state.x)

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

    def test_modified_scheme_keeps_membership(self):
        img = make_test_image(8, 8)
        noisy = impulse_noise(img, 0.2, seed=55)
        V = StudentTObjective(8, 8, noisy.ravel())
        spec = BregmanSpec.shifted_elastic_net(0.5, noisy.ravel())
        cfg = SolverConfig("bia_modified", tau=1.0, max_iters=10)
        state, _ = run(V, spec, noisy.ravel(), cfg)
        assert spec.membership_violation(state.x, state.p) <= 1e-9
