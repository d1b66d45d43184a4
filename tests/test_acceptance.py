"""End-to-end acceptance suite.

Each test covers one acceptance criterion and writes a single
``criterion N: PASS/FAIL`` summary line directly to the terminal (bypassing
pytest capture) so a full run yields a ten-line scoreboard.
"""

import contextlib
import math
import sys
import time

import numpy as np
import pytest

from bregsolve.bregman import BregmanSpec, PrimalDualState
from bregsolve.cli import (build_experiment, child_seed, main,
                           reference_values, solver_config, solver_spec)
from bregsolve.io_utils import read_pgm, read_trace, write_pgm, write_trace
from bregsolve.metrics import TraceRecord, relative_objective, support_stats
from bregsolve.objectives import (L1QuadraticObjective, QuadraticObjective,
                                  StudentTObjective, impulse_noise,
                                  make_test_image)
from bregsolve.solvers import (SolverConfig, bia_sweep, blcd_sweep,
                               bsor_sweep, l1_bsor_sweep, make_sweeper, run,
                               sor_sweep, ia_sweep, stationarity_residual)


def _emit(line: str) -> None:
    # Immediate feedback when capture is off (-s) ...
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    # ... and a guaranteed scoreboard in the terminal summary otherwise.
    from conftest import SCOREBOARD
    SCOREBOARD.append(line)


@contextlib.contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"criterion {num:2d}: FAIL — {desc}")
        raise
    _emit(f"criterion {num:2d}: PASS — {desc} "
          f"({time.perf_counter() - t0:.1f}s)")


def spd_system(n, seed, ridge=0.1):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return QuadraticObjective(G.T @ G + ridge * np.eye(n),
                              rng.standard_normal(n)), rng


def assert_dissipative(records):
    for r in records:
        assert r.dissipation_slack >= -1e-9 * max(1.0, abs(r.objective))


def assert_monotone(records):
    objs = [r.objective for r in records]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a))


def gaussian_params(preset, seed, **over):
    params = dict(preset=preset, seed=seed, iters=200, stop_tol=0.0,
                  omega=1.0, gamma=1.0, tau=2.0, n=256, sparsity=0.1,
                  binary_gt=(preset == "gaussian_noiseless_binary"),
                  noise_level=0.1 if "noisy" in preset else 0.0,
                  lam=25.0 if preset == "gaussian_noisy_l1" else 0.0,
                  solvers=[])
    params.update(over)
    return params


def run_variant(exp, params, variant, **over):
    cfg = solver_config(variant, params, **over)
    return run(exp.V, solver_spec(variant, exp), exp.x0, cfg)


# ---------------------------------------------------------------------------
# Criterion 5 runs are reused by criterion 9, so cache them per seed.
# ---------------------------------------------------------------------------

_C5_CACHE: dict[int, tuple] = {}


def noiseless_runs(seed):
    if seed not in _C5_CACHE:
        params = gaussian_params("gaussian_noiseless", seed, iters=3000)
        exp = build_experiment(params)
        out = {}
        for variant in ("sor", "bsor"):
            cfg = solver_config(variant, params)
            out[variant] = run(exp.V, solver_spec(variant, exp), exp.x0,
                               cfg, xstar=exp.xstar)
        _C5_CACHE[seed] = (exp, out)
    return _C5_CACHE[seed]


def first_sweep(records, pred):
    for rec in records:
        if pred(rec):
            return rec.iter
    return None


def test_criterion_1_dissipation_everywhere():
    with criterion(1, "per-sweep energy dissipation holds for every "
                      "applicable solver/problem pairing"):
        t0 = time.perf_counter()
        gaussian_variants = ("sor", "gauss_seidel", "ia", "bia",
                            "bia_modified", "bsor", "blcd")
        for preset in ("gaussian_noiseless", "gaussian_noiseless_binary",
                       "gaussian_noisy"):
            params = gaussian_params(preset, seed=11, n=64, iters=12)
            exp = build_experiment(params)
            for variant in gaussian_variants:
                _, recs = run_variant(exp, params, variant)
                assert_dissipative(recs)
        params = gaussian_params("gaussian_noisy_l1", seed=11, n=64,
                                 iters=12, gamma=0.1)
        exp = build_experiment(params)
        for variant in ("ia", "bia", "bia_modified", "l1_bsor"):
            _, recs = run_variant(exp, params, variant)
            assert_dissipative(recs)
        noisy = impulse_noise(make_test_image(32, 32), 0.1, seed=11)
        V = StudentTObjective(32, 32, noisy.ravel())
        spec = BregmanSpec.shifted_elastic_net(0.5, noisy.ravel())
        for variant in ("ia", "bia", "bia_modified"):
            s = BregmanSpec.euclidean(spec.n) if variant == "ia" else spec
            cfg = SolverConfig(variant, tau=1.0, max_iters=12, stop_tol=0.0)
            _, recs = run(V, s, noisy.ravel(), cfg)
            assert_dissipative(recs)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_subgradient_membership():
    with criterion(2, "dual iterates stay in the subdifferential after "
                      "every one of 200 sweeps"):
        n = 64
        q, _ = spd_system(n, 21)
        setups = {
            "bia": (q, BregmanSpec.elastic_net(n, 1.0)),
            "bia_modified": (q, BregmanSpec.elastic_net(n, 1.0)),
            "bsor": (q, BregmanSpec.elastic_net(n, 1.0)),
            "l1_bsor": (L1QuadraticObjective(q, 5.0),
                        BregmanSpec.elastic_net(n, 1.0)),
        }
        for variant, (V, spec) in setups.items():
            cfg = SolverConfig(variant, tau=2.0, max_iters=200, stop_tol=0.0)
            sweep = make_sweeper(V, spec, cfg)
            state = PrimalDualState.initial(spec, np.zeros(n))
            for _ in range(200):
                state = sweep(state).state
                assert spec.contains_subgradient(state.x, state.p, 1e-9)


def test_criterion_3_equivalence_triangle():
    with criterion(3, "relaxation, implicit-step, and explicit coordinate "
                      "sweeps coincide to 1e-12 under the parameter map"):
        for omega in (0.5, 1.0, 1.5):
            q, rng = spd_system(16, 34)
            x0 = rng.standard_normal(16)
            taus = 2.0 * omega / ((2.0 - omega) * q.diag)
            alphas = omega / q.diag
            x_sor = x0.copy()
            st_ia = PrimalDualState.initial(BregmanSpec.euclidean(16), x0)
            x_cd = x0.copy()
            gap = 0.0
            for _ in range(100):
                x_sor = sor_sweep(q, x_sor, omega)
                st_ia = ia_sweep(q, st_ia, taus).state
                for i in range(16):
                    g = float(q.A[i] @ x_cd - q.b[i])
                    x_cd[i] -= alphas[i] * g
                gap = max(gap,
                          float(np.max(np.abs(x_sor - st_ia.x))),
                          float(np.max(np.abs(x_sor - x_cd))))
            assert gap <= 1e-12


def test_criterion_4_closed_forms_match_oracle():
    with criterion(4, "closed-form sweeps match the root-solved implicit "
                      "step (shrinkage, l1 cases, linearised step)"):
        # shrinkage sweep vs implicit sweep, 50 sweeps
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
        # l1 closed form vs scalar inclusion, 10^4 randomized instances
        rng = np.random.default_rng(38)
        for _ in range(10_000):
            aii = float(rng.uniform(0.2, 5.0))
            g = float(rng.uniform(-5.0, 5.0))
            gamma = float(rng.uniform(0.1, 2.0))
            lam = float(rng.uniform(0.0, 3.0))
            tau = float(rng.uniform(0.2, 4.0))
            x = 0.0 if rng.random() < 0.4 else float(rng.uniform(-2, 2))
            r = (float(rng.uniform(-1, 1)) if x == 0.0
                 else math.copysign(1.0, x))
            qs = QuadraticObjective(np.array([[aii]]),
                                    np.array([aii * x - g]))
            sspec = BregmanSpec.elastic_net(1, gamma)
            state = PrimalDualState(np.array([x]), np.array([x + gamma * r]))
            Vl = L1QuadraticObjective(qs, lam)
            res = l1_bsor_sweep(qs, state, gamma, lam, tau)
            oracle = bia_sweep(Vl, sspec, state, np.array([tau / aii]))
            assert abs(res.state.x[0] - oracle.state.x[0]) <= 1e-8
            assert abs(res.state.p[0] - oracle.state.p[0]) <= 1e-8
        # linearised coordinate step under its parameter map
        q, _ = spd_system(10, 42)
        alpha, gamma = 1.3, 1.0
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


def test_criterion_5_noiseless_sparse_recovery():
    with criterion(5, "sparse shrinkage sweep identifies the support in "
                      "fewer sweeps than plain relaxation (5 seeds)"):
        t0 = time.perf_counter()
        wins = 0
        for seed in range(1, 6):
            exp, out = noiseless_runs(seed)
            v0, vstar = exp.V.value(exp.x0), exp.V.value(exp.xstar)
            ks = {v: first_sweep(recs, lambda r: r.support_error <= 0.01)
                  for v, (_, recs) in out.items()}
            if ks["bsor"] is not None and (ks["sor"] is None
                                           or ks["bsor"] < ks["sor"]):
                wins += 1
            rel50 = {v: relative_objective(recs[49].objective, v0, vstar)
                     for v, (_, recs) in out.items()}
            assert rel50["bsor"] <= rel50["sor"]
        assert wins >= 4
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_noisy_unregularised():
    with criterion(6, "with noisy data both sweeps stay monotone and "
                      "dissipative (no speed-up claimed)"):
        for seed in range(1, 6):
            params = gaussian_params("gaussian_noisy", seed, iters=100)
            exp = build_experiment(params)
            for variant in ("sor", "bsor"):
                _, recs = run_variant(exp, params, variant)
                assert_monotone(recs)
                assert_dissipative(recs)


def test_criterion_7_l1_regularised_ordering():
    with criterion(7, "l1-regularised problem: sparse closed-form sweep "
                      "reaches rel. objective 1e-4 first (5 seeds)"):
        wins = 0
        for seed in range(1, 6):
            params = gaussian_params("gaussian_noisy_l1", seed, iters=400,
                                     gamma=0.1)
            exp = build_experiment(params)
            v0 = exp.V.value(exp.x0)
            vstar = reference_values(exp, params)
            traces = {}
            for variant in ("ia", "l1_bsor"):
                _, recs = run_variant(exp, params, variant)
                vstar = min([vstar] + [r.objective for r in recs])
                traces[variant] = recs
            ks = {}
            for variant, recs in traces.items():
                rels = [relative_objective(r.objective, v0, vstar)
                        for r in recs]
                ks[variant] = next((i + 1 for i, rl in enumerate(rels)
                                    if rl <= 1e-4), None)
            if ks["l1_bsor"] is not None and (ks["ia"] is None
                                              or ks["l1_bsor"] < ks["ia"]):
                wins += 1
        assert wins >= 4


def test_criterion_8_student_t_denoising():
    with criterion(8, "64x64 denoising: sparse implicit sweep reaches "
                      "rel. objective 0.1 first; traces monotone, gradient "
                      "distance trend nonincreasing (5 seeds)"):
        wins = 0
        for seed in range(1, 6):
            params = dict(preset="student_t_denoise", seed=seed, iters=40,
                          stop_tol=0.0, omega=1.0, gamma=0.5, tau=1.0,
                          phi=2.0, density=0.1, image=None, solvers=[])
            exp = build_experiment(params)
            v0 = exp.V.value(exp.x0)
            traces = {}
            for variant in ("ia", "bia"):
                _, recs = run_variant(exp, params, variant)
                traces[variant] = recs
            vstar = min(r.objective for recs in traces.values()
                        for r in recs)
            ks = {}
            for variant, recs in traces.items():
                assert_monotone(recs)
                gd = [r.grad_dist for r in recs]
                win_avg = [float(np.mean(gd[j:j + 20]))
                           for j in range(len(gd) - 19)]
                for a, b in zip(win_avg, win_avg[1:]):
                    assert b <= a + 1e-9 * max(1.0, a)
                rels = [relative_objective(r.objective, v0, vstar)
                        for r in recs]
                ks[variant] = next((i + 1 for i, rl in enumerate(rels)
                                    if rl <= 0.1), None)
            if ks["bia"] is not None and (ks["ia"] is None
                                          or ks["bia"] < ks["ia"]):
                wins += 1
        assert wins >= 4


def test_criterion_9_stationarity_at_termination():
    with criterion(9, "first-order stationarity residual at the stagnated "
                      "iterate is below 1e-5 (5 seeds)"):
        for seed in range(1, 6):
            exp, out = noiseless_runs(seed)
            state, _ = out["bsor"]
            res = stationarity_residual(exp.V, state.x, exp.spec)
            assert float(np.max(res)) <= 1e-5


def test_criterion_10_property_suite(tmp_path):
    with criterion(10, "condensed property suite: mean-value identity, "
                       "resolvent oracle, residual cache, determinism, "
                       "file round-trips, under the time budget"):
        t0 = time.perf_counter()

        # Mean-value identity: coordinate difference quotients integrate
        # the objective difference exactly.
        rng = np.random.default_rng(101)
        q, _ = spd_system(8, 101)
        Vs = [q, L1QuadraticObjective(q, 1.5),
              StudentTObjective(4, 4, rng.uniform(0, 1, 16))]
        for V in Vs:
            n = q.n if not isinstance(V, StudentTObjective) else 16
            for _ in range(50):
                x = rng.standard_normal(n)
                y = x + rng.standard_normal(n) * 0.5
                total = 0.0
                z = x.copy()
                for i in range(n):
                    dq = V.coord_diff_quotient(z, i, x[i], y[i])
                    total += dq * (y[i] - x[i])
                    z[i] = y[i]
                want = V.value(y) - V.value(x)
                assert abs(total - want) <= 1e-8 * max(1.0, abs(want))

        # Shrink resolvent oracle: the scalar implicit step minimises the
        # sampled local model on a fine grid.
        from bregsolve.bregman import ScalarBregman
        from bregsolve.inclusion import InclusionProblem, solve_inclusion
        for _ in range(100):
            gamma = float(rng.uniform(0.0, 2.0))
            a = float(rng.uniform(0.2, 4.0))
            g = float(rng.uniform(-4.0, 4.0))
            tau = float(rng.uniform(0.2, 3.0))
            x = float(rng.uniform(-2.0, 2.0))
            r = float(rng.uniform(-1, 1)) if x == 0 \
                else math.copysign(1.0, x)
            sb = ScalarBregman(gamma=gamma)
            p = x + gamma * r

            def dq(y, x=x, a=a, g=g):
                return g + 0.5 * a * (y - x)

            prob = InclusionProblem(sb, x, p, tau, dq, (g, g))
            sol = solve_inclusion(prob)

            def total(y):
                v_local = g * (y - x) + 0.25 * a * (y - x) ** 2
                j = 0.5 * y * y + gamma * abs(y)
                return tau * v_local + j - p * (y - x) - 0.5 * x * x \
                    - gamma * abs(x)

            grid = np.linspace(x - 4.0, x + 4.0, 4001)
            vals = [total(t) for t in grid]
            assert total(sol.y) <= min(vals) + 1e-6

        # Residual cache coherence across a full sweep.
        qc, rngc = spd_system(12, 103)
        spec = BregmanSpec.elastic_net(12, 0.7)
        state = PrimalDualState.initial(spec, rngc.standard_normal(12))
        for _ in range(5):
            state = bsor_sweep(qc, state, gamma=0.7, tau=2.0).state
            assert np.allclose(qc.A @ state.x - qc.b,
                               qc.A @ state.x.copy() - qc.b, atol=0)

        # Determinism of the experiment runner, wall-clock column aside.
        args = ["--preset", "gaussian_noiseless", "--n", "24", "--seed",
                "5", "--solvers", "bsor", "--iters", "15"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        la = (tmp_path / "a" / "gaussian_noiseless_bsor.csv") \
            .read_text().splitlines()
        lb = (tmp_path / "b" / "gaussian_noiseless_bsor.csv") \
            .read_text().splitlines()
        assert len(la) == len(lb)
        assert all(x.rsplit(",", 1)[0] == y.rsplit(",", 1)[0]
                   for x, y in zip(la, lb))

        # CSV and PGM round trips.
        recs = [TraceRecord(iter=k + 1, objective=5.0 - k,
                            rel_objective=0.25, support_match=0.8,
                            support_error=0.2, grad_dist=1.0,
                            step_norm=0.1, dissipation_slack=0.0,
                            wall_ms=1.0) for k in range(4)]
        write_trace(tmp_path / "t.csv", recs, {"seed": 5})
        manifest, back = read_trace(tmp_path / "t.csv")
        assert manifest["seed"] == "5"
        assert [r.row() for r in back] == [r.row() for r in recs]
        img = make_test_image(16, 16)
        write_pgm(tmp_path / "i.pgm", img)
        back_img = read_pgm(tmp_path / "i.pgm")
        assert np.max(np.abs(back_img - img)) <= 0.5 / 255.0 + 1e-12

        assert time.perf_counter() - t0 < 300.0
