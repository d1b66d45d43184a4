"""Tests for objectives, difference quotients, and problem generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregsolve import solvers
from bregsolve.bregman import BregmanSpec, PrimalDualState, ScalarBregman
from bregsolve.inclusion import InclusionProblem, solve_inclusion
from bregsolve.objectives import (CoordinateObjective, L1QuadraticObjective,
                                  ObjectiveError, QuadraticObjective,
                                  StudentTObjective, add_noise,
                                  gaussian_system, impulse_noise,
                                  _symmetric, itoh_abe_discrete_gradient,
                                  make_test_image)
from bregsolve.solvers import (blcd_sweep, bsor_sweep, l1_bsor_sweep,
                               sor_sweep)


def random_quadratic(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G.T @ G + 0.1 * np.eye(n)
    b = rng.standard_normal(n)
    return QuadraticObjective(A, b), rng


class TestQuadraticObjective:
    def test_hand_value(self):
        q = QuadraticObjective(np.array([[2.0, 1.0], [1.0, 2.0]]),
                               np.array([3.0, 3.0]))
        assert q.value([1.0, 1.0]) == pytest.approx(-3.0)
        assert q.value([0.0, 0.0]) == 0.0

    def test_scalar_value(self):
        q = QuadraticObjective(np.array([[1.0]]), np.array([0.0]))
        assert q.value([2.0]) == pytest.approx(2.0)

    def test_dq_hand_values(self):
        q = QuadraticObjective(np.array([[2.0]]), np.array([0.0]))
        assert q.coord_diff_quotient([1.0], 0, 1.0, 3.0) == pytest.approx(4.0)
        # 0/0 convention: the partial derivative
        assert q.coord_diff_quotient([1.0], 0, 1.0, 1.0) == pytest.approx(2.0)

    def test_dq_cross_coordinate(self):
        q = QuadraticObjective(np.eye(2), np.zeros(2))
        assert q.coord_diff_quotient([0.0, 5.0], 1, 5.0, 2.0) \
            == pytest.approx(3.5)
        assert q.coord_diff_quotient([0.0, 5.0], 0, 0.0, 2.0) \
            == pytest.approx(1.0)

    def test_dq_matches_value_oracle(self):
        q, rng = random_quadratic(8, 0)
        for _ in range(1000):
            y = rng.standard_normal(8)
            i = int(rng.integers(0, 8))
            new = float(rng.standard_normal())
            old = float(y[i])
            got = q.coord_diff_quotient(y, i, old, new)
            y2 = y.copy()
            y2[i] = new
            want = (q.value(y2) - q.value(y)) / (new - old)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ObjectiveError):
            QuadraticObjective(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ObjectiveError):
            QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]),
                               np.zeros(2))
        with pytest.raises(ObjectiveError):
            QuadraticObjective(-np.eye(2), np.zeros(2))
        with pytest.raises(ObjectiveError):
            QuadraticObjective(np.eye(2), np.zeros(3))
        with pytest.raises(ObjectiveError):
            QuadraticObjective(np.eye(2), np.array([0.0, math.nan]))
        with pytest.raises(ObjectiveError):
            QuadraticObjective(np.array([[1.0, math.inf], [math.inf, 1.0]]),
                               np.zeros(2))

    def test_symmetric_storage(self):
        # Exactly symmetric input is stored as is; the l1 objective shares it.
        A, b, _ = gaussian_system(12, seed=5)
        q = QuadraticObjective(A, b)
        assert q.A is A
        assert L1QuadraticObjective(q, 0.4).A is q.A
        # Asymmetry within 1e-12 is symmetrised once, exactly.
        E = np.random.default_rng(5).standard_normal((12, 12))
        E -= E.T
        q = QuadraticObjective(A + 1e-14 * E, b)
        assert np.array_equal(q.A, q.A.T)
        assert np.max(np.abs(q.A - A)) <= 1e-12
        # Asymmetry above the tolerance still fails.
        with pytest.raises(ObjectiveError, match="symmetric"):
            QuadraticObjective(A + 1e-10 * E, b)
        # F-ordered input is stored as its transpose, a C-contiguous view,
        # and the closed-form sweeps on it are bitwise the C-ordered ones.
        F = np.asfortranarray(A)
        qf = QuadraticObjective(F, b)
        assert qf.A.flags.c_contiguous and np.shares_memory(qf.A, F)
        s0 = PrimalDualState.initial(BregmanSpec.elastic_net(12, 0.7),
                                     np.random.default_rng(6).normal(size=12))
        sweeps = (lambda q, s: PrimalDualState(sor_sweep(q, s.x, 1.2), s.p),
                  lambda q, s: bsor_sweep(q, s, 0.7, 2.0).state,
                  lambda q, s: l1_bsor_sweep(q, s, 0.7, 0.4, 2.0).state,
                  lambda q, s: blcd_sweep(q, s, 0.7, 1.2).state)
        for sweep in sweeps:
            want, got = s0, s0
            for _ in range(3):
                want = sweep(QuadraticObjective(A, b), want)
                got = sweep(qf, got)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.p.tobytes() == want.p.tobytes()

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
    def test_one_asymmetric_entry_is_found_in_any_tile(self, n):
        # Above and below the diagonal, in the first tile and in the last,
        # partial unless n is a multiple of 64, C- and F-ordered.
        A, b, _ = gaussian_system(n, seed=n)
        last = n - 1
        for order in "CF":
            S = np.array(A, order=order)
            q = QuadraticObjective(S, b)
            assert _symmetric(S) and np.shares_memory(q.A, S)
            for i, j in {(0, last), (last, 0), (last, last - 1),
                         (last - 1, last), (n // 2, 1)} - {(1, 1)}:
                B = S.copy(order=order)
                B[i, j] *= 1.0 + 1e-14
                assert not _symmetric(B)
                q = QuadraticObjective(B, b)
                assert q.A.tobytes() == (0.5 * (B + B.T)).tobytes()
                B[i, j] += 1.0
                assert not _symmetric(B)
                with pytest.raises(ObjectiveError, match="symmetric"):
                    QuadraticObjective(B, b)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), tile=st.integers(1, 13),
           seed=st.integers(0, 2**32 - 1),
           flips=st.lists(st.tuples(st.integers(0, 143),
                                    st.integers(0, 143)), max_size=3),
           order=st.sampled_from("CF"))
    def test_tiled_symmetry_check_is_array_equal(self, n, tile, seed, flips,
                                                 order):
        G = np.random.default_rng(seed).standard_normal((n, n))
        A = np.array(G + G.T, order=order)
        for i, j in flips:
            A[i % n, j % n] += 1.0
        assert _symmetric(A, tile) == np.array_equal(A, A.T)

    def test_residual_cache_coherence(self):
        q, rng = random_quadratic(10, 1)
        ctx = q.sweep_context(rng.standard_normal(10))
        for i in range(10):
            ctx.commit(i, float(rng.standard_normal()))
        fresh = q.A @ ctx.y - q.b
        assert np.allclose(ctx.r, fresh, rtol=1e-9, atol=1e-12)

    def test_sweep_context_dq_matches_direct(self):
        # The quadratic and the l1 quadratic share one sweep context, and
        # the student-t context binds the objective's own quotient; cover
        # old > 0, old < 0 and old == 0, with moving and stationary steps.
        q, rng = random_quadratic(12, 2)
        x = rng.standard_normal(12)
        x[::3] = 0.0
        x[1::3] = np.abs(x[1::3])
        x[2::3] = -np.abs(x[2::3])
        student_t = StudentTObjective(3, 4, np.where(x > 0, x, 0.5))
        for V in (q, L1QuadraticObjective(q, 1.3), student_t):
            ctx = V.sweep_context(x)
            for i in range(12):
                old = float(ctx.y[i])
                assert ctx.clarke(i) == pytest.approx(
                    V.coord_clarke_interval(ctx.y, i), rel=1e-12, abs=1e-12)
                new = old if i % 2 else float(rng.standard_normal())
                for move in (old, new):
                    assert ctx.dq(i)(move) == pytest.approx(
                        V.coord_diff_quotient(ctx.y, i, old, move),
                        rel=1e-12, abs=1e-12)
                ctx.commit(i, new)

    def test_clarke_intervals_are_gradient(self):
        q, rng = random_quadratic(5, 3)
        x = rng.standard_normal(5)
        lo, hi = q.clarke_intervals(x)
        g = q.A @ x - q.b
        assert np.allclose(lo, g) and np.allclose(hi, g)


class TestL1QuadraticObjective:
    def test_value(self):
        q = QuadraticObjective(np.eye(2), np.zeros(2))
        V = L1QuadraticObjective(q, 2.0)
        assert V.value([1.0, -1.0]) == pytest.approx(1.0 + 4.0)

    def test_clarke_interval_at_zero(self):
        q = QuadraticObjective(np.eye(1), np.array([0.5]))
        V = L1QuadraticObjective(q, 2.0)
        lo, hi = V.coord_clarke_interval(np.array([0.0]), 0)
        assert lo == pytest.approx(-2.5) and hi == pytest.approx(1.5)

    def test_dq_matches_value_oracle(self):
        q, rng = random_quadratic(6, 4)
        V = L1QuadraticObjective(q, 1.3)
        for _ in range(500):
            y = rng.standard_normal(6)
            i = int(rng.integers(0, 6))
            new = float(rng.standard_normal())
            got = V.coord_diff_quotient(y, i, float(y[i]), new)
            y2 = y.copy()
            y2[i] = new
            want = (V.value(y2) - V.value(y)) / (new - y[i])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_sweep_context_residual_coherence(self):
        q, rng = random_quadratic(8, 5)
        V = L1QuadraticObjective(q, 0.8)
        ctx = V.sweep_context(rng.standard_normal(8))
        for i in range(8):
            ctx.commit(i, float(rng.standard_normal()))
        assert np.allclose(ctx.r, q.A @ ctx.y - q.b, rtol=1e-9)

    def test_negative_lam_rejected(self):
        q = QuadraticObjective(np.eye(1), np.zeros(1))
        with pytest.raises(ObjectiveError):
            L1QuadraticObjective(q, -1.0)


class TestStudentTObjective:
    def test_value_zero_at_constant_clean_image(self):
        x_delta = np.full(16, 0.3)
        V = StudentTObjective(4, 4, x_delta)
        assert V.value(x_delta) == 0.0

    def test_single_filter_output(self):
        # one horizontal difference of 1, everything else flat, phi = 2
        x_delta = np.zeros(4)
        V = StudentTObjective(2, 2, x_delta, phi=(2.0, 0.0))
        x = np.array([0.0, 1.0, 0.0, 1.0])  # both rows have dx = 1
        # value = 2*(log 2 + log 2) + l1 term 2
        assert V.value(x) == pytest.approx(4.0 * math.log(2.0) + 2.0)

    def test_l1_term_alone(self):
        x_delta = np.full(9, 0.5)
        V = StudentTObjective(3, 3, x_delta, phi=(0.0, 0.0))
        x = x_delta.copy()
        x[4] += 0.5
        assert V.value(x) == pytest.approx(0.5)

    def test_dq_pure_l1_sign(self):
        V = StudentTObjective(1, 1, np.zeros(1))
        y = np.zeros(1)
        assert V.coord_diff_quotient(y, 0, 0.0, 0.25) == pytest.approx(1.0)
        assert V.coord_diff_quotient(y, 0, 0.0, -0.25) == pytest.approx(-1.0)

    def test_dq_matches_value_oracle(self):
        rng = np.random.default_rng(6)
        x_delta = rng.uniform(0, 1, 64)
        V = StudentTObjective(8, 8, x_delta)
        for _ in range(500):
            y = rng.uniform(-0.5, 1.5, 64)
            i = int(rng.integers(0, 64))
            new = float(rng.uniform(-0.5, 1.5))
            old = float(y[i])
            if abs(new - old) < 1e-6:
                continue
            got = V.coord_diff_quotient(y, i, old, new)
            y2 = y.copy()
            y2[i] = new
            want = (V.value(y2) - V.value(y)) / (new - old)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_dq_stationary_returns_clarke_midpoint(self):
        rng = np.random.default_rng(7)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        y = rng.uniform(0, 1, 16)
        y[5] = x_delta[5] + 0.1  # single-valued Clarke interval
        lo, hi = V.coord_clarke_interval(y, 5)
        assert lo == hi
        assert V.coord_diff_quotient(y, 5, y[5], y[5]) == pytest.approx(lo)

    def test_clarke_interval_at_data_kink(self):
        rng = np.random.default_rng(8)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        y = rng.uniform(0, 1, 16)
        y[9] = x_delta[9]
        lo, hi = V.coord_clarke_interval(y, 9)
        assert hi - lo == pytest.approx(2.0)

    def test_vectorized_clarke_matches_per_coordinate(self):
        # Reference: the base-class loop over coord_clarke_interval.  Exact
        # kinks (x == x_delta for student-t, x == 0 for l1) are included.
        rng = np.random.default_rng(9)
        x_delta = rng.uniform(0, 1, 48)
        x = rng.uniform(0, 1, 48)
        x[::4] = x_delta[::4]
        q, _ = random_quadratic(48, 9)
        xq = rng.standard_normal(48)
        xq[::4] = 0.0
        cases = ((StudentTObjective(6, 8, x_delta), x),
                 (L1QuadraticObjective(q, 1.3), xq), (q, xq))
        for V, point in cases:
            lo, hi = V.clarke_intervals(point)
            lo2, hi2 = CoordinateObjective.clarke_intervals(V, point)
            assert np.any(hi2 > lo2) or V is q
            assert lo == pytest.approx(lo2, abs=1e-12)
            assert hi == pytest.approx(hi2, abs=1e-12)

    def test_dq_accurate_at_tiny_steps(self):
        # the quotient must converge to the one-sided derivative, not to
        # rounding noise, as the step shrinks
        rng = np.random.default_rng(10)
        x_delta = rng.uniform(0, 1, 16)
        V = StudentTObjective(4, 4, x_delta)
        y = rng.uniform(0, 1, 16)
        i = 5
        old = float(y[i])
        lo, hi = V.coord_clarke_interval(y, i)
        for step in (1e-6, 1e-9, 1e-12):
            got = V.coord_diff_quotient(y, i, old, old + step)
            assert got == pytest.approx(hi, abs=1e-4)

    def test_dimension_validation(self):
        with pytest.raises(ObjectiveError):
            StudentTObjective(4, 4, np.zeros(15))
        with pytest.raises(ObjectiveError, match="h, w >= 1"):
            StudentTObjective(-2, -2, np.zeros(4))
        with pytest.raises(ObjectiveError):
            StudentTObjective(2, 2, np.zeros(4), phi=(-1.0, 1.0))


def random_stencil(h, w, seed, phi):
    """A student-t objective on an h x w image and a point y on which about
    a third of the pixels sit on their data kink."""
    rng = np.random.default_rng(seed)
    x_delta = rng.uniform(-1.0, 2.0, h * w)
    y = rng.uniform(-1.0, 2.0, h * w)
    on_kink = rng.random(h * w) < 1 / 3
    y[on_kink] = x_delta[on_kink]
    return StudentTObjective(h, w, x_delta, phi=phi), y, rng


def quotient_oracle(V, y, i, old, new):
    """The student-t quotient as it was written before it became one
    method: neighbours read by ``float(y[k])``, the data term against the
    array's own scalar, then ``delta / (new - old)``."""
    if abs(new - old) <= 1e-14 * max(1.0, abs(old)):
        lo, hi = V.coord_clarke_interval(y, i)
        return 0.5 * (lo + hi)
    r, c = divmod(i, V.w)
    terms = [(V.phi[k], float(y[j])) for k, j, inside in (
        (0, i + 1, c + 1 < V.w), (0, i - 1, c > 0),
        (1, i + V.w, r + 1 < V.h), (1, i - V.w, r > 0)) if inside]
    step, delta = new - old, 0.0
    for wgt, nb in terms:
        d_old = old - nb
        d_new = d_old + step
        delta += wgt * math.log1p(step * (d_new + d_old)
                                  / (1.0 + d_old * d_old))
    d_old, d_new = old - V.x_delta[i], new - V.x_delta[i]
    if d_old >= 0 and d_new >= 0:
        delta += step
    elif d_old <= 0 and d_new <= 0:
        delta -= step
    else:
        delta += (d_new + d_old) if d_new > 0 else -(d_new + d_old)
    return delta / (new - old)


class TestStudentTQuotient:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (1, 5), (5, 1), (4, 5)]),
           seed=st.integers(0, 2**32 - 1))
    def test_sweep_quotient_is_the_objective_quotient_bitwise(self, shape,
                                                               seed):
        # Every pixel: corners, edges and the interior.  Moves: none, one
        # ulp either way, just past the stationary threshold, onto and
        # across the data kink, and a random one.
        V, y, rng = random_stencil(*shape, seed, (2.0, 3.0))
        ctx = V.sweep_context(y)
        for i in range(V.n):
            old, s = y.item(i), V.x_delta.item(i)
            tiny = 2e-14 * max(1.0, abs(old))
            news = [old, math.nextafter(old, math.inf),
                    math.nextafter(old, -math.inf), old + tiny, old - tiny,
                    s, 2.0 * s - old, s + 0.1, s - 0.1,
                    float(rng.uniform(-1.0, 2.0))]
            dq = ctx.dq(i)
            for new in news:
                want = V.coord_diff_quotient(y, i, old, new)
                assert float(dq(new)).hex() == float(want).hex() \
                    == float(quotient_oracle(V, y, i, old, new)).hex() \
                    == V.coord_diff_quotient(y.tolist(), i, old, new).hex()
        with pytest.raises(ObjectiveError, match="length"):
            V.coord_diff_quotient(y.tolist()[1:], 0, 0.0, 1.0)

    def test_stationary_solve_reads_no_stencil(self, monkeypatch):
        # A constant image on its data: 0 is in every Clarke interval, so
        # the update is stationary and needs no quotient.
        V = StudentTObjective(3, 3, np.full(9, 0.5))
        reads, quotient = [], StudentTObjective._quotient
        monkeypatch.setattr(StudentTObjective, "_quotient",
                            lambda self, y, i, old, new: reads.append(i)
                            or quotient(self, y, i, old, new))
        ctx = V.sweep_context(np.full(9, 0.5))
        prob = InclusionProblem(ScalarBregman(), 0.5, 0.5, 1.0,
                                ctx.dq(4), (-1.0, 1.0))
        for solve in (solve_inclusion, solvers.solve_inclusion):
            assert solve(prob).stationary and reads == []
        # A moving quotient reads its pixel's stencil at each call.
        for new in (0.7, 0.9):
            prob.dq(new)
        assert reads == [4, 4]


class TestStudentTColours:
    def test_colours_split_the_stencil(self):
        V = StudentTObjective(5, 7, np.zeros(35), phi=(2.0, 3.0))
        y = np.arange(35.0)     # each neighbour value is its index
        for pix in V.colours:
            mine = set(pix.tolist())
            for i in pix.tolist():
                assert not mine & {int(y[i + d]) for _, d in V.stencil[i]}
        assert sorted(np.concatenate(V.colours)) == list(range(35))

    @settings(max_examples=50, deadline=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1),
           phi=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)))
    def test_clarke_intervals_match_scalar_bitwise(self, h, w, seed, phi):
        V, y, _ = random_stencil(h, w, seed, phi)
        lo, hi = V.clarke_intervals(y)
        for i in range(V.n):
            want = V.coord_clarke_interval(y, i)
            assert [v.hex() for v in (lo.item(i), hi.item(i))] \
                == [float(v).hex() for v in want] \
                == [v.hex() for v in V.coord_clarke_interval(y.tolist(), i)]
        with pytest.raises(ObjectiveError, match="length"):
            V.coord_clarke_interval(y.tolist() + [0.0], 0)


class TestMeanValueIdentity:
    def test_quadratic(self):
        q, rng = random_quadratic(12, 11)
        for _ in range(50):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            dq = itoh_abe_discrete_gradient(q, x, y)
            lhs = float(dq @ (y - x))
            rhs = q.value(y) - q.value(x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_student_t(self):
        rng = np.random.default_rng(12)
        x_delta = rng.uniform(0, 1, 36)
        V = StudentTObjective(6, 6, x_delta)
        for _ in range(20):
            x = rng.uniform(0, 1, 36)
            y = rng.uniform(0, 1, 36)
            dq = itoh_abe_discrete_gradient(V, x, y)
            assert float(dq @ (y - x)) == pytest.approx(
                V.value(y) - V.value(x), rel=1e-9, abs=1e-9)


class TestGenerators:
    def test_gaussian_system_deterministic(self):
        A1, b1, x1 = gaussian_system(32, 0.1, False, seed=5)
        A2, b2, x2 = gaussian_system(32, 0.1, False, seed=5)
        assert np.array_equal(A1, A2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(x1, x2)

    def test_support_count(self):
        _, _, x_true = gaussian_system(256, 0.1, False, seed=0)
        assert int(np.count_nonzero(x_true)) == 26

    def test_full_sparsity(self):
        _, _, x_true = gaussian_system(16, 1.0, False, seed=0)
        assert np.count_nonzero(x_true) == 16

    def test_binary_ground_truth(self):
        _, _, x_true = gaussian_system(64, 0.2, True, seed=1)
        nz = x_true[x_true != 0]
        assert np.all(nz == 1.0)

    def test_system_consistency(self):
        A, b, x_true = gaussian_system(24, 0.25, False, seed=2)
        assert np.allclose(A, A.T)
        assert np.all(np.diag(A) > 0)
        assert np.allclose(b, A @ x_true)

    def test_invalid_args(self):
        with pytest.raises(ObjectiveError):
            gaussian_system(0, 0.1)
        with pytest.raises(ObjectiveError):
            gaussian_system(8, 0.0)

    def test_add_noise_zero_level(self):
        A, b, x_true = gaussian_system(8, 0.5, False, seed=3)
        out = add_noise(b, A, x_true, 0.0, seed=9)
        assert np.array_equal(out, b)
        assert out is not b

    def test_add_noise_deterministic(self):
        A, b, x_true = gaussian_system(8, 0.5, False, seed=3)
        n1 = add_noise(b, A, x_true, 0.1, seed=4)
        n2 = add_noise(b, A, x_true, 0.1, seed=4)
        assert np.array_equal(n1, n2)

    def test_noise_std_monte_carlo(self):
        # the noise std is level * max|A x_true|; estimate it empirically
        # on a large vector
        n = 100_000
        A = np.eye(2)
        x_true = np.array([2.0, 1.0])
        level = 0.1
        noisy = add_noise(np.zeros(n), A, x_true, level, seed=14)
        assert float(np.std(noisy)) == pytest.approx(level * 2.0, rel=0.02)

    def test_impulse_noise_exact_count(self):
        img = make_test_image(64, 64)
        noisy = impulse_noise(img, 0.1, seed=15)
        changed = np.count_nonzero(noisy != img)
        # corrupted pixels may coincide with their old value, so the
        # changed count is bounded by the corruption count
        assert changed <= 410
        # count the pixels drawn for corruption directly via determinism
        n2 = impulse_noise(img, 0.1, seed=15)
        assert np.array_equal(noisy, n2)
        corrupted = noisy != img
        assert np.all(np.isin(noisy[corrupted], [0.0, 1.0]))

    def test_impulse_density_extremes(self):
        img = make_test_image(8, 8)
        assert np.array_equal(impulse_noise(img, 0.0, seed=0), img)
        allc = impulse_noise(img, 1.0, seed=0)
        assert np.all(np.isin(allc, [0.0, 1.0]))

    def test_make_test_image_range(self):
        img = make_test_image()
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert len(np.unique(img)) >= 3
