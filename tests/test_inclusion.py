"""Tests for the scalar inclusion solver."""

import math

import numpy as np
import pytest

from bregsolve.bregman import (ScalarBregman, elastic_net_piece,
                               euclidean_piece)
from bregsolve.inclusion import (DivergenceError, InclusionError,
                                 InclusionProblem, solve_inclusion)


def quadratic_dq(g, a, x):
    """Difference quotient of the scalar quadratic g*(y-x) mapping:
    v(y) = g*(y - x) + a*(y - x)^2/2 up to a constant."""
    def dq(y):
        return g + 0.5 * a * (y - x)
    return dq


def make_problem(sb, x, p, tau, g, a):
    return InclusionProblem(sb=sb, x=x, p=p, tau=tau,
                            dq=quadratic_dq(g, a, x), clarke=(g, g))


def check_solution(prob, sol, tol=1e-9):
    lo, hi = prob.sb.subdiff_interval(sol.y)
    assert lo - tol <= sol.p_new <= hi + tol
    if not sol.stationary:
        target = prob.p - prob.tau * prob.dq(sol.y)
        assert abs(sol.p_new - target) <= tol * max(1.0, abs(prob.p))


class TestBasicSolutions:
    def test_euclidean_hand_example(self):
        # v(y) = y^2/2, j euclidean, x=1, p=1, tau=1:
        # 1 - (y+1)/2 = y  =>  y = 1/3
        prob = make_problem(euclidean_piece(), 1.0, 1.0, 1.0,
                            g=1.0, a=1.0)
        sol = solve_inclusion(prob)
        assert sol.y == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert sol.p_new == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert not sol.stationary

    def test_stationary_when_zero_in_clarke(self):
        prob = InclusionProblem(sb=euclidean_piece(), x=0.5, p=0.5,
                                tau=1.0, dq=lambda y: 0.0,
                                clarke=(-1.0, 1.0))
        sol = solve_inclusion(prob)
        assert sol.stationary
        assert sol.y == 0.5
        assert sol.p_new == 0.5  # v = 0 chosen (minimal magnitude)

    def test_stationary_at_elastic_net_kink(self):
        # descent pressure absorbed by the kink: p - tau*v stays in [-1,1]
        sb = elastic_net_piece(1.0, lower=0.0)
        prob = InclusionProblem(sb=sb, x=0.0, p=-1.0, tau=1.0,
                                dq=lambda y: -1.0, clarke=(-1.0, -1.0))
        sol = solve_inclusion(prob)
        assert sol.stationary
        assert sol.y == 0.0
        check_solution(prob, sol)

    def test_nonstationary_moves_downhill(self):
        prob = make_problem(euclidean_piece(), 0.0, 0.0, 1.0, g=2.0, a=1.0)
        sol = solve_inclusion(prob)
        assert sol.y < 0.0  # positive slope means descent to the left
        check_solution(prob, sol)
        assert prob.dq(sol.y) * (sol.y - prob.x) <= 1e-12

    def test_invalid_inputs(self):
        for tau in (-1.0, math.nan):
            with pytest.raises(InclusionError):
                make_problem(euclidean_piece(), 0.0, 0.0, tau, 1.0, 1.0)
        with pytest.raises(InclusionError):
            make_problem(euclidean_piece(lower=0.0), -1.0, 0.0, 1.0,
                         1.0, 1.0)
        prob = make_problem(euclidean_piece(), 0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(InclusionError):
            solve_inclusion(prob, mode="bogus")


class TestBoxHandling:
    def test_root_clamped_at_box_edge(self):
        # strong downhill pull but the box stops at 0
        sb = euclidean_piece(lower=0.0, upper=10.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob)
        assert sol.y == pytest.approx(0.0, abs=1e-9)
        check_solution(prob, sol)

    def test_forget_box_strips_normal_cone(self):
        sb = euclidean_piece(lower=0.0, upper=10.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob, mode="forget_box")
        lo, hi = sb.j_interval(sol.y)
        assert lo - 1e-9 <= sol.p_new <= hi + 1e-9

    def test_degenerate_box_is_stationary(self):
        sb = euclidean_piece(lower=1.0, upper=1.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob)
        assert sol.y == 1.0
        assert sol.stationary


class TestDivergence:
    def test_unbounded_ray_raises(self):
        # dq tends to a negative constant: residual never changes sign,
        # the objective decreases forever along the ray
        prob = InclusionProblem(sb=euclidean_piece(), x=0.0, p=0.0,
                                tau=1.0, dq=lambda y: -1.0 - abs(y),
                                clarke=(-1.0, -1.0))
        # p - tau*dq(y) - y = 1 + |y| - y -> never 0 for y > 0; and the
        # descent side is positive, so expansion must hit the cap.
        with pytest.raises(DivergenceError):
            solve_inclusion(prob)


class TestDeterminism:
    def test_delta0_insensitivity_convex(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            sb = elastic_net_piece(float(rng.uniform(0, 2)))
            x = float(rng.uniform(-2, 2))
            lo, hi = sb.subdiff_interval(x)
            p = float(rng.uniform(lo, hi))
            g = float(rng.uniform(-3, 3))
            a = float(rng.uniform(0.1, 3))
            prob = make_problem(sb, x, p, float(rng.uniform(0.1, 3)), g, a)
            s1 = solve_inclusion(prob, delta0=1e-8)
            s2 = solve_inclusion(prob, delta0=1e-5)
            assert s1.y == pytest.approx(s2.y, abs=1e-8)


class TestGridOracle:
    def grid_argmin(self, sb, x, p, tau, g, a):
        """Two-stage grid argmin of v(y) + D(x, y)/tau over the box,
        where v is the local quadratic model integrated from its
        difference quotient."""
        def total(y):
            v = g * (y - x) + 0.25 * a * (y - x) ** 2
            d = sb.j_value(y) - sb.j_value(x) - p * (y - x)
            return tau * v + d

        lo = max(sb.lower, x - 50.0)
        hi = min(sb.upper, x + 50.0)
        grid = np.linspace(lo, hi, 20001)
        vals = np.array([total(y) for y in grid])
        c = grid[np.argmin(vals)]
        span = (hi - lo) / 20000 * 2
        fine = np.linspace(max(lo, c - span), min(hi, c + span), 20001)
        vals = np.array([total(y) for y in fine])
        c = fine[np.argmin(vals)]
        span2 = span / 10000 * 2
        fine2 = np.linspace(max(lo, c - span2), min(hi, c + span2), 20001)
        vals = np.array([total(y) for y in fine2])
        return fine2[np.argmin(vals)]

    def test_matches_grid_argmin(self):
        # For the implicit coordinate step with a quadratic model,
        # the solved y minimizes tau*v(y) + D_J(x, y); compare against a
        # refined grid scan on random convex instances.
        rng = np.random.default_rng(22)
        count = 0
        while count < 60:
            gamma = float(rng.uniform(0, 2))
            sb = elastic_net_piece(gamma)
            x = float(rng.uniform(-2, 2))
            slo, shi = sb.subdiff_interval(x)
            p = float(rng.uniform(slo, shi))
            g = float(rng.uniform(-3, 3))
            a = float(rng.uniform(0.1, 3))
            tau = float(rng.uniform(0.1, 3))
            prob = make_problem(sb, x, p, tau, g, a)
            sol = solve_inclusion(prob)
            want = self.grid_argmin(sb, x, p, tau, g, a)
            assert sol.y == pytest.approx(want, abs=1e-6)
            check_solution(prob, sol)
            count += 1

    def test_matches_grid_argmin_with_box(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            gamma = float(rng.uniform(0, 2))
            lo = float(rng.uniform(-3, 0))
            hi = float(rng.uniform(0.5, 3))
            sb = elastic_net_piece(gamma, lower=lo, upper=hi)
            x = float(rng.uniform(lo, hi))
            slo, shi = sb.subdiff_interval(x)
            p = float(rng.uniform(max(slo, -50), min(shi, 50)))
            g = float(rng.uniform(-5, 5))
            a = float(rng.uniform(0.1, 3))
            tau = float(rng.uniform(0.1, 3))
            prob = make_problem(sb, x, p, tau, g, a)
            sol = solve_inclusion(prob)
            want = self.grid_argmin(sb, x, p, tau, g, a)
            assert sol.y == pytest.approx(want, abs=1e-5)
            check_solution(prob, sol)


class TestShiftedElasticNet:
    def test_root_lands_on_shift_kink(self):
        # the target subgradient falls inside the wide interval at the
        # shift: the solution is exactly the kink
        sb = ScalarBregman(1.0, 0.5)
        x, p = 2.0, 3.0  # p = x + gamma valid above the shift
        prob = make_problem(sb, x, p, 1.0, g=2.0, a=0.5)
        sol = solve_inclusion(prob)
        check_solution(prob, sol)
        assert sol.y <= x

    def test_membership_after_many_random_solves(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            shift = float(rng.uniform(0, 1))
            sb = ScalarBregman(float(rng.uniform(0.1, 1)), shift)
            x = float(rng.uniform(-1, 2))
            slo, shi = sb.subdiff_interval(x)
            p = float(rng.uniform(slo, shi))
            g = float(rng.uniform(-4, 4))
            a = float(rng.uniform(0.0, 2))
            prob = make_problem(sb, x, p, float(rng.uniform(0.2, 2)), g, a)
            sol = solve_inclusion(prob)
            check_solution(prob, sol)
