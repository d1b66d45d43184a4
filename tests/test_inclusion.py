"""Tests for the scalar inclusion solver."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregsolve import inclusion, solvers
from bregsolve.bregman import BregmanError, ScalarBregman
from bregsolve.cli import build_experiment, build_parser, effective_params
from bregsolve.inclusion import (ConvergenceError, DivergenceError,
                                 InclusionError, InclusionProblem, brenth,
                                 solve_inclusion)
from bregsolve.objectives import STATIONARY_REL_TOL, is_stationary_move


def quadratic_dq(g, a, x):
    """Difference quotient of the scalar quadratic g*(y-x) mapping:
    v(y) = g*(y - x) + a*(y - x)^2/2 up to a constant."""
    def dq(y):
        return g + 0.5 * a * (y - x)
    return dq


def make_problem(sb, x, p, tau, g, a):
    return InclusionProblem(sb=sb, x=x, p=p, tau=tau,
                            dq=quadratic_dq(g, a, x), clarke=(g, g))


#: Any float, with the values where a written-out min, max or isinf could
#: part from the builtin drawn often: signed zeros, infinities, NaN,
#: subnormals and the ends of the range, where x +- gamma overflows.
any_float = st.one_of(st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max]), st.floats())


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
        prob = make_problem(ScalarBregman(), 1.0, 1.0, 1.0,
                            g=1.0, a=1.0)
        sol = solve_inclusion(prob)
        assert sol.y == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert sol.p_new == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert not sol.stationary

    def test_stationary_when_zero_in_clarke(self):
        prob = InclusionProblem(sb=ScalarBregman(), x=0.5, p=0.5,
                                tau=1.0, dq=lambda y: 0.0,
                                clarke=(-1.0, 1.0))
        sol = solve_inclusion(prob)
        assert sol.stationary
        assert sol.y == 0.5
        assert sol.p_new == 0.5  # v = 0 chosen (minimal magnitude)

    def test_stationary_at_elastic_net_kink(self):
        # descent pressure absorbed by the kink: p - tau*v stays in [-1,1]
        sb = ScalarBregman(1.0, lower=0.0)
        prob = InclusionProblem(sb=sb, x=0.0, p=-1.0, tau=1.0,
                                dq=lambda y: -1.0, clarke=(-1.0, -1.0))
        sol = solve_inclusion(prob)
        assert sol.stationary
        assert sol.y == 0.0
        check_solution(prob, sol)

    def test_nonstationary_moves_downhill(self):
        prob = make_problem(ScalarBregman(), 0.0, 0.0, 1.0, g=2.0, a=1.0)
        sol = solve_inclusion(prob)
        assert sol.y < 0.0  # positive slope means descent to the left
        check_solution(prob, sol)
        assert prob.dq(sol.y) * (sol.y - prob.x) <= 1e-12

    def test_invalid_inputs(self):
        for tau in (-1.0, math.nan):
            with pytest.raises(InclusionError):
                make_problem(ScalarBregman(), 0.0, 0.0, tau, 1.0, 1.0)
        with pytest.raises(InclusionError):
            make_problem(ScalarBregman(lower=0.0), -1.0, 0.0, 1.0,
                         1.0, 1.0)
        prob = make_problem(ScalarBregman(), 0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(InclusionError):
            solve_inclusion(prob, mode="bogus")


class TestProblemContract:
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_rejects_a_bad_tau(self, tau):
        with pytest.raises(InclusionError, match="tau"):
            make_problem(ScalarBregman(), 0.0, 0.0, tau, 1.0, 1.0)

    @pytest.mark.parametrize("x", [-1.0, math.nextafter(1.0, 2.0), math.nan])
    def test_rejects_x_outside_the_box(self, x):
        with pytest.raises(InclusionError, match="box"):
            make_problem(ScalarBregman(lower=0.0, upper=1.0), x, 0.0, 1.0,
                         1.0, 1.0)

    def test_replace_round_trips_and_checks(self):
        prob = make_problem(ScalarBregman(lower=0.0, upper=1.0), 0.5, 0.5,
                            1.0, 1.0, 1.0)
        f = quadratic_dq(2.0, 1.0, 0.5)
        moved = dataclasses.replace(prob, dq=f)
        assert moved.dq is f and moved != prob
        assert dataclasses.replace(moved, dq=prob.dq) == prob
        for bad in ({"tau": 0.0}, {"x": 2.0}):
            with pytest.raises(InclusionError):
                dataclasses.replace(prob, **bad)

    def test_dq_is_assignable(self):
        # bench/tracer.py wraps each problem's dq by assignment.
        prob = make_problem(ScalarBregman(), 0.0, 0.0, 1.0, 1.0, 1.0)
        f = quadratic_dq(2.0, 1.0, 0.0)
        prob.dq = f
        assert prob.dq is f


def stationary_oracle(prob, mode):
    """The stationary test as written with the builtins: ``(y, p_new)``,
    or None where no stationary update applies."""
    sb, x, p, tau = prob.sb, prob.x, prob.p, prob.tau
    jlo, jhi = sb.j_interval(x)
    slo = -math.inf if x == sb.lower else jlo
    shi = math.inf if x == sb.upper else jhi
    vlo, vhi = prob.clarke
    alo = vlo if math.isinf(shi) else max(vlo, (p - shi) / tau)
    ahi = vhi if math.isinf(slo) else min(vhi, (p - slo) / tau)
    if alo > ahi:
        return None
    t = p - tau * min(max(0.0, alo), ahi)
    if mode == "forget_box":
        slo, shi = jlo, jhi
    return x, min(max(t, slo), shi)


@st.composite
def edge_problems(draw):
    """A piece on a box around x, each end possibly infinite, with p, tau,
    the Clarke pair and a constant DQ drawn from any floats."""
    finite = st.one_of(st.sampled_from([0.0, -0.0, sys.float_info.max,
                                        -sys.float_info.max, 5e-324]),
                       st.floats(allow_nan=False))
    lower, x, upper = sorted(draw(st.lists(finite, min_size=3, max_size=3)))
    lower = -math.inf if draw(st.booleans()) else lower
    upper = math.inf if draw(st.booleans()) else upper
    gamma = draw(st.one_of(st.sampled_from([0.0, 0.5, math.inf]),
                           st.floats(min_value=0.0)))
    shift = draw(st.one_of(st.just(x), finite.filter(math.isfinite)))
    c = draw(any_float)
    return InclusionProblem(
        ScalarBregman(gamma, shift, lower, upper), x, draw(any_float),
        draw(st.floats(min_value=0.0, exclude_min=True)), lambda y: c,
        (draw(any_float), draw(any_float)))


def float_bits(values):
    """Each value's sign and bits, NaN as one value."""
    return None if values is None else [float(v).hex() for v in values]


class TestBuiltinOracles:
    """The stationary test and the stationary-move test write min, max,
    isinf and abs out as comparisons; each must give the
    builtins' bits, on signed zeros, infinities and NaN as well."""

    @settings(max_examples=500, deadline=None)
    @given(prob=edge_problems(),
           mode=st.sampled_from(["keep_box", "forget_box"]))
    def test_stationary_test(self, prob, mode):
        sol = inclusion._try_stationary(prob, mode)
        assert float_bits(None if sol is None else (sol.y, sol.p_new)) \
            == float_bits(stationary_oracle(prob, mode))
        assert sol is None or sol.stationary

    @settings(max_examples=300)
    @given(any_float, any_float)
    def test_stationary_move(self, old, new):
        assert is_stationary_move(old, new) == (
            abs(new - old) <= STATIONARY_REL_TOL * max(1.0, abs(old)))


class TestBoxHandling:
    def test_root_clamped_at_box_edge(self):
        # strong downhill pull but the box stops at 0
        sb = ScalarBregman(lower=0.0, upper=10.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob)
        assert sol.y == pytest.approx(0.0, abs=1e-9)
        check_solution(prob, sol)

    def test_forget_box_strips_normal_cone(self):
        sb = ScalarBregman(lower=0.0, upper=10.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob, mode="forget_box")
        lo, hi = sb.j_interval(sol.y)
        assert lo - 1e-9 <= sol.p_new <= hi + 1e-9

    def test_degenerate_box_is_stationary(self):
        sb = ScalarBregman(lower=1.0, upper=1.0)
        prob = make_problem(sb, 1.0, 1.0, 1.0, g=50.0, a=0.1)
        sol = solve_inclusion(prob)
        assert sol.y == 1.0
        assert sol.stationary

    def test_residual_outside_box_raises(self):
        # The kink of this piece lies outside its box; a probe there must
        # fail loudly rather than read a subdifferential that is not there.
        sb = ScalarBregman(0.5, 3.0, lower=0.0, upper=1.0)
        prob = make_problem(sb, 0.5, 0.5, 1.0, g=1.0, a=1.0)
        for y in (sb.shift, -1e-300, math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(BregmanError):
                inclusion._residual(prob, y)


class TestDivergence:
    def test_unbounded_ray_raises(self):
        # dq tends to a negative constant: residual never changes sign,
        # the objective decreases forever along the ray
        prob = InclusionProblem(sb=ScalarBregman(), x=0.0, p=0.0,
                                tau=1.0, dq=lambda y: -1.0 - abs(y),
                                clarke=(-1.0, -1.0))
        # p - tau*dq(y) - y = 1 + |y| - y -> never 0 for y > 0; and the
        # descent side is positive, so expansion must hit the cap.
        with pytest.raises(DivergenceError):
            solve_inclusion(prob)


class TestLargeTimeSteps:
    def test_huge_tau_reaches_the_coordinate_minimiser(self):
        # With DQ(y) = g + atan(y - x) the step tends to x - tan(g) as tau
        # grows.  A warm first probe at tau*|g|/2 would hand Brent a bracket
        # too wide to resolve in its 100 steps; the capped probe does not.
        for tau in (1e12, 1e50, 1e300):
            for g in (-0.3, 0.3):
                for x in (0.0, -3.0, 50.0):
                    prob = InclusionProblem(
                        sb=ScalarBregman(), x=x, p=x, tau=tau,
                        dq=lambda y, g=g, x=x: g + math.atan(y - x),
                        clarke=(g, g))
                    sol = solve_inclusion(prob)
                    assert not sol.stationary
                    assert sol.y == pytest.approx(x - math.tan(g), abs=1e-9)


class TestRootChoice:
    """Where the residual y -> p - tau*DQ(y) - y changes sign several times
    along the descent ray, pin which root the search returns.  Here x = p
    = 0, tau = 1 and DQ(y) = -h(y) - y, so the residual is h, with h(0) =
    1 and the warm probe at tau*|v|/2 = 0.5 for the Clarke pair v = -1,
    DQ(0); at dmin for v = -1e-8."""

    @staticmethod
    def solve(roots, clarke=(-1.0, -1.0)):
        r1, r2, r3 = roots
        c = 1.0 / (r1 * r2 * r3)

        def dq(y):
            return -c * (y - r1) * (y - r2) * (r3 - y) - y
        prob = InclusionProblem(sb=ScalarBregman(), x=0.0, p=0.0, tau=1.0,
                                dq=dq, clarke=clarke)
        sol = solve_inclusion(prob)
        check_solution(prob, sol)
        assert not sol.stationary
        return sol.y

    def test_pair_inside_the_warm_probe_is_skipped(self):
        # Sign changes at 0.1 and 0.2 cancel between dmin and the probe at
        # 0.5, so the search brackets [1, 2] and returns 1.3.  Doubling
        # from dmin (the probe of v = -1e-8) crosses 0.1 first and returns
        # it.
        assert self.solve((0.1, 0.2, 1.3)) == pytest.approx(1.3, abs=1e-12)
        assert self.solve((0.1, 0.2, 1.3), (-1e-8, -1e-8)) == pytest.approx(
            0.1, abs=1e-12)

    def test_root_inside_dmin_is_found_before_the_warm_probe(self):
        # The residual already has the far-field sign at dmin = 1e-8 (root
        # at 5e-9) though the warm probe at 0.5 shows the near-x sign
        # again: the search halves inward from dmin, as without the warm
        # start, rather than going out to the root at 1.3.
        for clarke in ((-1.0, -1.0), (-1e-8, -1e-8)):
            y = self.solve((5e-9, 0.2, 1.3), clarke)
            assert y == pytest.approx(5e-9, rel=1e-9)

    @pytest.mark.parametrize("mode", ["keep_box", "forget_box"])
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
    @pytest.mark.parametrize("upper", [math.inf, 1.3])
    def test_ulp_squeezed_root(self, mode, a, b, upper):
        # DQ(y) = -y - h(y), h a step from +a below 1.3 to -b from 1.3 on:
        # no float meets the tolerance, and the search squeezes the sign
        # change between 1.3 and the float below it.  The smaller
        # residual of the pair wins, the lower float a tie; p_new lies in
        # the subdifferential there, or in the piece's interval.
        below = math.nextafter(1.3, -math.inf)
        sb = ScalarBregman(upper=upper)
        prob = InclusionProblem(sb, 0.0, 0.0, 1.0,
                                lambda y: -y - (a if y < 1.3 else -b),
                                (-1.0, -1.0))
        sol = solve_inclusion(prob, mode)
        assert sol.y == (1.3 if b < a else below) and not sol.stationary
        assert abs(inclusion._residual(prob, sol.y)) > 1e-10
        lo, hi = sb.j_interval(sol.y) if mode == "forget_box" \
            else sb.subdiff_interval(sol.y)
        assert lo <= sol.p_new <= hi


class TestCompiledCheckedSolve:
    """``solvers.solve_inclusion``, the solve that a wrapper such as
    ``bench/tracer.py`` replaces, is Python's own, bound without loading
    the compiled module."""

    def test_solvers_binds_the_python_solve(self):
        assert solvers.solve_inclusion is solve_inclusion

    def test_the_reassigned_dq_is_called(self):
        # bench/tracer.py swaps each problem's dq before its solve; the
        # search then runs in Python, on the swapped dq.
        dq = quadratic_dq(1.0, 1.0, 1.0)

        def replaced(y):
            raise AssertionError("the replaced dq was called")
        prob = InclusionProblem(ScalarBregman(), 1.0, 1.0, 1.0, replaced,
                                (1.0, 1.0))
        calls = []
        prob.dq = lambda y: calls.append(y) or dq(y)
        sol = solvers.solve_inclusion(prob, "keep_box")
        want = solve_inclusion(make_problem(ScalarBregman(), 1.0, 1.0, 1.0,
                                            1.0, 1.0))
        assert calls and not sol.stationary
        assert float(sol.y).hex() == float(want.y).hex()


class TestBrenth:
    @settings(max_examples=300, deadline=None)
    @given(root=st.floats(-5.0, 5.0), slope=st.floats(1e-3, 1e3),
           cubic=st.floats(0.0, 10.0),
           jump=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
           left=st.floats(1e-9, 10.0), right=st.floats(1e-9, 10.0))
    def test_matches_scipy(self, root, slope, cubic, jump, left, right):
        # Smooth increasing residuals, and ones that jump across zero at
        # the root, on the same bracket for both solvers.
        optimize = pytest.importorskip("scipy.optimize")

        def f(y):
            t = y - root
            return slope * t + cubic * t ** 3 + math.copysign(jump, t)
        a, b = root - left, root + right
        xtol, rtol = inclusion._BRENT_XTOL, inclusion._BRENT_RTOL
        want = optimize.brenth(f, a, b, xtol=xtol, rtol=rtol)
        got = brenth(f, a, b)
        assert abs(got - want) <= 2 * (xtol + rtol * abs(want))

    def test_errors(self):
        with pytest.raises(InclusionError, match="sign"):
            brenth(lambda y: y + 2.0, -1.0, 1.0)
        # A step residual forces bisection, which needs ~1000 halvings to
        # shrink this bracket to the tolerance.
        with pytest.raises(ConvergenceError):
            brenth(lambda y: math.copysign(1.0, y - 0.1), -1e300, 1e300)


class TestEvaluationCount:
    def test_dq_per_nonstationary_inclusion(self, monkeypatch):
        # Counted the way bench/tracer.py counts: every call of prob.dq
        # inside one solve_inclusion call that leaves the stationary
        # branch, over one bia sweep on the 64x64 denoising preset.
        params = effective_params(build_parser().parse_args(
            ["--preset", "student_t_denoise"]))
        exp = build_experiment(params)
        counts = []
        inner = solvers.solve_inclusion

        def counted(prob, *args):
            dq, calls = prob.dq, [0]

            def wrapped(y):
                calls[0] += 1
                return dq(y)
            prob.dq = wrapped
            sol = inner(prob, *args)
            if not sol.stationary:
                counts.append(calls[0])
            return sol
        monkeypatch.setattr(solvers, "solve_inclusion", counted)
        cfg = solvers.SolverConfig("bia", tau=params["tau"], max_iters=1)
        solvers.run(exp.V, exp.spec, exp.x0, cfg)
        assert len(counts) > 1000
        assert sum(counts) / len(counts) <= 10


class TestDeterminism:
    def test_delta0_insensitivity_convex(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            sb = ScalarBregman(float(rng.uniform(0, 2)))
            x = float(rng.uniform(-2, 2))
            lo, hi = sb.subdiff_interval(x)
            p = float(rng.uniform(lo, hi))
            g = float(rng.uniform(-3, 3))
            a = float(rng.uniform(0.1, 3))
            tau = float(rng.uniform(0.1, 3))
            prob = make_problem(sb, x, p, tau, g, a)
            # Clarke pairs whose warm probes, at tau*|v|/2, sit at dmin and
            # at 1e-5; x is off the kink, so neither is stationary.
            s1, s2 = (solve_inclusion(dataclasses.replace(prob, clarke=(v, v)))
                      for v in (2e-8 / tau, 2e-5 / tau))
            assert not (s1.stationary or s2.stationary)
            assert s1.y == pytest.approx(s2.y, abs=1e-8)


class TestGridOracle:
    def grid_argmin(self, sb, x, p, tau, g, a):
        """Two-stage grid argmin of v(y) + D(x, y)/tau over the box,
        where v is the local quadratic model integrated from its
        difference quotient."""
        def j(y):
            return 0.5 * y * y + sb.gamma * abs(y - sb.shift)

        def total(y):
            v = g * (y - x) + 0.25 * a * (y - x) ** 2
            d = j(y) - j(x) - p * (y - x)
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
            sb = ScalarBregman(gamma)
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
            sb = ScalarBregman(gamma, lower=lo, upper=hi)
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

    def test_root_on_the_shift_takes_few_evaluations(self):
        # The bracket strictly contains the shift, where the root sits:
        # splitting there accepts it at once instead of letting Brent's
        # iterates crawl onto the jump and snapping them to it.
        for x, g, a in ((2.0, 2.0, 0.5), (3.0, 3.0, 0.3), (1.0, 1.5, 1.0)):
            calls = []

            def dq(y, g=g, a=a, x=x):
                calls.append(y)
                return g + 0.5 * a * (y - x)
            prob = InclusionProblem(sb=ScalarBregman(1.0, 0.5), x=x,
                                    p=x + 1.0, tau=1.0, dq=dq,
                                    clarke=(g, g))
            sol = solve_inclusion(prob)
            assert sol.y == 0.5
            assert len(calls) <= 6

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
