"""Tests for the separable Bregman functions and scalar operators."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregsolve.bregman import (BregmanError, BregmanSpec, PrimalDualState,
                               ScalarBregman, bregman_distance,
                               elastic_net_piece, euclidean_piece,
                               interval_dist_zero, interval_project,
                               shrink)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: Any float, with the values where a written-out min or max could part
#: from the builtin drawn often: signed zeros, infinities, NaN, subnormals
#: and the ends of the range.
any_float = st.one_of(st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max]), st.floats())


class TestShrink:
    def test_basic_values(self):
        assert shrink(3.0, 1.0) == 2.0
        assert shrink(-0.5, 1.0) == 0.0
        assert shrink(-2.0, 0.5) == -1.5

    def test_zero_threshold_is_identity(self):
        assert shrink(1.234, 0.0) == 1.234

    def test_negative_threshold_rejected(self):
        with pytest.raises(BregmanError):
            shrink(1.0, -0.1)

    def test_resolvent_oracle(self):
        # shrink(x, lam) is argmin_y lam*|y| + (y - x)^2 / 2: check against
        # a two-stage grid scan on random instances.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x = float(rng.uniform(-5, 5))
            lam = float(rng.uniform(0, 3))
            grid = np.linspace(x - 6, x + 6, 4001)
            vals = lam * np.abs(grid) + 0.5 * (grid - x) ** 2
            coarse = grid[np.argmin(vals)]
            fine = np.linspace(coarse - 0.01, coarse + 0.01, 4001)
            vals = lam * np.abs(fine) + 0.5 * (fine - x) ** 2
            best = fine[np.argmin(vals)]
            assert shrink(x, lam) == pytest.approx(best, abs=2e-5)

    @given(finite, finite, st.floats(min_value=0, max_value=1e6))
    def test_lipschitz(self, a, b, lam):
        assert abs(shrink(a, lam) - shrink(b, lam)) <= abs(a - b) + 1e-9

    @given(finite, st.floats(min_value=0, max_value=1e6))
    def test_nonexpansive(self, x, lam):
        assert abs(shrink(x, lam)) <= abs(x)


class TestProjections:
    def test_empty_box_rejected(self):
        with pytest.raises(BregmanError):
            BregmanSpec.euclidean(3, lower=1.0, upper=-1.0)

    def test_interval_helpers(self):
        assert interval_project(5.0, -1.0, 1.0) == 1.0
        assert interval_project(0.0, -1.0, 1.0) == 0.0
        assert interval_dist_zero(2.0, 3.0) == 2.0
        assert interval_dist_zero(-3.0, -2.0) == 2.0
        assert interval_dist_zero(-1.0, 1.0) == 0.0
        lo = np.array([2.0, -3.0, -1.0, 0.0])
        hi = np.array([3.0, -2.0, 1.0, 0.0])
        assert np.array_equal(interval_dist_zero(lo, hi),
                              [2.0, 2.0, 0.0, 0.0])

    @settings(max_examples=500)
    @given(any_float, any_float, any_float)
    def test_interval_project_is_the_builtin_formula(self, t, lo, hi):
        # Bitwise, NaN and the sign of zero included: the first argument
        # of each builtin wins ties and NaN.
        assert interval_project(t, lo, hi).hex() \
            == min(max(t, lo), hi).hex()


class TestScalarBregman:
    def test_euclidean_interior(self):
        sb = euclidean_piece()
        assert sb.subdiff_interval(2.0) == (2.0, 2.0)

    def test_elastic_net_at_zero(self):
        sb = elastic_net_piece(1.0)
        assert sb.subdiff_interval(0.0) == (-1.0, 1.0)

    def test_active_upper_box(self):
        sb = euclidean_piece(lower=0.0, upper=1.0)
        lo, hi = sb.subdiff_interval(1.0)
        assert lo == 1.0 and hi == math.inf

    def test_active_lower_box(self):
        sb = euclidean_piece(lower=0.0, upper=1.0)
        lo, hi = sb.subdiff_interval(0.0)
        assert lo == -math.inf and hi == 0.0

    def test_outside_box_rejected(self):
        sb = euclidean_piece(lower=0.0, upper=1.0)
        with pytest.raises(BregmanError):
            sb.subdiff_interval(2.0)

    def test_gamma_zero_equals_euclidean(self):
        a = elastic_net_piece(0.0)
        b = euclidean_piece()
        for x in (-2.0, 0.0, 1.5):
            assert a.j_interval(x) == b.j_interval(x)
            assert a.j_value(x) == b.j_value(x)

    def test_shifted_kink_location(self):
        sb = ScalarBregman(0.5, 0.3)
        lo, hi = sb.j_interval(0.3)
        assert lo == pytest.approx(0.3 - 0.5)
        assert hi == pytest.approx(0.3 + 0.5)
        assert sb.j_interval(1.0) == (1.5, 1.5)

    def test_invalid_configs(self):
        with pytest.raises(BregmanError):
            ScalarBregman(gamma=-1.0)
        with pytest.raises(BregmanError):
            ScalarBregman(lower=1.0, upper=0.0)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=1e-6, max_value=100),
           st.floats(min_value=1e-9, max_value=10))
    def test_interval_monotonicity(self, x, dx, gamma):
        # Strong convexity: the subdifferential grows at least linearly.
        sb = elastic_net_piece(gamma)
        y = x + dx
        _, hi_x = sb.subdiff_interval(x)
        lo_y, _ = sb.subdiff_interval(y)
        assert hi_x + (y - x) <= lo_y + 1e-12 * max(1.0, abs(hi_x))


class TestBregmanDistance:
    def test_euclidean_half_squared_distance(self):
        spec = BregmanSpec.euclidean(2)
        d = bregman_distance(spec, [0.0, 0.0], [0.0, 0.0], [3.0, 4.0])
        assert d == pytest.approx(12.5)

    def test_distance_to_self_is_zero(self):
        spec = BregmanSpec.elastic_net(3, 1.0)
        x = np.array([1.0, 0.0, -2.0])
        p = spec.min_norm_subgradient(x)
        assert bregman_distance(spec, x, p, x) == 0.0

    def test_elastic_net_hand_value(self):
        spec = BregmanSpec.elastic_net(1, 1.0)
        d = bregman_distance(spec, [1.0], [2.0], [-1.0])
        assert d == pytest.approx(4.0)

    def test_invalid_subgradient_rejected(self):
        spec = BregmanSpec.euclidean(1)
        with pytest.raises(BregmanError):
            bregman_distance(spec, [1.0], [2.0], [0.0])

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mu_convexity_gap(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        spec = BregmanSpec.elastic_net(n, float(rng.uniform(0, 2)))
        x = rng.uniform(-3, 3, n)
        y = rng.uniform(-3, 3, n)
        # any valid subgradient: random point of each interval
        p = np.empty(n)
        for i in range(n):
            lo, hi = spec.pieces[i].subdiff_interval(x[i])
            p[i] = rng.uniform(lo, hi)
        d = bregman_distance(spec, x, p, y)
        gap = 0.5 * spec.mu * float(np.sum((y - x) ** 2))
        assert d >= gap - 1e-12

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetric_distance_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        spec = BregmanSpec.elastic_net(n, float(rng.uniform(0, 2)))
        x = rng.uniform(-3, 3, n)
        y = rng.uniform(-3, 3, n)
        p = spec.min_norm_subgradient(x)
        q = spec.min_norm_subgradient(y)
        lhs = bregman_distance(spec, x, p, y) + bregman_distance(spec, y, q, x)
        rhs = float(np.dot(q - p, y - x))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestBregmanSpec:
    def test_gamma_property(self):
        spec = BregmanSpec.elastic_net(3, 0.7)
        assert spec.gamma == 0.7

    def test_gamma_must_be_finite(self):
        # At gamma = inf, J(shift) is inf * 0.  A scalar piece keeps
        # gamma = inf, which the inclusion tests draw.
        for gamma in (math.inf, -math.inf, math.nan):
            with pytest.raises(BregmanError, match="gamma"):
                BregmanSpec.elastic_net(3, gamma)
        assert ScalarBregman(math.inf).gamma == math.inf

    def test_fields_are_plain_floats(self):
        # The compiled sweep reads the pieces' fields as plain floats.
        spec = BregmanSpec(np.zeros(2), np.float64(0.5), 0, 1)
        sb = spec.pieces[0]
        for v in (spec.gamma, spec.lower, spec.upper, sb.gamma, sb.shift,
                  sb.lower, sb.upper):
            assert type(v) is float

    def test_shifted_factory(self):
        shifts = np.array([0.1, 0.9])
        spec = BregmanSpec.shifted_elastic_net(0.5, shifts)
        assert spec.shift[1] == 0.9
        # gamma = 0 degenerates to euclidean
        spec0 = BregmanSpec.shifted_elastic_net(0.0, shifts)
        assert spec0.gamma == 0.0

    def test_pieces_built_once_per_shift(self):
        # Equal shifts share one piece; -0.0 keeps a piece of its own.
        spec = BregmanSpec(np.array([0.3, 0.0, -0.0, 0.3, 0.0]), 0.5, -2.0,
                           2.0)
        pieces = spec.pieces
        assert len(pieces) == spec.n and spec.pieces is pieces
        for i, sb in enumerate(pieces):
            assert (sb.gamma, sb.lower, sb.upper) == (0.5, -2.0, 2.0)
            assert np.float64(sb.shift).tobytes() == spec.shift[i].tobytes()
        assert pieces[0] is pieces[3] and pieces[1] is pieces[4]
        assert pieces[2] is not pieces[1]

    def test_min_norm_subgradient_membership(self):
        spec = BregmanSpec.elastic_net(4, 1.5)
        x = np.array([0.0, 2.0, -1.0, 0.0])
        p = spec.min_norm_subgradient(x)
        assert spec.contains_subgradient(x, p)
        assert p[0] == 0.0 and p[3] == 0.0  # minimal at the kink

    def test_membership_violation(self):
        spec = BregmanSpec.euclidean(2)
        x = np.array([1.0, 2.0])
        assert spec.membership_violation(x, x) == 0.0
        assert spec.membership_violation(x, x + 0.5) == pytest.approx(0.5)

    @settings(max_examples=300)
    @given(st.data())
    def test_vectorised_matches_pieces(self, data):
        # The scalar piece is the reference for every spec-wide operation,
        # at exact kinks and active box edges included.
        n = data.draw(st.integers(min_value=1, max_value=6))
        small = st.floats(min_value=-5, max_value=5)
        gamma = data.draw(st.just(0.0) | st.floats(min_value=0, max_value=3))
        lower = data.draw(small)
        upper = data.draw(st.floats(min_value=lower, max_value=lower + 10))
        shift = np.array(data.draw(st.lists(small, min_size=n, max_size=n)))
        spec = BregmanSpec(shift, gamma, lower, upper)
        pieces = spec.pieces
        x = np.array([data.draw(st.sampled_from([lower, upper, s])
                                | st.floats(min_value=lower, max_value=upper))
                      for s in shift]).clip(lower, upper)
        ref = [sb.subdiff_interval(xi) for sb, xi in zip(pieces, x)]
        lo, hi = spec.subdiff_intervals(x)
        assert list(zip(lo, hi)) == ref
        assert list(spec.min_norm_subgradient(x)) == [
            interval_project(0.0, a, b) for a, b in ref]
        # p_i at, just inside or just outside a finite interval end, or
        # anywhere.
        tol = 1e-9
        near = np.array([
            data.draw(st.sampled_from([v for v in (a, b) if math.isfinite(v)]
                                      or [0.0]) | st.floats(-10, 10))
            + data.draw(st.sampled_from([0.0, -2 * tol, -tol / 2, tol / 2,
                                         2 * tol]))
            for a, b in ref])
        for p in (spec.min_norm_subgradient(x), near):
            assert spec.contains_subgradient(x, p, tol) == all(
                a - tol <= pi <= b + tol for (a, b), pi in zip(ref, p))
            assert spec.membership_violation(x, p) == max(
                abs(pi - interval_project(pi, a, b))
                for (a, b), pi in zip(ref, p))
        y = x + np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                            min_size=n, max_size=n)))
        assert spec.in_box(x)
        assert spec.value(x) == pytest.approx(
            sum(sb.j_value(xi) for sb, xi in zip(pieces, x)), abs=1e-12)
        assert spec.in_box(y) == all(sb.in_box(yi)
                                     for sb, yi in zip(pieces, y))

    def test_dimension_check(self):
        spec = BregmanSpec.euclidean(3)
        with pytest.raises(BregmanError):
            spec.value([1.0, 2.0])


class TestPrimalDualState:
    def test_initial_state_is_valid(self):
        spec = BregmanSpec.elastic_net(3, 1.0)
        state = PrimalDualState.initial(spec, [0.0, 1.0, -1.0])
        state.validate(spec)
        assert state.k == 0

    def test_initial_outside_box_rejected(self):
        spec = BregmanSpec.euclidean(1, lower=0.0, upper=1.0)
        with pytest.raises(BregmanError):
            PrimalDualState.initial(spec, [2.0])
        with pytest.raises(BregmanError, match="finite"):
            PrimalDualState.initial(spec, [math.nan])

    def test_validate_catches_bad_subgradient(self):
        spec = BregmanSpec.euclidean(1)
        state = PrimalDualState(np.array([1.0]), np.array([5.0]))
        with pytest.raises(BregmanError):
            state.validate(spec)

    def test_validate_checks_the_box_once(self, monkeypatch):
        spec = BregmanSpec.euclidean(2, 0.0, 1.0)
        calls, in_box = [], BregmanSpec.in_box
        monkeypatch.setattr(BregmanSpec, "in_box",
                            lambda self, x: calls.append(x) or in_box(self, x))
        PrimalDualState(np.array([0.5, 1.0]), np.array([0.5, 3.0])) \
            .validate(spec)
        assert len(calls) == 1
        with pytest.raises(BregmanError, match="left the box"):
            PrimalDualState(np.array([1.5, 0.5]), np.array([1.5, 0.5])) \
                .validate(spec)
        with pytest.raises(BregmanError, match="not a subgradient"):
            PrimalDualState(np.array([0.5, 0.5]), np.array([0.5, 3.0])) \
                .validate(spec)

    def test_state_copies_inputs(self):
        x = np.array([1.0])
        state = PrimalDualState(x, x.copy())
        x[0] = 99.0
        assert state.x[0] == 1.0
