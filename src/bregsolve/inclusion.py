"""Per-coordinate implicit step of the Bregman coordinate sweep.

Given a scalar Bregman piece j, an incoming subgradient p, a time step tau,
and the coordinate difference quotient DQ of the objective, find y and p'
with ``p' = p - tau * DQ(y)`` and ``p'`` a subgradient of j (plus box) at y.
A stationary update (y unchanged, p moved by a Clarke element) is tried
first; otherwise the root of the inclusion residual is bracketed by
geometric expansion on the descent side and polished with Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.optimize import brenth

from .bregman import ScalarBregman, interval_project

#: Absolute residual tolerance for the scalar inclusion.
RESIDUAL_TOL = 1e-10
#: Relative bracket-width tolerance for the root solve.
BRACKET_RTOL = 1e-12
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_MAX_DOUBLINGS = 60


class InclusionError(RuntimeError):
    pass


class DivergenceError(InclusionError):
    """No sign change within the maximal bracket expansion; the objective
    appears unbounded below along the coordinate ray."""


class ConvergenceError(InclusionError):
    """Root solve terminated without meeting the residual tolerance."""


@dataclass
class InclusionProblem:
    sb: ScalarBregman
    x: float
    p: float
    tau: float
    dq: Callable[[float], float]
    clarke: tuple[float, float]

    def __post_init__(self):
        if not self.tau > 0:
            raise InclusionError(f"tau must be > 0, got {self.tau}")
        if not self.sb.in_box(self.x):
            raise InclusionError("x outside the box constraints")


@dataclass
class InclusionSolution:
    y: float
    p_new: float
    stationary: bool


def _strip_box(sb: ScalarBregman, y: float, t: float, mode: str) -> float:
    """Project the raw subgradient target onto the admissible interval."""
    if mode == "forget_box":
        lo, hi = sb.j_interval(y)
    else:
        lo, hi = sb.subdiff_interval(y)
    return interval_project(t, lo, hi)


def _residual(prob: InclusionProblem, y: float) -> float:
    t = prob.p - prob.tau * prob.dq(y)
    lo, hi = prob.sb.subdiff_interval(y)
    return t - interval_project(t, lo, hi)


def _try_stationary(prob: InclusionProblem, mode: str):
    vlo, vhi = prob.clarke
    slo, shi = prob.sb.subdiff_interval(prob.x)
    # v admissible iff p - tau*v lands in [slo, shi].
    alo = vlo if math.isinf(shi) else max(vlo, (prob.p - shi) / prob.tau)
    ahi = vhi if math.isinf(slo) else min(vhi, (prob.p - slo) / prob.tau)
    if alo > ahi:
        return None
    v = interval_project(0.0, alo, ahi)
    p_new = _strip_box(prob.sb, prob.x, prob.p - prob.tau * v, mode)
    return InclusionSolution(prob.x, p_new, True)


def _nearest_stationary(prob: InclusionProblem, mode: str):
    """Best-effort stationary update when the root collapses onto x.

    Picks the Clarke element whose raw target is closest to the
    subdifferential at x.
    """
    vlo, vhi = prob.clarke
    slo, shi = prob.sb.subdiff_interval(prob.x)
    best_v, best_d = vlo, math.inf
    for v in (vlo, vhi):
        t = prob.p - prob.tau * v
        d = abs(t - interval_project(t, slo, shi))
        if d < best_d:
            best_v, best_d = v, d
    t = prob.p - prob.tau * best_v
    return InclusionSolution(prob.x, _strip_box(prob.sb, prob.x, t, mode),
                             True)


def _finish(prob: InclusionProblem, y: float, mode: str) -> InclusionSolution:
    t = prob.p - prob.tau * prob.dq(y)
    p_new = _strip_box(prob.sb, y, t, mode)
    return InclusionSolution(y, p_new, False)


def _candidate_sides(prob: InclusionProblem, delta0: float):
    """Search directions ordered by sampled one-sided descent quotients."""
    sides = []
    for d in (1.0, -1.0):
        y = prob.x + d * delta0
        if d > 0 and y > prob.sb.upper:
            y = prob.sb.upper
        if d < 0 and y < prob.sb.lower:
            y = prob.sb.lower
        if y == prob.x:
            continue
        q = d * prob.dq(y)
        sides.append((d, q))
    # More negative quotient first; ties resolve to the positive side,
    # which (1.0, -1.0) ordering preserves under a stable sort.
    sides.sort(key=lambda dq_pair: dq_pair[1])
    return [d for d, _ in sides]


def _solve_on_side(prob: InclusionProblem, mode: str, d: float,
                   delta0: float):
    """Expand geometrically along direction d until the residual changes
    sign, then root-find.  Returns None if this side has no bracket."""
    sb = prob.sb
    bound = sb.upper if d > 0 else sb.lower

    y_prev = None
    g_prev = None
    # Near x the residual carries the sign of d on a descent side; if the
    # first probe already shows the far-field sign, the root is closer
    # than delta0 and we shrink inward instead.
    y0 = prob.x + d * delta0
    y0 = min(max(y0, sb.lower), sb.upper)
    if y0 == prob.x:
        return None
    g0 = _residual(prob, y0)
    if abs(g0) <= RESIDUAL_TOL:
        return _finish(prob, y0, mode)
    if g0 * d < 0:
        return _shrink_inward(prob, mode, d, y0, g0)
    y_prev, g_prev = y0, g0

    for m in range(1, _MAX_DOUBLINGS + 1):
        y = prob.x + d * delta0 * (2.0 ** m)
        y = min(max(y, sb.lower), sb.upper)
        at_bound = (y == bound)
        g = _residual(prob, y)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, y, mode)
        if g * g_prev < 0:
            return _bracketed_root(prob, mode, y_prev, y)
        if at_bound:
            return None
        y_prev, g_prev = y, g
    raise DivergenceError(
        f"no inclusion root within {_MAX_DOUBLINGS} doublings from "
        f"x={prob.x} along d={d}; objective may be unbounded below")


def _shrink_inward(prob: InclusionProblem, mode: str, d: float,
                   y0: float, g0: float):
    y_out, g_out = y0, g0
    for _ in range(200):
        y = prob.x + (y_out - prob.x) * 0.5
        if y == prob.x:
            break
        g = _residual(prob, y)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, y, mode)
        if g * g_out < 0:
            return _bracketed_root(prob, mode, y, y_out)
        y_out, g_out = y, g
    return None


def _bracketed_root(prob: InclusionProblem, mode: str, a: float, b: float):
    lo, hi = (a, b) if a < b else (b, a)
    root = brenth(lambda y: _residual(prob, y), lo, hi,
                  xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
    root = float(root)
    g = _residual(prob, root)
    if abs(g) > RESIDUAL_TOL:
        root, g = _snap_to_kink(prob, root, g)
    if abs(g) > RESIDUAL_TOL:
        squeezed = _ulp_root(prob, lo, hi, root, g)
        if squeezed is None:
            raise ConvergenceError(
                f"inclusion residual {g:.3e} above tolerance at y={root} "
                f"(x={prob.x}, p={prob.p}, tau={prob.tau})")
        root = squeezed
    return _finish(prob, root, mode)


def _ulp_root(prob: InclusionProblem, lo: float, hi: float, root: float,
              g: float):
    """Find the root squeezed between adjacent floats, or None.

    Near a data kink the difference quotient can have slope ~1/|x - s|,
    so the residual moves by more than the tolerance per ulp and no
    representable y satisfies it; bisect the sign change down to
    neighbouring floats and return the side with the smaller residual.
    """
    glo = _residual(prob, lo)
    ghi = _residual(prob, hi)
    if glo * ghi > 0:
        return None
    if g * glo > 0:
        lo, glo = root, g
    elif g * ghi > 0:
        hi, ghi = root, g
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = _residual(prob, mid)
        if abs(gm) <= RESIDUAL_TOL:
            return mid
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    # adjacent floats with opposite residual signs: no better y exists
    return lo if abs(glo) <= abs(ghi) else hi


def _snap_to_kink(prob: InclusionProblem, root: float, g: float):
    """The subdifferential interval jumps at kinks of j and at the box
    edges; Brent may stop a rounding error away from such a point."""
    sb = prob.sb
    kinks = [sb.shift] if sb.gamma > 0 else []
    for edge in (sb.lower, sb.upper):
        if math.isfinite(edge):
            kinks.append(edge)
    tol = max(1e-9, 1e-9 * abs(root))
    best_y, best_g = root, g
    for k in kinks:
        if abs(k - root) <= tol and k != prob.x:
            gk = _residual(prob, k)
            if abs(gk) < abs(best_g):
                best_y, best_g = k, gk
    return best_y, best_g


def solve_inclusion(prob: InclusionProblem, mode: str = "keep_box",
                    delta0: float | None = None) -> InclusionSolution:
    """Solve the scalar inclusion; see the module docstring.

    ``mode`` is "keep_box" (subgradient may include the box normal cone)
    or "forget_box" (the normal-cone part is discarded from p_new).
    ``delta0`` overrides the initial bracketing step.
    """
    if mode not in ("keep_box", "forget_box"):
        raise InclusionError(f"unknown mode {mode!r}")
    sol = _try_stationary(prob, mode)
    if sol is not None:
        return sol
    if delta0 is None:
        delta0 = max(1e-8, 1e-8 * abs(prob.x))
    sides = _candidate_sides(prob, delta0)
    if not sides:
        # x pinned by a degenerate box; only the stationary branch exists.
        return _nearest_stationary(prob, mode)
    last_err = None
    for d in sides:
        try:
            sol = _solve_on_side(prob, mode, d, delta0)
        except (DivergenceError, ConvergenceError) as err:
            # A sign change across a subdifferential jump brackets no root;
            # the actual root may sit on the other side of x.
            last_err = err
            continue
        if sol is not None:
            return sol
    if last_err is not None:
        raise last_err
    # No root on either side and no divergence signal: the root collapsed
    # onto x below resolution; take the best near-stationary update.
    return _nearest_stationary(prob, mode)
