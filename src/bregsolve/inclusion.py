"""Per-coordinate implicit step of the Bregman coordinate sweep.

Given a scalar Bregman piece j, an incoming subgradient p, a time step tau,
and the coordinate difference quotient DQ of the objective, find y and p'
with ``p' = p - tau * DQ(y)`` and ``p'`` a subgradient of j (plus box) at y.
A stationary update (y unchanged, p moved by a Clarke element) is tried
first.  Otherwise the root of the inclusion residual is bracketed on the
descent side of v, the Clarke element of least magnitude, and on the
other side only if that one has no root.  The search probes at the
minimal distance dmin = 1e-8*max(1, |x|) and halves inward if the root
is closer still; else it jumps to the warm distance ``tau*|v|/2`` (capped
at 2**30*dmin) and doubles outward until the residual changes sign.  A
bracket that strictly contains the kink of j is split there, and
:func:`brenth`, Brent's method, polishes the root until its residual is
at rounding level, ``_BRENT_FTOL``.  DQ is evaluated once per point:
here through an ``lru_cache``, and through a memo of the coordinate's
points in the compiled student-t sweep, which runs this search bitwise
with the constants below (``_quadpass.flags``).

Where the residual changes sign several times along the ray, the root
returned lies in the first bracket found, not necessarily nearest x: a
pair of sign changes between dmin and the warm distance is skipped, and
Brent may settle on any root inside its bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from .bregman import ScalarBregman, interval_project

#: Absolute residual tolerance for the scalar inclusion.
RESIDUAL_TOL = 1e-10
_BRENT_XTOL = 1e-14
_BRENT_FTOL = 1e-13         #: Brent stops at a residual this small
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 100
_DMIN = 1e-8                #: dmin, relative to max(1, |x|)
_WARM_DOUBLINGS = 30        #: the warm distance is at most 2**30 * dmin
_MAX_DOUBLINGS = 60         #: and the outward probes at most 2**60 * dmin
_MAX_HALVINGS = 200         #: steps of the inward halving, the ulp squeeze
_INF = math.inf
MODES = ("keep_box", "forget_box")


class InclusionError(RuntimeError):
    pass


class DivergenceError(InclusionError):
    """No sign change within the maximal bracket expansion; the objective
    appears unbounded below along the coordinate ray."""


class ConvergenceError(InclusionError):
    """Root solve terminated without meeting the residual tolerance."""


@dataclass(slots=True, init=False)
class InclusionProblem:
    sb: ScalarBregman
    x: float
    p: float
    tau: float
    dq: Callable[[float], float]
    clarke: tuple[float, float]

    def __init__(self, sb, x, p, tau, dq, clarke):
        if not tau > 0:
            raise InclusionError(f"tau must be > 0, got {tau}")
        if not sb.lower <= x <= sb.upper:
            raise InclusionError("x outside the box constraints")
        self.sb, self.x, self.p = sb, x, p
        self.tau, self.dq, self.clarke = tau, dq, clarke


@dataclass(slots=True)
class InclusionSolution:
    y: float
    p_new: float
    stationary: bool


def _strip_box(sb: ScalarBregman, y: float, t: float, mode: str) -> float:
    """Project the raw subgradient target onto the admissible interval."""
    lo, hi = sb.j_interval(y) if mode == "forget_box" \
        else sb.subdiff_interval(y)
    return interval_project(t, lo, hi)


def _residual(prob: InclusionProblem, y: float) -> float:
    t = prob.p - prob.tau * prob.dq(y)
    lo, hi = prob.sb.subdiff_interval(y)
    return t - interval_project(t, lo, hi)


def _try_stationary(prob: InclusionProblem, mode: str):
    sb, x, p, tau = prob.sb, prob.x, prob.p, prob.tau
    # sb.subdiff_interval(x) without its box check: x is in the box.
    jlo, jhi = sb.j_interval(x)
    slo = -_INF if x == sb.lower else jlo
    shi = _INF if x == sb.upper else jhi
    # v admissible iff p - tau*v lands in [slo, shi].  Python's max(a, b)
    # is ``b if b > a else a``, and min(a, b) is ``b if b < a else a``.
    vlo, vhi = prob.clarke
    alo = vlo if shi == _INF or shi == -_INF else (p - shi) / tau
    ahi = vhi if slo == _INF or slo == -_INF else (p - slo) / tau
    alo = alo if alo > vlo else vlo
    ahi = ahi if ahi < vhi else vhi
    if alo > ahi:
        return None
    v = alo if alo > 0.0 else 0.0
    t = p - tau * (ahi if ahi < v else v)
    if mode == "forget_box":
        slo, shi = jlo, jhi
    t = slo if slo > t else t
    return InclusionSolution(x, shi if shi < t else t, True)


def _nearest_stationary(prob: InclusionProblem, mode: str):
    """Best-effort stationary update when the root collapses onto x: the
    raw target of the Clarke element (the lower one on a tie) closest to
    the subdifferential at x."""
    slo, shi = prob.sb.subdiff_interval(prob.x)
    best_t, best_d = prob.p - prob.tau * prob.clarke[0], math.inf
    for t in (prob.p - prob.tau * v for v in prob.clarke):
        d = abs(t - interval_project(t, slo, shi))
        if d < best_d:
            best_t, best_d = t, d
    return InclusionSolution(prob.x, _strip_box(prob.sb, prob.x, best_t,
                                                mode), True)


def _finish(prob: InclusionProblem, y: float, mode: str) -> InclusionSolution:
    t = prob.p - prob.tau * prob.dq(y)
    return InclusionSolution(y, _strip_box(prob.sb, y, t, mode), False)


def _candidate_sides(prob: InclusionProblem, dmin: float, v: float):
    """Search directions ``d``, each with its probe ``y`` at distance dmin
    in the box: first the descent side of the Clarke element v, the
    positive one if v is 0.  A sweep keeps p in dJ(x), so a coordinate
    that is not stationary has no Clarke element 0, and all have v's
    sign."""
    first = 1.0 if v <= 0 else -1.0
    for d in (first, -first):
        y = min(max(prob.x + d * dmin, prob.sb.lower), prob.sb.upper)
        if y != prob.x:
            yield d, y


def _solve_on_side(prob: InclusionProblem, mode: str, d: float,
                   y_prev: float, dmin: float, delta0: float):
    """Probe at ``y_prev``, distance dmin along direction d, then at delta0
    and on doubling distances until the residual changes sign, then
    root-find.  Returns None if this side has no bracket."""
    sb = prob.sb
    bound = sb.upper if d > 0 else sb.lower
    # Near x the residual carries the sign of d on a descent side; if the
    # probe at dmin already shows the far-field sign, the root is closer
    # and we shrink inward instead.
    g_prev = _residual(prob, y_prev)
    if abs(g_prev) <= RESIDUAL_TOL:
        return _finish(prob, y_prev, mode)
    if g_prev * d < 0:
        return _shrink_inward(prob, mode, d, y_prev, g_prev)

    # The ceiling does not grow with delta0: far enough out, a residual
    # such as 1 + |y| - y rounds to 0 on a ray that has no root.
    ceiling = dmin * 2.0 ** _MAX_DOUBLINGS
    step = max(delta0, 2.0 * dmin)
    while step <= ceiling:
        y = min(max(prob.x + d * step, sb.lower), sb.upper)
        g = _residual(prob, y)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, y, mode)
        if g * g_prev < 0:
            return _bracketed_root(prob, mode, y_prev, y)
        if y == bound:
            return None
        y_prev, g_prev = y, g
        step *= 2.0
    raise DivergenceError(
        f"no inclusion root within {ceiling:.3g} of x={prob.x} along "
        f"d={d}; objective may be unbounded below")


def _shrink_inward(prob: InclusionProblem, mode: str, d: float,
                   y0: float, g0: float):
    y_out, g_out = y0, g0
    for _ in range(_MAX_HALVINGS):
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


def brenth(f: Callable[[float], float], a: float, b: float,
           ftol: float = 0.0) -> float:
    """Root of ``f`` in a sign-changing bracket ``[a, b]`` by Brent's method
    (1973) with the steps of SciPy's ``brenth``: secant or hyperbolic
    extrapolation (Bus and Dekker 1975), safeguarded by bisection.  Returns
    the first iterate x with ``|f(x)| <= ftol``, or x once its bracket is
    narrower than ``_BRENT_XTOL + _BRENT_RTOL*|x|``, within 100 steps."""
    xpre, xcur = a, b
    fpre, fcur = f(a), f(b)
    if abs(fpre) <= ftol or abs(fcur) <= ftol:
        return a if abs(fpre) <= ftol else b
    if (fpre < 0) == (fcur < 0):
        raise InclusionError(f"no sign change on [{a}, {b}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if abs(fcur) <= ftol or abs(sbis) < delta:
            return xcur
        stry = math.inf     # bisect unless an extrapolation qualifies
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk - fpre) / (fblk * dpre - fpre * dblk)
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge on [{a}, {b}]")


def _bracketed_root(prob: InclusionProblem, mode: str, a: float, b: float):
    """The solution at the sign change between ``a`` and ``b``: the kink
    of j inside, Brent's root, or that root squeezed between floats."""
    lo, hi = (a, b) if a < b else (b, a)
    sb = prob.sb
    if sb.gamma > 0 and lo < sb.shift < hi:
        # Roots often sit on the kink itself, where the residual jumps
        # and Brent's iterates only crawl towards it.
        g = _residual(prob, sb.shift)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, sb.shift, mode)
        if (g < 0) == (_residual(prob, lo) < 0):
            lo = sb.shift
        else:
            hi = sb.shift
    root = brenth(lambda y: _residual(prob, y), lo, hi, _BRENT_FTOL)
    if abs(g := _residual(prob, root)) > RESIDUAL_TOL:
        root = _ulp_root(prob, lo, hi, root, g)
    return _finish(prob, root, mode)


def _ulp_root(prob: InclusionProblem, lo: float, hi: float, root: float,
              g: float) -> float:
    """The root of the sign change on ``[lo, hi]``, whose ends brenth took
    with opposite residual signs, squeezed between adjacent floats.

    Near a data kink the difference quotient can have slope ~1/|x - s|,
    so the residual moves by more than the tolerance per ulp and no
    representable y satisfies it; bisect the sign change down to
    neighbouring floats and return the side with the smaller residual.
    """
    glo = _residual(prob, lo)
    ghi = _residual(prob, hi)
    if g * glo > 0:
        lo, glo = root, g
    elif g * ghi > 0:
        hi, ghi = root, g
    for _ in range(_MAX_HALVINGS):
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


def solve_inclusion(prob: InclusionProblem,
                    mode: str = "keep_box") -> InclusionSolution:
    """Solve the scalar inclusion; see the module docstring.

    ``mode`` is "keep_box" (subgradient may include the box normal cone)
    or "forget_box" (the normal-cone part is discarded from p_new).
    """
    if mode not in MODES:
        raise InclusionError(f"unknown mode {mode!r}")
    return _try_stationary(prob, mode) or _search(prob, mode)


def _search(prob: InclusionProblem, mode: str) -> InclusionSolution:
    """The root search of :func:`solve_inclusion`, run when no stationary
    update applies."""
    # The search revisits points: bracket ends, Brent's last iterate and
    # the accepted root.
    prob = replace(prob, dq=lru_cache(maxsize=None)(prob.dq))
    dmin = max(_DMIN, _DMIN * abs(prob.x))
    # The cap keeps a bracket inside the probe to a ratio Brent resolves.
    v = interval_project(0.0, *prob.clarke)
    delta0 = min(max(dmin, 0.5 * prob.tau * abs(v)),
                 dmin * 2.0 ** _WARM_DOUBLINGS)
    last_err = None
    for d, y in _candidate_sides(prob, dmin, v):
        try:
            sol = _solve_on_side(prob, mode, d, y, dmin, delta0)
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
