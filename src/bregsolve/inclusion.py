"""Per-coordinate implicit step of the Bregman coordinate sweep.

Given a scalar Bregman piece j, an incoming subgradient p, a time step tau,
and the coordinate difference quotient DQ of the objective, find y and p'
with ``p' = p - tau * DQ(y)`` and ``p'`` a subgradient of j (plus box) at y.
A stationary update (y unchanged, p moved by a Clarke element) is tried
first.  Otherwise the root of the inclusion residual is bracketed from x
itself, on the descent side d of v, the Clarke element of least magnitude.
The residual there tends to ``p - tau*v_d - j_d(x)`` as y tends to x, with
v_d and j_d(x) the ends of the Clarke interval and of the piece's interval
on side d; since a sweep keeps p in dJ(x), this limit has the sign of d,
and stands for the residual at x, which is never evaluated.  A limit within
the tolerance makes x the root, a stationary update by v_d; one of another
sign means p is not in dJ(x), and raises InclusionError.  The first probe
sits at the warm distance ``max(dmin, tau*|v|/2)``, with
dmin = 1e-8*max(1, |x|), capped at 2**30*dmin, and the probes double
outward until the residual changes sign.  A bracket that strictly
contains the kink of j is split there, and :func:`brenth`, Brent's method,
polishes the root until its residual is at rounding level,
``_BRENT_FTOL``; a root that misses the tolerance, or is x itself, is
squeezed between adjacent floats.  DQ is evaluated once per point: here
through an ``lru_cache``, and through a memo of the coordinate's points in
the compiled student-t sweep, which runs this search bitwise with the
constants below (``_quadpass.flags``).

Where the residual changes sign several times along the ray, the root
returned lies in the first bracket found, not necessarily nearest x: a
pair of sign changes between x and the first probe is skipped, and
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
_MAX_HALVINGS = 200         #: steps of the ulp squeeze
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


def _finish(prob: InclusionProblem, y: float, mode: str) -> InclusionSolution:
    t = prob.p - prob.tau * prob.dq(y)
    return InclusionSolution(y, _strip_box(prob.sb, y, t, mode), False)


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


def _bracketed_root(prob: InclusionProblem, mode: str, f, a: float,
                   b: float):
    """The solution at the sign change of the residual ``f`` between ``a``
    and ``b``: the kink of j inside, Brent's root, or, if that misses the
    tolerance or is x, a root squeezed between floats."""
    lo, hi = (a, b) if a < b else (b, a)
    sb = prob.sb
    if sb.gamma > 0 and lo < sb.shift < hi:
        # Roots often sit on the kink itself, where the residual jumps
        # and Brent's iterates only crawl towards it.
        g = f(sb.shift)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, sb.shift, mode)
        if (g < 0) == (f(lo) < 0):
            lo = sb.shift
        else:
            hi = sb.shift
    root = brenth(f, lo, hi, _BRENT_FTOL)
    if abs(g := f(root)) > RESIDUAL_TOL or root == prob.x:
        root = _ulp_root(f, lo, hi, root, g, prob.x)
    return _finish(prob, root, mode)


def _ulp_root(f, lo: float, hi: float, root: float, g: float,
              x: float) -> float:
    """The root of the sign change of ``f`` on ``[lo, hi]``, whose ends
    brenth took with opposite signs, squeezed between adjacent floats, and
    never x.

    Near a data kink the difference quotient can have slope ~1/|x - s|,
    so the residual moves by more than the tolerance per ulp and no
    representable y satisfies it; bisect the sign change down to
    neighbouring floats and return the side with the smaller residual,
    or the one that is not x.
    """
    glo, ghi = f(lo), f(hi)
    if g * glo > 0:
        lo, glo = root, g
    elif g * ghi > 0:
        hi, ghi = root, g
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = f(mid)
        if abs(gm) <= RESIDUAL_TOL:
            return mid
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    # adjacent floats with opposite residual signs: no better y exists
    return lo if hi == x or (lo != x and abs(glo) <= abs(ghi)) else hi


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
    update applies: the bracket from x on the descent side d of v."""
    # The search revisits points: bracket ends, Brent's last iterate and
    # the accepted root.
    prob = replace(prob, dq=lru_cache(maxsize=None)(prob.dq))
    x, sb = prob.x, prob.sb
    v = interval_project(0.0, *prob.clarke)
    d = 1.0 if v <= 0 else -1.0
    side = d > 0                # the end of an interval on side d
    t0 = prob.p - prob.tau * prob.clarke[side]
    g0 = t0 - sb.j_interval(x)[side]
    if abs(g0) <= RESIDUAL_TOL:
        return InclusionSolution(x, _strip_box(sb, x, t0, mode), True)
    if not g0 * d > 0:
        raise InclusionError(f"p={prob.p} is not a subgradient at x={x}: "
                             f"the residual's limit there is {g0}")

    def f(y):
        return g0 if y == x else _residual(prob, y)
    # The cap keeps a bracket inside the probe to a ratio Brent resolves.
    # The ceiling does not grow with the warm distance: far enough out, a
    # residual such as 1 + |y| - y rounds to 0 on a ray that has no root.
    dmin = max(_DMIN, _DMIN * abs(x))
    step = min(max(dmin, 0.5 * prob.tau * abs(v)),
               dmin * 2.0 ** _WARM_DOUBLINGS)
    # Until the sign changes, each residual has the sign of d, as g0.
    ceiling, y_prev = dmin * 2.0 ** _MAX_DOUBLINGS, x
    while step <= ceiling:
        y = min(max(x + d * step, sb.lower), sb.upper)
        g = f(y)
        if abs(g) <= RESIDUAL_TOL:
            return _finish(prob, y, mode)
        if g * d < 0:
            return _bracketed_root(prob, mode, f, y_prev, y)
        y_prev = y
        step *= 2.0
    raise DivergenceError(
        f"no inclusion root within {ceiling:.3g} of x={x} along "
        f"d={d}; objective may be unbounded below")
