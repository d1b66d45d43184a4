"""Full-sweep iteration schemes and the outer run loop.

Covers classical SOR/Gauss-Seidel, the Itoh-Abe discrete gradient sweep,
the generic Bregman coordinate sweep (with and without box-subgradient
forgetting), the closed-form shrinkage-SOR variants for elastic-net
Bregman functions, and Bregman linearised coordinate descent, all sharing
one dissipative structure: every sweep decreases the objective by at least
``mu / tau_max`` times the squared step length.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _quadpass, inclusion
from .bregman import (BregmanSpec, PrimalDualState, interval_dist_zero,
                      interval_project, shrink)
from .inclusion import InclusionError, InclusionProblem
from .metrics import (TraceRecord, clarke_dist, dissipation_slack,
                      support_stats)
from .objectives import (CoordinateObjective, QuadraticObjective,
                         StudentTObjective, _QuadraticSweepContext)

VARIANTS = ("sor", "gauss_seidel", "ia", "bia", "bia_modified", "bsor",
            "l1_bsor", "blcd")
#: The variants whose Bregman function is euclidean by definition.
EUCLIDEAN_VARIANTS = ("sor", "gauss_seidel", "ia")
#: The variants swept in closed form, and those of them the C kernel runs.
CLOSED_FORM_VARIANTS = ("sor", "gauss_seidel", "bsor", "l1_bsor", "blcd")
KERNEL_VARIANTS = ("sor", "gauss_seidel", "bsor", "blcd")
ORDERS = ("lexicographic", "red_black")

#: Relative slack allowed in the per-sweep dissipation check.
DISSIPATION_TOL = 1e-9

#: Consecutive small-step sweeps required before declaring convergence.
_STOP_STREAK = 3

#: Sweeps between fresh residuals ``A x - b`` of a closed-form sweeper, which
#: carries its pass's residual in between (van der Vorst & Ye, SISC 22, 2000).
RESIDUAL_REFRESH = 50


class SolverError(RuntimeError):
    pass


class InvariantViolation(SolverError):
    """A structural guarantee (monotone decrease, case analysis) failed."""


@dataclass(frozen=True)
class SolverConfig:
    variant: str
    tau: float = 1.0
    #: Relaxation for sor, step for blcd: one parameter, since
    #: sor(omega) is blcd with gamma = 0 and step omega.
    omega: float = 1.0
    max_iters: int = 200
    stop_tol: float = 1e-8
    order: str = "lexicographic"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SolverError(f"unknown variant {self.variant!r}")
        if self.order not in ORDERS:
            raise SolverError(f"unknown order {self.order!r}")
        if self.variant in ("sor", "gauss_seidel", "blcd") \
                and not 0 < self.omega < 2:
            raise SolverError("omega must lie in (0, 2)")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise SolverError(f"tau must be finite and > 0, got {self.tau}")
        if self.max_iters < 1:
            raise SolverError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.stop_tol >= 0:
            raise SolverError(f"stop_tol must be >= 0, got {self.stop_tol}")


@dataclass
class SweepResult:
    """The iterate pair after one sweep; :func:`run` measures the step."""
    state: PrimalDualState
    r: np.ndarray | None = None     #: ``A x - b``, from a closed-form pass


# ---------------------------------------------------------------------------
# Which passes run compiled
# ---------------------------------------------------------------------------

def compiled(layer: str, V=None, variant: str | None = None):
    """The compiled module if it loaded and runs ``layer``: the
    "quadratic_pass" of a ``variant`` in ``KERNEL_VARIANTS``, the
    "inclusion_pass" on a ``StudentTObjective`` ``V``, not a subclass,
    while :data:`solve_inclusion` is not wrapped; else None, where Python
    (NumPy) runs it.  Callers add their checks."""
    plain = variant in KERNEL_VARIANTS if layer == "quadratic_pass" \
        else type(V) is StudentTObjective \
        and solve_inclusion is inclusion.solve_inclusion
    return _quadpass.load() if plain else None


#: The solve of each coordinate of a Python Bregman sweep; a module global,
#: so that it can be wrapped, which makes :func:`bia_sweep` run in Python.
solve_inclusion = inclusion.solve_inclusion


# ---------------------------------------------------------------------------
# The shared coordinate pass of the quadratic family
# ---------------------------------------------------------------------------

def _quadratic_pass(q: QuadraticObjective, x: np.ndarray, rule,
                    kernel=None, r: np.ndarray | None = None):
    """One lexicographic coordinate pass over the residual cache of ``q``,
    from a copy of ``r = A x - b`` if given; ``rule(i, r_i, y_i, a_ii)``
    gives the new ``y_i`` from ``r_i = (A y - b)_i``.  Returns ``y`` and
    ``r``.  On the plain residual context the C kernel, if it loaded, runs
    the pass instead, bitwise alike, with :func:`_shrinkage`'s rule on
    ``kernel``, its ``(variant, p, h, step, gamma)``."""
    ctx = q.sweep_context(x) if r is None else q.sweep_context(x, r)
    r, y, diag, commit = ctx.r, ctx.y, q.diag, ctx.commit
    name, *args = kernel or (None,)
    lib = compiled("quadratic_pass", variant=name) \
        if type(ctx) is _QuadraticSweepContext else None
    if lib is not None:
        lib.quad_pass(q.A, r, y, *args)
        return y, r
    for i in range(q.n):
        commit(i, rule(i, r[i], y[i], diag[i]))
    return y, r


def _shrinkage(q: QuadraticObjective, state: PrimalDualState, gamma: float,
               h: float, step: float, r, variant: str) -> SweepResult:
    """The closed-form sweep of ``bsor`` (``h = tau/2``, ``step = tau``) and
    ``blcd`` (``h = 0``, ``step = alpha``) on ``p`` itself: coordinate ``i``
    takes ``t = p_i + h x_i - (step / a_ii) g_i``, then ``x_i = shrink(t,
    gamma) / (1 + h)`` and ``p_i = t - h x_i``."""
    p = state.p.copy()

    def rule(i, g, xi, aii):
        t = p[i] + h * xi - (step / aii) * g
        x_new = shrink(t, gamma) / (1.0 + h)
        p[i] = t - h * x_new
        return x_new

    y, r = _quadratic_pass(q, state.x, rule, (variant, p, h, step, gamma), r)
    return SweepResult(PrimalDualState(y, p, state.k + 1), r)


# ---------------------------------------------------------------------------
# Classical SOR / Gauss-Seidel
# ---------------------------------------------------------------------------

def sor_sweep(q: QuadraticObjective, x: np.ndarray,
              omega: float) -> np.ndarray:
    """One relaxation sweep for ``A x = b``: :func:`blcd_sweep` at
    ``gamma = 0`` from ``p = x``, which shrinkage by 0 keeps bitwise."""
    return blcd_sweep(q, PrimalDualState(x, x), 0.0, omega).state.x


def gauss_seidel_sweep(q: QuadraticObjective, x: np.ndarray) -> np.ndarray:
    return sor_sweep(q, x, 1.0)


# ---------------------------------------------------------------------------
# Generic Bregman coordinate sweeps (scalar-inclusion based)
# ---------------------------------------------------------------------------

def bia_sweep(V: CoordinateObjective, spec: BregmanSpec,
              state: PrimalDualState, taus: np.ndarray,
              mode: str = "keep_box", order="lexicographic") -> SweepResult:
    """One Bregman coordinate sweep, one scalar inclusion per index of
    ``order``: index order, an array of indices, or ``"red_black"``, the
    red pixels of ``V.colours`` and then the black.  Before any is solved:
    SolverError unless taus, x, p and spec have V.n entries, InclusionError
    for an unknown mode, IndexError for an index outside ``range(n)``.

    On a plain student-t objective the compiled module, if it loaded,
    runs the whole sweep, bitwise alike, from the spec's shift, gamma and
    box, and hands each coordinate it cannot solve to Python's solve,
    which alone builds ``spec.pieces``.  Python's loop runs the sweep
    otherwise, and wherever :data:`solve_inclusion` is wrapped, so that
    the wrapper sees every coordinate."""
    taus = np.ascontiguousarray(taus, dtype=float)
    if {taus.shape, state.x.shape, state.p.shape, (spec.n,)} != {(V.n,)}:
        raise SolverError(f"taus, x, p and the spec need {V.n} entries")
    if mode not in inclusion.MODES:
        raise InclusionError(f"unknown mode {mode!r}")
    ctx = V.sweep_context(state.x)
    if isinstance(order, str):
        order = V.red_black if order == "red_black" else np.arange(spec.n)
    idx = np.asarray(order, dtype=np.intp)
    outside = idx[(idx < 0) | (idx >= V.n)]
    if outside.size:
        raise IndexError(f"no coordinate {outside[0]}")
    p = state.p.copy()

    def solve(i):
        """Coordinate ``i`` solved in Python, from the live image."""
        sol = solve_inclusion(InclusionProblem(
            spec.pieces[i], ctx.y.item(i), p.item(i), taus.item(i),
            ctx.dq(i), ctx.clarke(i)), mode)
        p[i] = sol.p_new
        if not sol.stationary:
            ctx.commit(i, sol.y)
    lib = compiled("inclusion_pass", V)
    if lib is not None:
        lib.sweep(ctx.y, V.h, V.w, *V.phi, V.x_delta, idx, spec.shift,
                  spec.gamma, spec.lower, spec.upper, p, taus,
                  mode == "forget_box", solve)
    else:
        for i in idx.tolist():
            solve(i)
    return SweepResult(PrimalDualState(ctx.y, p, state.k + 1))


def ia_sweep(V: CoordinateObjective, state: PrimalDualState,
             taus: np.ndarray) -> SweepResult:
    """Itoh-Abe discrete gradient sweep (euclidean Bregman function)."""
    return bia_sweep(V, BregmanSpec.euclidean(len(state.x)), state, taus)


# ---------------------------------------------------------------------------
# Closed-form elastic-net sweeps for quadratic objectives
# ---------------------------------------------------------------------------

def bsor_sweep(q: QuadraticObjective, state: PrimalDualState, gamma: float,
               tau: float, r: np.ndarray | None = None) -> SweepResult:
    """Shrinkage-modified SOR sweep for ``J = ||.||^2/2 + gamma*||.||_1``,
    ``gamma >= 0``: the scalar-inclusion sweep with elastic-net pieces and
    steps ``tau / a_ii``, in closed form on ``p`` (:func:`_shrinkage` with
    ``h = tau / 2``).  At ``gamma = 0`` it is the Itoh-Abe sweep with those
    steps, which is SOR with ``omega = 2 tau / (2 + tau)``.
    """
    if not (gamma >= 0 and math.isfinite(tau) and tau > 0):
        raise SolverError("bsor requires gamma >= 0 and a finite tau > 0")
    return _shrinkage(q, state, gamma, tau / 2.0, tau, r, "bsor")


def l1_bsor_sweep(q: QuadraticObjective, state: PrimalDualState,
                  gamma: float, lam: float, tau: float, r=None) -> SweepResult:
    """Closed-form sweep for the l1-regularised quadratic objective with an
    elastic-net Bregman function, ``gamma >= 0``, on ``p`` itself: each
    coordinate solves the monotone equation of
    :func:`_l1_coordinate_update` in ``c = p_i + (tau/2) x_i - t g_i``,
    ``t = tau / a_ii``, by the side of zero its root falls on.  At ``gamma
    = 0`` it is the euclidean implicit step of ``ia``.
    """
    if not (gamma >= 0 and lam >= 0 and math.isfinite(tau) and tau > 0):
        raise SolverError("l1_bsor requires gamma >= 0, lam >= 0 and a "
                          "finite tau > 0")
    p = state.p.copy()
    h = tau / 2.0

    def rule(i, g, xi, aii):
        t = tau / aii
        c = p[i] + h * xi - t * g
        x_new, p[i] = _l1_coordinate_update(xi, p[i], g, c, t, t * lam,
                                            gamma, lam, 1.0 + h)
        return x_new

    y, r = _quadratic_pass(q, state.x, rule, r=r)
    return SweepResult(PrimalDualState(y, p, state.k + 1), r)


def _l1_coordinate_update(xi, pi, g, c, t, tl, gamma, lam, kappa):
    """The new ``(x_i, p_i)``: the root ``y`` of ``c in kappa y + gamma
    d|y| + tl (|y| - |x_i|) / (y - x_i)``.  The right side increases in
    ``y``, so the root is unique; the side of zero it lies on is the case."""
    sgn_c = math.copysign(1.0, c) if c != 0 else 0.0
    sgn_x = math.copysign(1.0, xi) if xi != 0 else 0.0
    # Case 1: zero stays admissible; p moves by the admissible Clarke
    # element of smallest magnitude, as the scalar inclusion takes it.
    if xi == 0.0 and abs(c) <= gamma + tl:
        v = interval_project(0.0, max(g - lam, (pi - gamma) / t),
                             min(g + lam, (pi + gamma) / t))
        return 0.0, pi - t * v
    # Case 2: a shrinkage move on (or onto) the side of c.
    if abs(c) > gamma + tl and (xi == 0.0 or sgn_x == sgn_c):
        x_new = (c - (gamma + tl) * sgn_c) / kappa
        return x_new, x_new + gamma * sgn_c
    # Case 3 is u sgn(x) >= -gamma: a move to zero.  Otherwise, NaN
    # included, case 4 crosses to side s = -sgn(x).  Times y - x, its
    # equation reads f(y) = (kappa y + gamma s - c)(y - x) + tl s (y + x)
    # = 0, and f(0) = -|x| (s u - gamma) < 0: one root lies on each side
    # of zero, and the step takes side s's.
    u = c - tl * sgn_x
    if not u * sgn_x >= -gamma:
        s = -sgn_x
        B = gamma * s + tl * s - c - kappa * xi
        w = c - gamma * s + tl * s      # f(y) = kappa y^2 + B y + xi w
        # The roots are m times those of kappa z^2 + B/m z + xi w/m^2,
        # whose coefficients neither overflow nor square to infinity.
        m = max(abs(B), math.sqrt(abs(xi)) * math.sqrt(abs(w)))
        B, C = B / m, xi / m * (w / m)
        sq = math.sqrt(B * B - 4.0 * kappa * C)
        # Rounding is monotone, so C <= 0 as computed too; of the stable
        # pair qq / kappa and C / qq, the second is the root nearest zero.
        qq = -0.5 * (B + sq) if B >= 0.0 else -0.5 * (B - sq)
        y = m * (C / qq if qq * s < 0.0 else qq / kappa)
        if y != 0.0:
            if not 0.0 < y * s < math.inf:
                raise InvariantViolation(
                    f"no finite root on side {s}: x={xi}, p={pi}, g={g}, "
                    f"c={c}, t={t}, gamma={gamma}, lam={lam}")
            return y, y + gamma * s
    # Case 3, and a crossing root of 0: the kink, with p clamped to
    # [-gamma, gamma], which also takes u sgn(x) > gamma at case 2's edge.
    return 0.0, min(gamma, max(-gamma, u))


# ---------------------------------------------------------------------------
# Bregman linearised coordinate descent
# ---------------------------------------------------------------------------

def blcd_sweep(q: QuadraticObjective, state: PrimalDualState, gamma: float,
               alpha: float, r: np.ndarray | None = None) -> SweepResult:
    """Linearised coordinate step through the elastic-net Bregman geometry.

    Each coordinate minimises the local linearisation plus a diagonal-scaled
    Bregman distance; the update is a plain shrinkage of the shifted
    subgradient.  With ``gamma = 0`` this is explicit coordinate descent
    with steps ``alpha / a_ii``.
    """
    if not (0 < alpha < 2 and gamma >= 0):
        raise SolverError("blcd requires 0 < alpha < 2 and gamma >= 0")
    return _shrinkage(q, state, gamma, 0.0, alpha, r, "blcd")


# ---------------------------------------------------------------------------
# Stationarity diagnostics
# ---------------------------------------------------------------------------

def stationarity_residual(V: CoordinateObjective, x: np.ndarray,
                          spec: BregmanSpec | None = None) -> np.ndarray:
    """Coordinate-wise first-order deficit at ``x``.

    Zero where every coordinate direction is non-descending (or blocked by
    an active box constraint); reduces to ``|grad V|`` at smooth interior
    points.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = V.clarke_intervals(x)
    if spec is not None:
        lo = np.where(x <= spec.lower, -math.inf, lo)
        hi = np.where(x >= spec.upper, math.inf, hi)
    return interval_dist_zero(lo, hi)


# ---------------------------------------------------------------------------
# Outer run loop
# ---------------------------------------------------------------------------

def coordinate_time_steps(cfg: SolverConfig,
                          V: CoordinateObjective) -> np.ndarray:
    """Per-coordinate time steps of the Bregman sweep that ``cfg`` runs on
    ``V``: ``2 omega / ((2 - omega) a_ii)`` for the relaxation sweeps, which
    are the Bregman sweep with those steps, ``tau / a_ii`` for every other
    variant on a quadratic objective, and ``tau`` otherwise."""
    if not isinstance(V, QuadraticObjective):
        return np.full(V.n, cfg.tau)
    if cfg.variant in ("sor", "gauss_seidel", "blcd"):
        omega = 1.0 if cfg.variant == "gauss_seidel" else cfg.omega
        return 2.0 * omega / ((2.0 - omega) * V.diag)
    return cfg.tau / V.diag


def make_sweeper(V: CoordinateObjective, spec: BregmanSpec,
                 cfg: SolverConfig):
    """Bind a config to a single-sweep callable ``state -> SweepResult``;
    raises :class:`SolverError` for settings the sweep cannot run."""
    variant = cfg.variant
    if cfg.order == "red_black" and not (
            variant in ("ia", "bia", "bia_modified")
            and isinstance(V, StudentTObjective)):
        raise SolverError("red_black order needs ia, bia or bia_modified "
                          "on a student-t objective")
    if variant in CLOSED_FORM_VARIANTS:
        if not isinstance(V, QuadraticObjective):
            raise SolverError(f"{variant} requires a quadratic objective")
        if V.lam != 0 and variant != "l1_bsor":
            raise SolverError(f"{variant} requires lam == 0; use l1_bsor "
                              "for l1-regularised objectives")
        # The closed forms read spec.gamma alone: no shift, no box.
        shifted = spec.gamma != 0 and np.any(spec.shift)
        if shifted or (spec.lower, spec.upper) != (-math.inf, math.inf):
            raise SolverError(f"{variant} requires an unshifted elastic-net "
                              "spec without a box")
    tau, gamma = cfg.tau, spec.gamma
    # Where these overflow, p carries values (gamma, tau * x / 2) whose
    # rounding swamps x: such a gamma or tau is refused before any sweep.
    with np.errstate(over="ignore"):
        taus = coordinate_time_steps(cfg, V)
        consts = [taus]
        if variant in ("bsor", "l1_bsor"):
            consts += [2.0 * tau / (2.0 + tau), 2.0 * gamma / (2.0 + tau),
                       gamma * V.diag]
    if not all(np.all(np.isfinite(c)) for c in consts):
        raise SolverError(f"tau={tau:g}, gamma={gamma:g}: the step "
                          f"constants of {variant} overflow")

    if variant in EUCLIDEAN_VARIANTS and gamma != 0:
        raise SolverError(f"{variant} requires a euclidean Bregman function")
    if variant in ("ia", "bia", "bia_modified"):
        mode = "forget_box" if variant == "bia_modified" else "keep_box"
        return lambda state: bia_sweep(V, spec, state, taus, mode, cfg.order)

    if variant == "bsor":
        sweep = partial(bsor_sweep, V, gamma=gamma, tau=tau)
    elif variant == "l1_bsor":
        sweep = partial(l1_bsor_sweep, V, gamma=gamma, lam=V.lam, tau=tau)
    else:   # sor(omega) and gauss_seidel, sor(1), are blcd at gamma = 0.
        omega = 1.0 if variant == "gauss_seidel" else cfg.omega
        sweep = partial(blcd_sweep, V, gamma=gamma, alpha=omega)
    last, age = None, 0

    def carried(state):
        """``sweep(state, r)``, ``r`` the last result's residual if ``state``
        is its state, else None (fresh), and None each RESIDUAL_REFRESH-th."""
        nonlocal last, age
        own = last is not None and state is last.state
        age = (age + 1) % RESIDUAL_REFRESH if own else 0
        last = sweep(state, r=last.r if age else None)
        return last
    return carried


def run(V: CoordinateObjective, spec: BregmanSpec, x0: np.ndarray,
        cfg: SolverConfig, xstar: np.ndarray | None = None,
        grad_dist: bool = True):
    """Iterate sweeps until convergence or the iteration budget.

    Returns ``(final_state, [TraceRecord])``.  Each record holds
    ``V(x_k)``, evaluated once per sweep, and the support statistics
    against ``xstar`` when given; ``rel_objective`` is left NaN for the
    caller that knows ``V*``, and ``grad_dist`` is NaN unless
    ``grad_dist`` is set.  When a sweep returns its residual, both come
    from it in O(n).  Stops when the squared primal and dual steps
    stay below ``stop_tol**2`` for three consecutive sweeps.  Raises
    :class:`InvariantViolation` if a sweep's dissipation slack falls below
    ``-DISSIPATION_TOL * max(1, |V|)``, and :class:`BregmanError` if a
    sweep leaves ``p_k`` outside ``dJ(x_k)`` or ``x_k`` outside the box.
    """
    state = PrimalDualState.initial(spec, x0)
    sweep = make_sweeper(V, spec, cfg)
    tau_max = float(np.max(coordinate_time_steps(cfg, V)))
    v_prev = V.value(state.x)
    records: list[TraceRecord] = []
    streak = 0
    for _ in range(cfg.max_iters):
        t_start = time.perf_counter()
        res = sweep(state)
        wall_ms = (time.perf_counter() - t_start) * 1e3
        new, r = res.state, res.r
        v = V.value(new.x) if r is None else V.value(new.x, r)
        decrease = float(v_prev - v)
        step, dstep = new.x - state.x, new.p - state.p
        step_sq, dual_step_sq = float(step @ step), float(dstep @ dstep)
        slack = dissipation_slack(decrease, step_sq, spec.mu, tau_max)
        # Negated, so that NaN fails too; slack <= decrease, so a rise does.
        if not slack >= -DISSIPATION_TOL * max(1.0, abs(v_prev)):
            raise InvariantViolation(
                f"dissipation slack {slack:.3e} at sweep {new.k} "
                f"(objective decrease {decrease:.3e})")
        new.validate(spec)
        match = err = math.nan
        if xstar is not None:
            match, err = support_stats(new.x, xstar)
        records.append(TraceRecord(
            iter=new.k,
            objective=v,
            rel_objective=math.nan,
            support_match=match,
            support_error=err,
            grad_dist=clarke_dist(V, new.x, r) if grad_dist else math.nan,
            step_norm=math.sqrt(step_sq),
            dissipation_slack=slack,
            wall_ms=wall_ms,
        ))
        state, v_prev = new, v
        # A frozen primal iterate is not enough: the subgradient can still
        # be drifting across a kink, after which the primal moves again.
        small = max(step_sq, dual_step_sq) <= cfg.stop_tol ** 2
        streak = streak + 1 if small else 0
        if streak >= _STOP_STREAK:
            break
    return state, records
