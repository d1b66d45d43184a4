"""Per-sweep diagnostics: relative objective, support statistics, Clarke
gradient distance, step norms, dissipation slack."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bregman import interval_dist_zero
from .objectives import CoordinateObjective

#: Absolute threshold below which an entry counts as exactly zero when
#: comparing signs (closed-form shrinkage produces exact zeros, root-solved
#: variants produce near-zeros).
ZERO_SIGN_TOL = 1e-12

CSV_COLUMNS = ("iter", "objective", "rel_objective", "support_match",
               "support_error", "grad_dist", "step_norm",
               "dissipation_slack", "wall_ms")


class MetricError(ValueError):
    pass


@dataclass
class TraceRecord:
    iter: int
    objective: float
    rel_objective: float
    support_match: float
    support_error: float
    grad_dist: float
    step_norm: float
    dissipation_slack: float
    wall_ms: float

    def row(self) -> tuple:
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


def relative_objective(vk: float, v0: float, vstar: float) -> float:
    """``(V(x_k) - V*) / (V(x_0) - V*)``; requires ``v0 > vstar``."""
    if v0 <= vstar:
        raise MetricError(
            f"degenerate run: V(x0)={v0} does not exceed V*={vstar}")
    return (vk - vstar) / (v0 - vstar)


def _signs(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= ZERO_SIGN_TOL, 0.0, np.sign(x))


def support_stats(xk: np.ndarray, xstar: np.ndarray) -> tuple[float, float]:
    """Fraction of coordinates with matching / mismatching signs."""
    xk = np.asarray(xk, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if xk.shape != xstar.shape:
        raise MetricError(f"length mismatch: {xk.shape} vs {xstar.shape}")
    match = float(np.mean(_signs(xk) == _signs(xstar)))
    return match, 1.0 - match


def clarke_dist(V: CoordinateObjective, x: np.ndarray) -> float:
    """l2 norm of the coordinate-wise distances of the Clarke intervals
    from zero; equals the gradient norm at smooth points."""
    lo, hi = V.clarke_intervals(np.asarray(x, dtype=float))
    return float(np.linalg.norm(interval_dist_zero(lo, hi)))


def dissipation_slack(decrease: float, step_sq: float, mu: float,
                      tau_max: float) -> float:
    """Slack in the per-sweep dissipation bound; should not dip below
    ``-1e-9 * max(1, |V|)`` for any scheme in this package."""
    return decrease - (mu / tau_max) * step_sq
