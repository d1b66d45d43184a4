"""Separable Bregman functions and the scalar nonsmooth operators built on them.

A Bregman function here is a coordinate-wise sum of scalar pieces
``j(x) = x**2 / 2 + gamma * |x - shift_i|``, with one ``gamma`` and a
per-coordinate shift, plus the indicator of a box ``[lower, upper]``.
Every piece is 1-strongly convex, so subdifferentials are nonempty closed
intervals whose lower bound grows at least linearly, which is what the
coordinate solvers rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

#: Absolute tolerance for subgradient interval membership after a
#: closed-form update (closed forms are exact up to rounding).
MEMBERSHIP_TOL = 1e-9


class BregmanError(ValueError):
    """Invalid Bregman configuration or a violated precondition."""


def shrink(x: float, lam: float) -> float:
    """Soft-thresholding ``sgn(x) * max(|x| - lam, 0)``."""
    if lam < 0:
        raise BregmanError(f"shrinkage threshold must be >= 0, got {lam}")
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def interval_project(t: float, lo: float, hi: float) -> float:
    """Nearest point of the closed interval ``[lo, hi]`` to ``t``: bitwise
    ``min(max(t, lo), hi)``, whose first argument wins ties and NaN."""
    t = lo if lo > t else t
    return hi if hi < t else t


def interval_dist_zero(lo, hi):
    """Distance from 0 to the interval ``[lo, hi]`` (0 if it contains 0),
    elementwise; requires ``lo <= hi``."""
    return np.maximum(lo, 0.0) + np.maximum(-hi, 0.0)


def l1_interval(g: float, d: float, w: float) -> tuple[float, float]:
    """Subdifferential ``g + w * sgn(d)`` of a term with derivative ``g``
    plus ``w * |d|``, where ``d`` is the offset from the l1 kink; on the
    kink (``d == 0``) the sign spans ``[-1, 1]``."""
    if d > 0:
        return (g + w, g + w)
    if d < 0:
        return (g - w, g - w)
    return (g - w, g + w)


def l1_intervals(g: np.ndarray, d: np.ndarray, w: float):
    """Vectorised :func:`l1_interval`, returning ``(lo, hi)`` arrays."""
    s = np.sign(d)
    return (g + w * np.where(s == 0, -1.0, s),
            g + w * np.where(s == 0, 1.0, s))


@dataclass(frozen=True, slots=True)
class ScalarBregman:
    """One separable piece ``j(x) = x^2/2 + gamma*|x - shift|`` on a box.

    ``gamma = 0`` is the euclidean piece and ``shift = 0`` the elastic
    net.  The box may be unbounded via IEEE infinities.
    """

    gamma: float = 0.0
    shift: float = 0.0
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        # Negated comparisons, so that NaN fails them too.
        if not self.gamma >= 0:
            raise BregmanError(f"gamma must be >= 0, got {self.gamma}")
        if not self.lower <= self.upper:
            raise BregmanError(f"empty box [{self.lower}, {self.upper}]")

    def in_box(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def j_value(self, x: float) -> float:
        """Value of the scalar piece, without the box indicator."""
        return 0.5 * x * x + self.gamma * abs(x - self.shift)

    def j_interval(self, x: float) -> tuple[float, float]:
        """Subdifferential of the scalar piece alone, as ``(lo, hi)``."""
        gamma = self.gamma
        if gamma == 0.0:
            return (x, x)
        return (x - gamma if x <= self.shift else x + gamma,
                x + gamma if x >= self.shift else x - gamma)

    def subdiff_interval(self, x: float) -> tuple[float, float]:
        """Subdifferential of piece + box indicator at ``x`` in the box."""
        lower, upper = self.lower, self.upper
        if not lower <= x <= upper:
            raise BregmanError(f"point {x} outside box [{lower}, {upper}]")
        lo, hi = self.j_interval(x)
        return (-math.inf if x == lower else lo,
                math.inf if x == upper else hi)


def euclidean_piece(lower: float = -math.inf,
                    upper: float = math.inf) -> ScalarBregman:
    return ScalarBregman(0.0, 0.0, lower, upper)


def elastic_net_piece(gamma: float, lower: float = -math.inf,
                      upper: float = math.inf) -> ScalarBregman:
    return ScalarBregman(gamma, 0.0, lower, upper)


@dataclass(frozen=True, eq=False)
class BregmanSpec:
    """Separable Bregman function
    ``J(x) = sum_i x_i^2/2 + gamma*|x_i - shift_i|`` plus the indicator of
    the box ``[lower, upper]`` in every coordinate."""

    shift: np.ndarray
    gamma: float = 0.0
    lower: float = -math.inf
    upper: float = math.inf
    #: Strong-convexity modulus, fixed: every piece is 1-strongly convex.
    mu: ClassVar[float] = 1.0

    def __post_init__(self):
        shift = np.array(self.shift, dtype=float)
        if shift.ndim != 1 or not np.all(np.isfinite(shift)):
            raise BregmanError("shift must be a finite 1-d vector")
        object.__setattr__(self, "shift", shift)
        # A piece with the spec's gamma and box checks both.
        ScalarBregman(self.gamma, 0.0, self.lower, self.upper)
        # J must be finite on the box: at gamma = inf, J(shift) is inf * 0.
        if not math.isfinite(self.gamma):
            raise BregmanError(f"gamma must be finite, got {self.gamma}")
        # Plain floats, which the compiled sweep reads from the pieces.
        for name in ("gamma", "lower", "upper"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.shift)

    @classmethod
    def euclidean(cls, n: int, lower: float = -math.inf,
                  upper: float = math.inf) -> "BregmanSpec":
        return cls(np.zeros(n), 0.0, lower, upper)

    @classmethod
    def elastic_net(cls, n: int, gamma: float, lower: float = -math.inf,
                    upper: float = math.inf) -> "BregmanSpec":
        return cls(np.zeros(n), gamma, lower, upper)

    @classmethod
    def shifted_elastic_net(cls, gamma: float,
                            shifts: np.ndarray) -> "BregmanSpec":
        return cls(shifts, gamma)

    @cached_property
    def pieces(self) -> tuple[ScalarBregman, ...]:
        """The scalar piece of each coordinate, built on first use once per
        distinct shift, keyed by its bits, so that -0.0 has its own."""
        _, first, inv = np.unique(self.shift.view(np.int64),
                                  return_index=True, return_inverse=True)
        made = [ScalarBregman(self.gamma, s, self.lower, self.upper)
                for s in self.shift[first].tolist()]
        return tuple(map(made.__getitem__, inv.tolist()))

    def value(self, x: np.ndarray) -> float:
        """Value including the box indicator (+inf outside the box)."""
        x = self._check_dim(x)
        if not self.in_box(x):
            return math.inf
        return float(np.sum(0.5 * x * x + self.gamma * np.abs(x - self.shift)))

    def in_box(self, x: np.ndarray) -> bool:
        x = self._check_dim(x)
        return bool(np.all((self.lower <= x) & (x <= self.upper)))

    def subdiff_intervals(self, x: np.ndarray):
        """``(lo, hi)`` arrays of the subdifferential of J at ``x`` in the
        box: the l1 interval of each piece, unbounded on the side of an
        active box edge."""
        x = self._check_dim(x)
        if not self.in_box(x):
            raise BregmanError("point outside the box constraints")
        return self.intervals(x)

    def intervals(self, x: np.ndarray):
        """:meth:`subdiff_intervals` without its checks, for an ``x`` of
        the right length known to lie in the box."""
        lo, hi = l1_intervals(x, x - self.shift, self.gamma)
        return (np.where(x == self.lower, -math.inf, lo),
                np.where(x == self.upper, math.inf, hi))

    def min_norm_subgradient(self, x: np.ndarray) -> np.ndarray:
        """Element of the subdifferential at ``x`` of smallest magnitude."""
        return np.clip(0.0, *self.subdiff_intervals(x))

    def contains_subgradient(self, x: np.ndarray, p: np.ndarray,
                             tol: float = MEMBERSHIP_TOL) -> bool:
        lo, hi = self.subdiff_intervals(x)
        p = self._check_dim(p)
        return bool(np.all((lo - tol <= p) & (p <= hi + tol)))

    def membership_violation(self, x: np.ndarray, p: np.ndarray) -> float:
        """Largest coordinate-wise distance of ``p`` from the subdifferential."""
        lo, hi = self.subdiff_intervals(x)
        p = self._check_dim(p)
        return float(np.max(np.abs(p - np.clip(p, lo, hi)), initial=0.0))

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise BregmanError(f"expected vector of length {self.n}, "
                               f"got shape {x.shape}")
        return x


def bregman_distance(spec: BregmanSpec, x: np.ndarray, p: np.ndarray,
                     y: np.ndarray) -> float:
    """Generalised distance ``J(y) - J(x) - <p, y - x>`` for ``p`` in dJ(x).

    Nonnegative, and at least ``mu/2 * ||y - x||^2`` by strong convexity.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if not spec.contains_subgradient(x, p):
        raise BregmanError("p is not a subgradient of J at x")
    return spec.value(y) - spec.value(x) - float(np.dot(p, y - x))


@dataclass
class PrimalDualState:
    """Iterate pair ``(x, p)`` with ``p`` a subgradient of J at ``x``."""

    x: np.ndarray
    p: np.ndarray
    k: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).copy()
        self.p = np.asarray(self.p, dtype=float).copy()
        if self.x.shape != self.p.shape:
            raise BregmanError("x and p must have matching shapes")

    @classmethod
    def initial(cls, spec: BregmanSpec, x0: np.ndarray) -> "PrimalDualState":
        """Start from ``x0`` with the minimal-norm subgradient as ``p0``."""
        x0 = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise BregmanError("x0 must be finite")
        if not spec.in_box(x0):
            raise BregmanError("x0 violates the box constraints")
        return cls(x0, spec.min_norm_subgradient(x0), 0)

    def validate(self, spec: BregmanSpec, tol: float = MEMBERSHIP_TOL):
        if not spec.in_box(self.x):
            raise BregmanError("state x left the box constraints")
        lo, hi = spec.intervals(self.x)
        if not np.all((lo - tol <= self.p) & (self.p <= hi + tol)):
            raise BregmanError("state p is not a subgradient of J at x")
