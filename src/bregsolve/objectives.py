"""Objective functions exposed through a coordinate-wise interface.

Each objective provides values, exact coordinate difference quotients, and
per-coordinate Clarke subgradient intervals.  Sweep contexts carry the
incremental caches (quadratic residuals, stencil neighbourhoods) that make
a full coordinate sweep cheap; the generic two-evaluation quotient stays
available as an independent oracle.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .bregman import l1_interval, l1_intervals

#: Relative threshold below which a coordinate move counts as stationary
#: and the 0/0 difference quotient falls back to a Clarke element.
STATIONARY_REL_TOL = 1e-14


class ObjectiveError(ValueError):
    """Dimension mismatch or invalid objective data."""


def _midpoint(lo: float, hi: float) -> float:
    if math.isinf(lo) or math.isinf(hi):
        raise ObjectiveError("cannot take midpoint of an unbounded interval")
    return 0.5 * (lo + hi)


def is_stationary_move(old: float, new: float) -> bool:
    return abs(new - old) <= STATIONARY_REL_TOL * max(1.0, abs(old))


class CoordinateObjective:
    """Contract for objectives driven by the coordinate sweep solvers.

    Subclasses must set ``n`` and implement ``value`` and
    ``coord_clarke_interval``; the generic difference quotient and sweep
    context below work for any of them but are worth overriding when an
    incremental evaluation exists.
    """

    n: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def coord_clarke_interval(self, y: np.ndarray,
                              i: int) -> tuple[float, float]:
        """Projection of the Clarke subdifferential onto coordinate ``i``."""
        raise NotImplementedError

    def coord_diff_quotient(self, y: np.ndarray, i: int, old: float,
                            new: float) -> float:
        """(V(y with y_i=new) - V(y with y_i=old)) / (new - old).

        Generic two-evaluation fallback; ``y`` is the partially updated
        sweep vector with ``y[i] == old``.
        """
        if is_stationary_move(old, new):
            return _midpoint(*self.coord_clarke_interval(y, i))
        y_new = np.array(y, dtype=float)
        y_new[i] = new
        y_old = np.array(y, dtype=float)
        y_old[i] = old
        return (self.value(y_new) - self.value(y_old)) / (new - old)

    def clarke_intervals(self, x: np.ndarray):
        """(lo, hi) arrays of the coordinate Clarke intervals at ``x``.

        Per-coordinate loop over :meth:`coord_clarke_interval`; subclasses
        override it with a vectorised form.
        """
        x = self._check(x)
        lo = np.empty(self.n)
        hi = np.empty(self.n)
        for i in range(self.n):
            lo[i], hi[i] = self.coord_clarke_interval(x, i)
        return lo, hi

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ObjectiveError(f"expected vector of length {self.n}, "
                                 f"got shape {x.shape}")
        return x

    def sweep_context(self, x: np.ndarray) -> "SweepContext":
        return SweepContext(self, x)


class SweepContext:
    """Mutable per-sweep view of an objective at the partial vector ``y``.

    Owned by a single solver run; not shareable across threads.
    """

    def __init__(self, objective: CoordinateObjective, x: np.ndarray):
        self.objective = objective
        self.y = np.array(x, dtype=float)

    def dq(self, i: int):
        """O(1)-per-call quotient ``new -> DQ`` at the current partial y."""
        obj, y, old = self.objective, self.y, float(self.y[i])
        return lambda new: obj.coord_diff_quotient(y, i, old, new)

    def clarke(self, i: int) -> tuple[float, float]:
        return self.objective.coord_clarke_interval(self.y, i)

    def commit(self, i: int, new: float):
        self.y[i] = new


def _quadratic_quotient(g: float, aii: float, lam: float, old: float,
                        new: float) -> float:
    """Difference quotient of the quadratic plus ``lam * |.|`` along one
    coordinate, with partial derivative ``g`` of the quadratic at ``old``."""
    if is_stationary_move(old, new):
        # On the kink the Clarke midpoint is g itself; computed as
        # 0.5 * ((g - lam) + (g + lam)) it can be off by rounding.
        return g if old == 0.0 else l1_interval(g, old, lam)[0]
    dq = g + 0.5 * aii * (new - old)
    return dq + lam * (abs(new) - abs(old)) / (new - old)


class QuadraticObjective(CoordinateObjective):
    """``V(x) = <x, A x>/2 - <b, x> + lam * ||x||_1`` for symmetric PSD A
    with positive diagonal; ``lam`` is 0 here and set by
    :class:`L1QuadraticObjective`."""

    lam = 0.0

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ObjectiveError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ObjectiveError("b length must match A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ObjectiveError("A and b must be finite")
        if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
            raise ObjectiveError("A must be symmetric")
        if np.any(np.diag(A) <= 0):
            raise ObjectiveError("A must have strictly positive diagonal")
        self.A = A
        self.b = b
        self.n = A.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.A)

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        return 0.5 * float(x @ (self.A @ x)) - float(self.b @ x)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Gradient ``A x - b`` of the quadratic part, computed fresh."""
        return self.A @ self._check(x) - self.b

    def coord_clarke_interval(self, y, i):
        g = float(self.A[i] @ y - self.b[i])
        return l1_interval(g, float(y[i]), self.lam)

    def coord_diff_quotient(self, y, i, old, new):
        g = float(self.A[i] @ y - self.b[i])
        return _quadratic_quotient(g, float(self.A[i, i]), self.lam, old, new)

    def clarke_intervals(self, x):
        return l1_intervals(self.residual(x), x, self.lam)

    def sweep_context(self, x):
        return _QuadraticSweepContext(self, x)


class _QuadraticSweepContext(SweepContext):
    """Maintains the residual cache ``r = A y - b`` across coordinate
    commits."""

    def __init__(self, objective: QuadraticObjective, x):
        super().__init__(objective, x)
        self.r = objective.A @ self.y - objective.b

    def dq(self, i: int):
        g = float(self.r[i])
        aii = float(self.objective.A[i, i])
        return partial(_quadratic_quotient, g, aii, self.objective.lam,
                       float(self.y[i]))

    def clarke(self, i: int):
        return l1_interval(float(self.r[i]), float(self.y[i]),
                           self.objective.lam)

    def commit(self, i: int, new: float):
        delta = new - self.y[i]
        if delta != 0.0:
            self.r += self.objective.A[:, i] * delta
            self.y[i] = new


class L1QuadraticObjective(QuadraticObjective):
    """Quadratic objective plus an l1 penalty ``lam * ||x||_1``, sharing
    ``A`` and ``b`` with ``quad``."""

    def __init__(self, quad: QuadraticObjective, lam: float):
        if not (math.isfinite(lam) and lam >= 0):
            raise ObjectiveError(f"lam must be finite and >= 0, got {lam}")
        self.A = quad.A
        self.b = quad.b
        self.n = quad.n
        self.lam = lam

    def value(self, x):
        return super().value(x) + self.lam * float(np.abs(x).sum())


def _psi(t):
    return np.log1p(t * t)


def _psi_prime(t):
    return 2.0 * t / (1.0 + t * t)


class StudentTObjective(CoordinateObjective):
    """Nonconvex denoising objective with student-t filter penalties.

    ``V(x) = sum_f phi_f * sum_j log(1 + (K_f x)_j^2) + ||x - x_delta||_1``
    where the filters are forward first-order differences (horizontal and
    vertical) with the difference set to 0 at the trailing edge.
    """

    def __init__(self, h: int, w: int, x_delta: np.ndarray,
                 phi: tuple[float, float] = (2.0, 2.0)):
        x_delta = np.asarray(x_delta, dtype=float)
        if x_delta.shape != (h * w,):
            raise ObjectiveError(
                f"x_delta must be flat of length {h * w}, got {x_delta.shape}")
        if not np.all(np.isfinite(x_delta)):
            raise ObjectiveError("x_delta must be finite")
        if not all(math.isfinite(p) and p >= 0 for p in phi):
            raise ObjectiveError("filter weights must be finite and >= 0")
        self.h = h
        self.w = w
        self.n = h * w
        self.x_delta = x_delta
        self.phi = (float(phi[0]), float(phi[1]))

    def _diffs(self, img: np.ndarray):
        dx = np.zeros_like(img)
        dy = np.zeros_like(img)
        dx[:, :-1] = img[:, 1:] - img[:, :-1]
        dy[:-1, :] = img[1:, :] - img[:-1, :]
        return dx, dy

    def value(self, x):
        x = self._check(x)
        img = x.reshape(self.h, self.w)
        dx, dy = self._diffs(img)
        reg = self.phi[0] * float(_psi(dx).sum()) \
            + self.phi[1] * float(_psi(dy).sum())
        return reg + float(np.abs(x - self.x_delta).sum())

    def _stencil_terms(self, y: np.ndarray, i: int):
        """(weight, neighbour, orientation) for filter outputs touching i.

        orientation +1 means the output is ``neighbour - y_i``; -1 means
        ``y_i - neighbour``.
        """
        h, w = self.h, self.w
        r, c = divmod(i, w)
        terms = []
        if c + 1 < w:
            terms.append((self.phi[0], float(y[i + 1]), +1))
        if c > 0:
            terms.append((self.phi[0], float(y[i - 1]), -1))
        if r + 1 < h:
            terms.append((self.phi[1], float(y[i + w]), +1))
        if r > 0:
            terms.append((self.phi[1], float(y[i - w]), -1))
        return terms

    def _smooth_partial(self, terms, xi: float) -> float:
        g = 0.0
        for wgt, nb, orient in terms:
            d = (nb - xi) if orient > 0 else (xi - nb)
            g += wgt * _psi_prime(d) * (-orient)
        return g

    def coord_clarke_interval(self, y, i):
        terms = self._stencil_terms(y, i)
        xi = float(y[i])
        g = self._smooth_partial(terms, xi)
        return l1_interval(g, xi - self.x_delta[i], 1.0)

    def coord_diff_quotient(self, y, i, old, new):
        if is_stationary_move(old, new):
            return _midpoint(*self.coord_clarke_interval(y, i))
        terms = self._stencil_terms(y, i)
        return self._local_delta(terms, i, old, new) / (new - old)

    def _local_delta(self, terms, i, old, new):
        """Change in V from moving coordinate i, touching O(1) terms.

        Computed cancellation-free: the psi difference is
        ``log1p((d_new^2 - d_old^2) / (1 + d_old^2))`` with the squared
        difference in factored form, and the l1 difference reduces to
        ``+-(new - old)`` away from the data kink, so the result stays
        accurate relative to ``new - old`` even for tiny moves.
        """
        step = new - old
        delta = 0.0
        for wgt, nb, orient in terms:
            if orient > 0:
                d_old = nb - old
                d_step = -step
            else:
                d_old = old - nb
                d_step = step
            d_new = d_old + d_step
            z = d_step * (d_new + d_old) / (1.0 + d_old * d_old)
            delta += wgt * math.log1p(z)
        s = self.x_delta[i]
        d_old = old - s
        d_new = new - s
        if d_old >= 0 and d_new >= 0:
            delta += step
        elif d_old <= 0 and d_new <= 0:
            delta -= step
        else:
            # opposite signs: |d_new| - |d_old| = +-(d_new + d_old)
            delta += (d_new + d_old) if d_new > 0 else -(d_new + d_old)
        return delta

    def clarke_intervals(self, x):
        x = self._check(x)
        img = x.reshape(self.h, self.w)
        dx, dy = self._diffs(img)
        g = np.zeros_like(img)
        # d/dx_{r,c} of psi(dx(r,c)) is -psi'(dx), of psi(dx(r,c-1)) is +psi'.
        g -= self.phi[0] * _psi_prime(dx)
        g[:, 1:] += self.phi[0] * _psi_prime(dx[:, :-1])
        g -= self.phi[1] * _psi_prime(dy)
        g[1:, :] += self.phi[1] * _psi_prime(dy[:-1, :])
        return l1_intervals(g.reshape(-1), x - self.x_delta, 1.0)

    def sweep_context(self, x):
        return _StudentTSweepContext(self, x)


class _StudentTSweepContext(SweepContext):
    def dq(self, i: int):
        obj: StudentTObjective = self.objective
        terms = obj._stencil_terms(self.y, i)
        old = float(self.y[i])
        clarke = None

        def quotient(new: float) -> float:
            nonlocal clarke
            if is_stationary_move(old, new):
                if clarke is None:
                    clarke = obj.coord_clarke_interval(self.y, i)
                return _midpoint(*clarke)
            return obj._local_delta(terms, i, old, new) / (new - old)

        return quotient


def itoh_abe_discrete_gradient(V: CoordinateObjective, x: np.ndarray,
                               y: np.ndarray) -> np.ndarray:
    """Vector of successive coordinate difference quotients from x to y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    partial = x.copy()
    out = np.empty_like(x)
    for i in range(len(x)):
        out[i] = V.coord_diff_quotient(partial, i, float(x[i]), float(y[i]))
        partial[i] = y[i]
    return out


# ---------------------------------------------------------------------------
# Synthetic problem generators
# ---------------------------------------------------------------------------

def gaussian_system(n: int, sparsity: float = 0.1, binary_gt: bool = False,
                    seed: int = 0):
    """Random Gaussian least-squares system with sparse ground truth.

    ``A = G^T G`` for a standard Gaussian ``G`` (symmetric PSD with positive
    diagonal almost surely); the ground truth has exactly
    ``ceil(sparsity * n)`` nonzeros, uniform(0,1)-valued or all ones when
    ``binary_gt``; ``b = A @ x_true``.
    """
    if n < 1:
        raise ObjectiveError("n must be >= 1")
    if not 0 < sparsity <= 1:
        raise ObjectiveError("sparsity must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G.T @ G
    k = math.ceil(sparsity * n)
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[support] = 1.0 if binary_gt else rng.uniform(0.0, 1.0, size=k)
    b = A @ x_true
    return A, b, x_true


def add_noise(b: np.ndarray, A, x_true: np.ndarray, level: float,
              seed: int = 0) -> np.ndarray:
    """Add iid Gaussian noise with std ``level * ||A x_true||_inf`` to b."""
    if not (math.isfinite(level) and level >= 0):
        raise ObjectiveError(f"noise level must be finite and >= 0: {level}")
    b = np.asarray(b, dtype=float)
    if level == 0:
        return b.copy()
    scale = level * float(np.max(np.abs(A @ x_true)))
    rng = np.random.default_rng(seed)
    return b + rng.normal(0.0, scale, size=b.shape)


def impulse_noise(img: np.ndarray, density: float,
                  seed: int = 0) -> np.ndarray:
    """Replace exactly ``ceil(density * size)`` pixels by 0 or 1.

    The corrupted pixels are chosen without replacement; replacement values
    are 0 or 1 with equal probability.
    """
    if not 0 <= density <= 1:
        raise ObjectiveError("density must lie in [0, 1]")
    img = np.asarray(img, dtype=float)
    out = img.copy()
    if density == 0:
        return out
    flat = out.reshape(-1)
    k = math.ceil(density * flat.size)
    rng = np.random.default_rng(seed)
    idx = rng.choice(flat.size, size=k, replace=False)
    flat[idx] = rng.integers(0, 2, size=k).astype(float)
    return out


def make_test_image(h: int = 64, w: int = 64) -> np.ndarray:
    """Deterministic piecewise-constant test image with values in [0, 1]."""
    img = np.full((h, w), 0.2)
    img[h // 8: h // 2, w // 8: w // 2] = 0.8
    img[5 * h // 8: 7 * h // 8, w // 2: 7 * w // 8] = 0.5
    img[h // 6: 5 * h // 6, 2 * w // 3: 3 * w // 4] = 1.0
    return img
