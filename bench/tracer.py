"""Per-layer tracing for the benchmark, installed from outside ``src/``.

A :class:`Tracer` wraps the public functions each layer exposes (looked up
by module and attribute name), records spans for the coarse boundaries
(experiment build, reference run, solver runs, sweeps, file writes) and
aggregated counters for the per-coordinate ones (scalar inclusions,
difference quotients, Brent calls, objective values, Clarke distances).
Spans stay in memory until :meth:`Tracer.write_spans`.  A hook whose
target no longer exists is listed in ``Tracer.absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

#: Variants whose sweeps solve one scalar inclusion per coordinate.
INCLUSION_VARIANTS = ("ia", "bia", "bia_modified")
#: Closed-form variants: each moved coordinate updates the residual with a
#: column of A, reading the column and the residual and writing the
#: residual, 3 * 8 bytes per row.
CLOSED_FORM_VARIANTS = ("sor", "gauss_seidel", "bsor", "l1_bsor", "blcd")
#: Variants named in the per-layer metrics (every solver of every workload).
REPORTED_VARIANTS = ("sor", "bsor", "blcd", "ia", "bia", "l1_bsor")

# (module, attribute) pairs the tracer wraps, with the wrapper factory.
HOOKS = (
    ("bregsolve.cli", "build_experiment", "_wrap_build"),
    ("bregsolve.cli", "reference_values", "_wrap_reference"),
    ("bregsolve.cli", "run", "_wrap_run"),
    ("bregsolve.cli", "write_trace", "_wrap_write"),
    ("bregsolve.cli", "write_pgm", "_wrap_write"),
    ("bregsolve.solvers", "make_sweeper", "_wrap_make_sweeper"),
    ("bregsolve.solvers", "solve_inclusion", "_wrap_inclusion"),
    ("bregsolve.solvers", "clarke_dist", "_wrap_clarke_dist"),
    ("bregsolve.inclusion", "brenth", "_wrap_brent"),
    ("bregsolve.objectives", "QuadraticObjective.value", "_wrap_value"),
    ("bregsolve.objectives", "L1QuadraticObjective.value", "_wrap_value"),
    ("bregsolve.objectives", "StudentTObjective.value", "_wrap_value"),
    ("bregsolve.bregman", "BregmanSpec.euclidean", "_wrap_spec"),
    ("bregsolve.bregman", "BregmanSpec.elastic_net", "_wrap_spec"),
    ("bregsolve.bregman", "BregmanSpec.shifted_elastic_net", "_wrap_spec"),
)


class Tracer:
    """Spans and counters for one process; install, run calls, uninstall.

    Not thread-safe: the benchmark drives the program from one thread.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.absent: list[str] = []
        self.spans: list[list] = []    # [call, id, parent, name, t0, t1]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._depth = defaultdict(int)
        self._phase = "solver"
        self.call_id = 0
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def reset(self):
        """Start a new call: clear per-call counters and sweep samples."""
        self.call_id += 1
        self.c = defaultdict(float)
        self.sweep_ms = defaultdict(list)     # solver-phase sweeps by variant
        self.run_s = defaultdict(float)       # solver-phase runs by variant

    def install(self):
        for module_name, attr, factory in self.hooks:
            target = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *parents, name = attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[name] if isinstance(owner, type) \
                    else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            wrap = getattr(self, factory)
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__, target))
            else:
                new = wrap(raw, target)
            setattr(owner, name, new)
            self._undo.append((owner, name, raw))

    def uninstall(self):
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.call_id, span_id, parent, name,
                           time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id):
        self._stack.pop()
        t1 = time.perf_counter()
        span = self.spans[span_id]
        span[5] = t1
        return t1 - span[4]

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    def write_spans(self, path, extra: dict):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = ("call", "id", "parent", "name", "start_s", "end_s")
        doc = dict(extra, absent_hooks=self.absent, span_columns=cols,
                   spans=self.spans)
        path.write_text(json.dumps(doc) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _timed_span(self, fn, name, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.c[key] += self._close(span_id)
        return wrapper

    def _wrap_build(self, fn, target):
        return self._timed_span(fn, "cli.build_experiment",
                                "cli.build_experiment_s")

    def _wrap_reference(self, fn, target):
        inner = self._timed_span(fn, "cli.reference_values",
                                 "cli.reference_s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._phase = "reference"
            try:
                return inner(*args, **kwargs)
            finally:
                self._phase = "solver"
        return wrapper

    def _wrap_run(self, fn, target):
        @functools.wraps(fn)
        def wrapper(V, spec, x0, cfg, *args, **kwargs):
            span_id = self._open(f"solvers.run.{cfg.variant}")
            try:
                return fn(V, spec, x0, cfg, *args, **kwargs)
            finally:
                dt = self._close(span_id)
                self.c["run_total_s"] += dt
                if self._phase == "solver":
                    self.run_s[cfg.variant] += dt
        return wrapper

    def _wrap_make_sweeper(self, fn, target):
        @functools.wraps(fn)
        def wrapper(V, spec, cfg):
            sweep = fn(V, spec, cfg)
            variant, n = cfg.variant, spec.n

            def traced_sweep(state):
                span_id = self._open(f"solvers.sweep.{variant}")
                try:
                    result = sweep(state)
                finally:
                    dt = self._close(span_id)
                self.c["sweep_total_s"] += dt
                moved = int(np.count_nonzero(result.state.x != state.x))
                self.c["sweeps"] += 1
                self.c["coords_visited"] += n
                self.c["coords_moved"] += moved
                if variant in CLOSED_FORM_VARIANTS:
                    self.c["kernel_bytes"] += 24 * n * moved
                if variant in INCLUSION_VARIANTS:
                    self.c["expected_inclusions"] += n
                if self._phase == "reference":
                    self.c["reference_sweeps"] += 1
                else:
                    self.sweep_ms[variant].append(dt * 1e3)
                return result
            return traced_sweep
        return wrapper

    def _wrap_inclusion(self, fn, target):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(prob, *args, **kwargs):
            dq = prob.dq
            acc = [0.0, 0]   # seconds in dq, dq evaluations

            def timed_dq(y):
                t0 = clock()
                value = dq(y)
                acc[0] += clock() - t0
                acc[1] += 1
                return value

            prob.dq = timed_dq
            c = self.c
            c["inclusion_calls"] += 1
            t0 = clock()
            try:
                sol = fn(prob, *args, **kwargs)
            except Exception:
                c["inclusion_errors"] += 1
                raise
            finally:
                c["inclusion_self_s"] += clock() - t0 - acc[0]
                c["dq_s"] += acc[0]
                c["dq_calls"] += acc[1]
                prob.dq = dq
            if sol.stationary:
                c["stationary"] += 1
            else:
                c["nonstationary"] += 1
                c["dq_calls_nonstationary"] += acc[1]
            return sol
        return wrapper

    def _wrap_brent(self, fn, target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.c["brent_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn, key):
        """Count and time the outermost call only (nested calls, such as
        the l1 objective calling its quadratic part, are inside it)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[key] -= 1
                if self._depth[key] == 0:
                    self.c[key + "_s"] += time.perf_counter() - t0
                    self.c[key + "_calls"] += 1
        return wrapper

    def _wrap_clarke_dist(self, fn, target):
        return self._counted(fn, "clarke_dist")

    def _wrap_value(self, fn, target):
        return self._counted(fn, "value")

    def _wrap_spec(self, fn, target):
        return self._counted(fn, "spec")

    def _wrap_write(self, fn, target):
        name = "io_utils." + target.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            span_id = self._open(name)
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.c["write_s"] += self._close(span_id)
                self.c["bytes_written"] += Path(path).stat().st_size
        return wrapper

    # -- per-call results -----------------------------------------------------

    def call_metrics(self, read_s: float) -> dict:
        """Per-layer values of the current call (see ``bench/README.md``)."""
        c = self.c
        calls = c["inclusion_calls"]
        nonstat = c["nonstationary"]
        run_total = c["run_total_s"]
        m = {
            "cli.build_experiment_s": c["cli.build_experiment_s"],
            "cli.reference_s": c["cli.reference_s"],
            "cli.reference_sweeps": c["reference_sweeps"],
            "solvers.loop_overhead_frac":
                (run_total - c["sweep_total_s"]) / run_total
                if run_total else 0.0,
            "solvers.moved_frac": c["coords_moved"] / c["coords_visited"]
                if c["coords_visited"] else 0.0,
            "solvers.kernel_bytes_computed": c["kernel_bytes"],
            "inclusion.calls": calls,
            "inclusion.self_s": c["inclusion_self_s"],
            "inclusion.stationary_frac": c["stationary"] / calls
                if calls else 0.0,
            "inclusion.dq_per_call": c["dq_calls"] / calls if calls else 0.0,
            "inclusion.dq_per_nonstationary":
                c["dq_calls_nonstationary"] / nonstat if nonstat else 0.0,
            "inclusion.brent_calls": c["brent_calls"],
            "inclusion.errors": c["inclusion_errors"],
            "objectives.dq_s": c["dq_s"],
            "objectives.value_calls": c["value_calls"],
            "objectives.value_s": c["value_s"],
            "metrics.clarke_dist_calls": c["clarke_dist_calls"],
            "metrics.clarke_dist_s": c["clarke_dist_s"],
            "bregman.spec_s": c["spec_s"],
            "io_utils.write_s": c["write_s"],
            "io_utils.bytes_written": c["bytes_written"],
            "io_utils.read_s": read_s,
        }
        for v in REPORTED_VARIANTS:
            m[f"solvers.run_s.{v}"] = self.run_s.get(v, 0.0)
        return m

    def counter_violations(self) -> list[str]:
        """Identities the counters of the current call must satisfy."""
        c = self.c
        out = []
        if c["inclusion_calls"] != c["expected_inclusions"]:
            out.append(f"inclusion.calls {c['inclusion_calls']:.0f} != n x "
                       f"ia/bia sweeps {c['expected_inclusions']:.0f}")
        if c["stationary"] + c["nonstationary"] != c["inclusion_calls"]:
            out.append(f"stationary {c['stationary']:.0f} + non-stationary "
                       f"{c['nonstationary']:.0f} != inclusion.calls "
                       f"{c['inclusion_calls']:.0f}")
        return out


def sweep_percentiles(samples: dict[str, list[float]]) -> dict:
    """p50 / p90 of pooled solver-phase sweep times per reported variant
    (0 for a variant the workload does not run)."""
    out = {}
    for v in REPORTED_VARIANTS:
        xs = samples.get(v, [])
        p50 = p90 = 0.0
        if xs:
            p50, p90 = (float(q) for q in np.percentile(xs, [50, 90]))
        out[f"solvers.sweep_ms_p50.{v}"] = p50
        out[f"solvers.sweep_ms_p90.{v}"] = p90
    return out


def median_metrics(per_call: list[dict]) -> dict:
    return {k: float(median(m[k] for m in per_call)) for k in per_call[0]}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "frac"
    if name.startswith("solvers.sweep_ms"):
        return "ms"
    if name.endswith("_s") or ".run_s." in name:
        return "s"
    if name.endswith("bytes_written") or name.endswith("bytes_computed"):
        return "B"
    if name.startswith("inclusion.dq_per"):
        return "count/call"
    return "count"
