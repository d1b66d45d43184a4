"""Benchmark of the bregsolve experiment CLI, one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload quad_n1024 --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it times ``cli.build_experiment`` (``setup_s``) and whole
in-process ``cli.main`` calls (``preset_s``) with tracing off.  With
``--trace 1`` it wraps each layer's public functions (see ``tracer.py``) and
reports per-layer metrics instead.  Every call's outputs are checked (see
``checks.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit and sample count, and the
environment.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

#: BLAS threads for every library numpy may load.  The program is otherwise
#: single-threaded, so the run uses one of the machine's 2 cores.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: CLI arguments of each workload; ``--seed`` and ``--out-dir`` are added.
#: l1_n128 is not in BENCHMARK.json (see README.md) but runs on request.
WORKLOADS = {
    "quad_n1024": ["--preset", "gaussian_noiseless", "--n", "1024",
                   "--iters", "20", "--solvers", "sor,bsor,blcd"],
    "denoise_64": ["--preset", "student_t_denoise", "--iters", "2"],
    "l1_n128": ["--preset", "gaussian_noisy_l1", "--n", "128",
                "--iters", "12"],
}

#: Timed calls per run, at least, whatever ``--seconds`` says.
MIN_CALLS = 3
#: After each timed call, ``build_experiment`` is timed for this share of
#: the call's duration (at least ``SETUP_MIN_CALLS`` times), so that
#: ``setup_s`` samples the same stretch of time as ``preset_s``.
SETUP_SHARE = 0.1
SETUP_MIN_CALLS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import bregsolve from this checkout's ``src`` with the BLAS thread
    count pinned; returns the modules or raises ``ImportError``."""
    if not (SRC / "bregsolve" / "__init__.py").is_file():
        raise ImportError(f"no bregsolve package under {SRC}")
    pin_to_one_cpu()
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from bregsolve import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bregsolve imported from {cli.__file__}, "
                          f"not from {SRC}")
    return numpy, scipy, cli


def pin_to_one_cpu():
    """Keep this process on the last CPU it may use.  On the shared 2-core
    machine the benchmark was built on, this halved the run-to-run spread
    of ``preset_s`` on quad_n1024 (6.5% against 12-13% over five seeds)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(numpy, scipy, args) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(cli, params, seconds) -> list[float]:
    """Wall times of repeated ``cli.build_experiment`` calls: at least
    ``SETUP_MIN_CALLS``, and as many more as fit in ``seconds``."""
    times = []
    gc.collect()
    end = time.perf_counter() + seconds
    while len(times) < SETUP_MIN_CALLS or time.perf_counter() < end:
        t0 = time.perf_counter()
        cli.build_experiment(params)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Makes checked ``cli.main`` calls for one workload."""

    def __init__(self, cli, checks, name, seed, work):
        self.cli = cli
        self.checks = checks
        self.name = name
        self.seed = seed
        params = cli.effective_params(cli.build_parser().parse_args(
            WORKLOADS[name] + ["--seed", str(seed)]))
        self.params = params
        self.preset = params["preset"]
        self.solvers = params["solvers"]
        self.images = self.preset == "student_t_denoise"
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.first_traces = None   # CSVs of the first timed call

    def call(self, seed=None):
        """One timed call plus its checks, on the workload seed unless
        ``seed`` is given.  Returns ``(seconds, finals, read_s)``; seconds
        is None if the call failed."""
        rerun = seed is None
        argv = WORKLOADS[self.name] + ["--seed", str(self.seed if rerun
                                                    else seed),
                                       "--out-dir", str(self.out_dir)]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
        problems = [] if code == 0 else [f"exit code {code}"]
        finals, read_s = {}, 0.0
        if not problems:
            found, traces, finals, read_s = self.checks.check_call(
                self.out_dir, self.preset, self.solvers, self.images,
                has_ground_truth=not self.images)
            problems += found
            if rerun and not found:
                if self.first_traces is None:
                    self.first_traces = traces
                elif traces != self.first_traces:
                    problems.append("rerun CSVs differ beyond wall_ms")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return None, finals, read_s
        return seconds, finals, read_s

    def golden_call(self, golden: dict):
        """Warm-up call on the recorded seed, checked against the final
        objectives in ``golden.json``; not counted in the timings."""
        want = golden["final_objective"].get(self.name, {})
        seconds, finals, _ = self.call(seed=golden["seed"])
        problems = self.checks.check_golden(finals, want) if want \
            else ["no recorded final objectives"]
        if seconds is not None and problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: golden {p}", file=sys.stderr)
        return finals


def timed_loop(call, seconds):
    """Run ``call`` until the next one would end after ``seconds`` (at
    least ``MIN_CALLS`` times); returns the durations of calls that passed
    (``call`` returns None for a failed one)."""
    times = []
    deadline = time.perf_counter() + seconds
    for done in itertools.count(1):
        result = call()
        if result is not None:
            times.append(result)
        if done >= MIN_CALLS \
                and time.perf_counter() + (result or 0.0) > deadline:
            return times


def summary(xs):
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = quantiles(xs, n=4)
    return f"n={len(xs)}, q1 {q1:.4f}, q3 {q3:.4f}, max {max(xs):.4f}"


def run_untraced(runner, cli, args):
    setup = []

    def call():
        seconds = runner.call()[0]
        setup.extend(measure_setup(cli, runner.params,
                                   SETUP_SHARE * (seconds or 0.0)))
        return seconds

    times = timed_loop(call, args.seconds)
    if not times:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s      {median(setup):.6f} s   median of "
          f"build_experiment calls ({summary(setup)})")
    print(f"preset_s     {median(times):.6f} s   median of cli.main calls, "
          f"warm-up not counted ({summary(times)})")
    print("preset_s calls " + " ".join(f"{t:.4f}" for t in times))
    print(f"fail_frac    {runner.failed / runner.attempted:.4f}   "
          f"({runner.failed} of {runner.attempted} calls)")
    print(f"peak_rss_mb  {rss_mb:.3f} MB")
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "preset_s": {"value": median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def run_traced(runner, args, work):
    import tracer as tr

    per_call, sweeps, traced_s = [], {}, []
    t = tr.Tracer()

    def traced_call():
        t.reset()
        with t.span("cli.main"):
            seconds, _, read_s = runner.call()
        if seconds is None:
            return None
        bad = t.counter_violations()
        if bad:
            runner.failed += 1
            for p in bad:
                print(f"check failed: counters: {p}", file=sys.stderr)
            return None
        per_call.append(t.call_metrics(read_s))
        for v, xs in t.sweep_ms.items():
            sweeps.setdefault(v, []).extend(xs)
        traced_s.append(seconds)
        return seconds

    with t:
        timed_loop(traced_call, args.seconds)
    if not per_call:
        return {}
    values = tr.median_metrics(per_call)
    values.update(tr.sweep_percentiles(sweeps))
    values["traced.preset_s"] = median(traced_s)
    values["trace.absent_hooks"] = len(t.absent)
    spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.json"
    t.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
    for name in t.absent:
        print(f"absent hook: {name}")
    print(f"traced {len(per_call)} calls; sweeps per variant: "
          + ", ".join(f"{v}={len(xs)}" for v, xs in sorted(sweeps.items()))
          + f"; spans in {spans_path.relative_to(ROOT)}")
    metrics = {}
    for name, value in values.items():
        unit = tr.unit_of(name)
        print(f"{name:36s} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy, scipy, cli = import_program()
        import checks
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(cli, checks, args.workload, args.seed, work)
    env = environment(numpy, scipy, args)
    try:
        finals = runner.golden_call(golden)
        if args.trace:
            metrics = run_traced(runner, args, work)
        else:
            metrics = run_untraced(runner, cli, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("golden-seed finals " + json.dumps(finals, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    if not metrics:
        print("error: no call passed its checks", file=sys.stderr)
        return 3
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
