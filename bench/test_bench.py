"""Tests of the benchmark's own tracer and output checks.

Run from the repository root (about 10 s):

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from bregsolve import cli  # noqa: E402
from bregsolve.metrics import TraceRecord  # noqa: E402


def traced_call(tmp_path, workload, *extra, hooks=tracer.HOOKS):
    t = tracer.Tracer(hooks)
    with t:
        code = cli.main(run.WORKLOADS[workload] + list(extra)
                        + ["--seed", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    return t


def sweep_spans(t, variants):
    return sum(1 for s in t.spans
               if s[3] in {f"solvers.sweep.{v}" for v in variants})


@pytest.fixture(scope="module")
def denoise(tmp_path_factory):
    # --iters 1: ten reference bia sweeps plus one ia and one bia sweep
    return traced_call(tmp_path_factory.mktemp("denoise"), "denoise_64",
                       "--iters", "1")


def test_inclusion_calls_are_n_per_ia_or_bia_sweep(denoise, tmp_path):
    assert sweep_spans(denoise, ("ia", "bia")) == 12
    assert denoise.c["inclusion_calls"] == 64 * 64 * 12
    l1 = traced_call(tmp_path, "l1_n128", "--iters", "20")
    assert sweep_spans(l1, ("ia",)) == 20
    assert l1.c["inclusion_calls"] == 128 * 20
    assert denoise.counter_violations() == []
    assert l1.counter_violations() == []


def test_stationary_and_nonstationary_inclusions_add_up(denoise):
    c = denoise.c
    assert c["stationary"] > 0 and c["nonstationary"] > 0
    assert c["stationary"] + c["nonstationary"] == c["inclusion_calls"]
    assert c["inclusion_errors"] == 0


def test_quad_n1024_makes_no_inclusion_calls(tmp_path):
    t = traced_call(tmp_path, "quad_n1024")
    m = t.call_metrics(read_s=0.0)
    assert m["inclusion.calls"] == 0
    assert m["objectives.dq_s"] == 0
    assert m["cli.reference_sweeps"] == 200
    assert sorted(t.sweep_ms) == ["blcd", "bsor", "sor"]
    assert t.counter_violations() == []


def test_counter_violation_is_reported(denoise):
    t = tracer.Tracer()
    t.c.update(denoise.c)
    t.c["inclusion_calls"] += 1
    assert len(t.counter_violations()) == 2


def test_missing_hook_is_reported_as_absent(tmp_path):
    hooks = tracer.HOOKS + (
        ("bregsolve.solvers", "bsor_sweep_gone", "_wrap_brent"),
        ("bregsolve.no_such_module", "run", "_wrap_run"),
    )
    t = traced_call(tmp_path, "l1_n128", "--iters", "2", hooks=hooks)
    assert t.absent == ["bregsolve.solvers.bsor_sweep_gone",
                        "bregsolve.no_such_module.run"]
    assert t.c["inclusion_calls"] == 128 * 2


def test_hooks_are_removed_on_exit(tmp_path):
    before = (cli.run, cli.build_experiment)
    traced_call(tmp_path, "l1_n128", "--iters", "1")
    assert (cli.run, cli.build_experiment) == before


def _record(k, objective, slack=0.0, support=0.5):
    return TraceRecord(k, objective, 0.1, support, 1 - support, 1.0, 1.0,
                       slack, 2.0)


def test_trace_checks_catch_each_invariant():
    good = [_record(1, 5.0), _record(2, 4.0)]
    assert checks.check_trace(good, "s", has_ground_truth=True) == []
    rising = [_record(1, 4.0), _record(2, 5.0)]
    assert checks.check_trace(rising, "s", True)
    assert checks.check_trace([_record(1, 4.0, slack=-1e-6)], "s", True)
    assert checks.check_trace([_record(1, float("nan"))], "s", True)
    assert checks.check_trace(good, "s", has_ground_truth=False)
    empty = [_record(1, 5.0, support=float("nan"))]
    assert checks.check_trace(empty, "s", has_ground_truth=False) == []


def test_rerun_comparison_ignores_only_wall_ms(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("# seed: 1\niter,objective,wall_ms\n1,2.5,0.1\n")
    b.write_text("# seed: 1\niter,objective,wall_ms\n1,2.5,0.7\n")
    assert checks.without_wall_ms(a) == checks.without_wall_ms(b)
    b.write_text("# seed: 1\niter,objective,wall_ms\n1,2.6,0.1\n")
    assert checks.without_wall_ms(a) != checks.without_wall_ms(b)


def test_golden_check_uses_relative_tolerance():
    assert checks.check_golden({"bsor": -1.0 - 1e-12}, {"bsor": -1.0}) == []
    assert checks.check_golden({"bsor": -1.0 - 1e-6}, {"bsor": -1.0})
    assert checks.check_golden({}, {"bsor": -1.0})
