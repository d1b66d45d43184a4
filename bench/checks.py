"""Output checks for one CLI call: files, trace invariants, reruns, golden
final objectives.  Each check returns a list of problems (empty = pass)."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from bregsolve.io_utils import read_trace

#: Same rounding slack as the solver's own dissipation invariant
#: (``solvers.DISSIPATION_TOL``), relative to ``max(1, |objective|)``.
SLACK_TOL = 1e-9
#: Relative tolerance on final objectives against ``golden.json``.  The
#: values are bitwise reproducible on one machine (also with 1 or 2 BLAS
#: threads).  What could move them is rounding, e.g. another BLAS summation
#: order: perturbing every entry of A by ~4e-16 relative moved the final
#: objectives of quad_n1024 and l1_n128 by at most 3e-15 relative, so 1e-9
#: leaves five orders of margin and still catches any change to an iterate
#: the trace would show.
GOLDEN_RTOL = 1e-9
#: Support columns are empty by design for presets without ground truth.
SUPPORT_COLUMNS = ("support_match", "support_error")


def expected_files(preset: str, solvers: list[str],
                   images: bool) -> list[str]:
    names = ["manifest.json"] + [f"{preset}_{s}.csv" for s in solvers]
    if images:
        names.append(f"{preset}_input.pgm")
        names += [f"{preset}_{s}_denoised.pgm" for s in solvers]
    return names


def check_files(out_dir: Path, names: list[str]) -> list[str]:
    return [f"missing output {n}" for n in names
            if not (out_dir / n).is_file()]


def check_trace(records, name: str, has_ground_truth: bool) -> list[str]:
    """Dissipation slack, monotone objective, no NaN outside the support
    columns (which must be all-NaN without a ground truth)."""
    problems = []
    if not records:
        return [f"{name}: no trace rows"]
    prev = math.inf
    for rec in records:
        for col, val in rec.__dict__.items():
            nan_expected = col in SUPPORT_COLUMNS and not has_ground_truth
            if math.isnan(val) != nan_expected:
                state = "is NaN" if math.isnan(val) else "is not empty"
                problems.append(f"{name} iter {rec.iter}: {col} {state}")
        scale = max(1.0, abs(rec.objective))
        if rec.dissipation_slack < -SLACK_TOL * scale:
            problems.append(f"{name} iter {rec.iter}: dissipation_slack "
                            f"{rec.dissipation_slack:.3e} below bound")
        if rec.objective > prev + SLACK_TOL * max(1.0, abs(prev)):
            problems.append(f"{name} iter {rec.iter}: objective rose from "
                            f"{prev!r} to {rec.objective!r}")
        prev = rec.objective
    return problems


def without_wall_ms(path: Path) -> str:
    """Trace text with the last column (``wall_ms``) cut from every row."""
    lines = path.read_text().splitlines()
    return "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in lines)


def check_golden(finals: dict[str, float], golden: dict[str, float]
                 ) -> list[str]:
    problems = []
    for solver, want in golden.items():
        got = finals.get(solver)
        if got is None or not math.isclose(got, want, rel_tol=GOLDEN_RTOL,
                                           abs_tol=GOLDEN_RTOL):
            problems.append(f"{solver}: final objective {got!r}, recorded "
                            f"{want!r}")
    return problems


def check_call(out_dir: Path, preset: str, solvers: list[str],
               images: bool, has_ground_truth: bool):
    """Check one call's outputs.  Returns ``(problems, traces, finals,
    read_s)``: the CSV texts without ``wall_ms``, each solver's final
    objective, and the seconds spent reading the traces back."""
    problems = check_files(out_dir, expected_files(preset, solvers, images))
    traces, finals, read_s = {}, {}, 0.0
    if problems:
        return problems, traces, finals, read_s
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest.get("solvers") != solvers:
        problems.append(f"manifest solvers {manifest.get('solvers')!r}")
    for s in solvers:
        path = out_dir / f"{preset}_{s}.csv"
        t0 = time.perf_counter()
        _, records = read_trace(path)
        read_s += time.perf_counter() - t0
        problems += check_trace(records, s, has_ground_truth)
        traces[s] = without_wall_ms(path)
        finals[s] = records[-1].objective if records else math.nan
    return problems, traces, finals, read_s
