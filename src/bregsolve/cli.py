"""Experiment runner: preset problems, solver dispatch, trace output.

Each invocation generates one problem instance from a named preset and a
seed, runs the requested solver variants on it, and writes one trace CSV
per solver plus a JSON manifest.  Reruns with the same manifest reproduce
identical CSVs except for the wall-clock column.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bregman import BregmanError, BregmanSpec
from .inclusion import InclusionError
from .io_utils import IOError_, read_pgm, write_pgm, write_trace
from .metrics import relative_objective
from .objectives import (L1QuadraticObjective, ObjectiveError,
                         QuadraticObjective, StudentTObjective, add_noise,
                         gaussian_system, impulse_noise, make_test_image)
from .solvers import (CLOSED_FORM_VARIANTS, EUCLIDEAN_VARIANTS, VARIANTS,
                      SolverConfig, SolverError, compiled, make_sweeper, run)

PRESETS = ("gaussian_noiseless", "gaussian_noiseless_binary",
           "gaussian_noisy", "gaussian_noisy_l1", "student_t_denoise")

#: Default solvers of each preset; the last one also makes the long
#: reference run that pins down V*.
_DEFAULT_SOLVERS = {
    "gaussian_noiseless": ("sor", "bsor"),
    "gaussian_noiseless_binary": ("sor", "bsor"),
    "gaussian_noisy": ("sor", "bsor"),
    "gaussian_noisy_l1": ("ia", "l1_bsor"),
    "student_t_denoise": ("ia", "bia"),
}

_STUDENT_T_PHI = 2.0
_STUDENT_T_DENSITY = 0.1


def child_seed(seed: int, role: str) -> int:
    """Derive a sub-seed: first four bytes of sha256(f"{seed}:{role}")."""
    digest = hashlib.sha256(f"{seed}:{role}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Experiment:
    """A fully generated problem instance plus its solver bindings."""
    preset: str
    V: object
    spec: BregmanSpec
    x0: np.ndarray
    xstar: np.ndarray | None
    image_shape: tuple[int, int] | None = None
    noisy_image: np.ndarray | None = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bregsolve",
        description="Run Bregman coordinate solvers on preset problems "
                    "and write convergence trace CSVs.")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--solvers", type=str, default=None,
                   help="comma list of solver variants (preset default "
                        "if omitted)")
    p.add_argument("--n", type=int, default=256,
                   help="problem dimension for gaussian presets")
    p.add_argument("--sparsity", type=float, default=0.1,
                   help="ground-truth support fraction")
    p.add_argument("--binary-gt", action="store_true",
                   help="binary (0/1) ground truth instead of uniform")
    p.add_argument("--noise-level", type=float, default=None,
                   help="gaussian noise std as a fraction of the "
                        "max-norm of the clean data")
    p.add_argument("--gamma", type=float, default=None,
                   help="sparsity weight of the Bregman function")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="l1 regularisation weight of the objective")
    p.add_argument("--tau", type=float, default=None,
                   help="time step (scaled by 1/a_ii on quadratic "
                        "objectives)")
    p.add_argument("--omega", type=float, default=1.0,
                   help="relaxation parameter for sor / step for blcd")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--stop-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image", type=str, default=None,
                   help="input PGM for the denoising preset (synthetic "
                        "test image if omitted)")
    p.add_argument("--out-dir", type=str,
                   default=os.environ.get("BIA_OUT_DIR", "runs"))
    return p


def effective_params(args) -> dict:
    """Fill preset defaults for every parameter left unset."""
    preset = args.preset
    params = {
        "preset": preset,
        "seed": args.seed,
        "iters": args.iters,
        "stop_tol": args.stop_tol,
        "omega": args.omega,
        "gamma": args.gamma,
        "tau": args.tau,
    }
    if preset == "student_t_denoise":
        params["phi"] = _STUDENT_T_PHI
        params["density"] = _STUDENT_T_DENSITY
        if params["gamma"] is None:
            params["gamma"] = 0.5
        if params["tau"] is None:
            params["tau"] = 1.0
        params["image"] = args.image
    else:
        params["n"] = args.n
        params["sparsity"] = args.sparsity
        params["binary_gt"] = bool(args.binary_gt
                                   or preset == "gaussian_noiseless_binary")
        if params["gamma"] is None:
            params["gamma"] = 1.0
        if params["tau"] is None:
            params["tau"] = 2.0
        level = args.noise_level
        if level is None:
            level = 0.1 if preset in ("gaussian_noisy",
                                      "gaussian_noisy_l1") else 0.0
        params["noise_level"] = level
        lam = args.lam
        if lam is None:
            lam = 100.0 * (args.n / 1024.0) \
                if preset == "gaussian_noisy_l1" else 0.0
        params["lam"] = lam
    solvers = args.solvers.split(",") if args.solvers \
        else list(_DEFAULT_SOLVERS[preset])
    params["solvers"] = [s.strip() for s in solvers if s.strip()]
    return params


def build_experiment(params: dict) -> Experiment:
    if params["preset"] == "student_t_denoise":
        return _build_student_t(params)
    return _build_gaussian(params)


def _build_gaussian(params: dict) -> Experiment:
    seed = params["seed"]
    A, b_clean, x_true = gaussian_system(
        params["n"], params["sparsity"], params["binary_gt"],
        seed=child_seed(seed, "system"))
    b = add_noise(b_clean, A, x_true, params["noise_level"],
                  seed=child_seed(seed, "noise"))
    quad = QuadraticObjective(A, b)
    V = L1QuadraticObjective(quad, params["lam"]) if params["lam"] != 0 \
        else quad
    spec = BregmanSpec.elastic_net(params["n"], params["gamma"])
    rng = np.random.default_rng(child_seed(seed, "init"))
    x0 = rng.standard_normal(params["n"])
    return Experiment(params["preset"], V, spec, x0, x_true)


def _build_student_t(params: dict) -> Experiment:
    if params["image"]:
        clean = read_pgm(params["image"])
    else:
        clean = make_test_image()
    h, w = clean.shape
    noisy = impulse_noise(clean, params["density"],
                          seed=child_seed(params["seed"], "noise"))
    x_delta = noisy.ravel()
    phi = params["phi"]
    V = StudentTObjective(h, w, x_delta, phi=(phi, phi))
    spec = BregmanSpec.shifted_elastic_net(params["gamma"], x_delta)
    return Experiment(params["preset"], V, spec, x_delta.copy(), None,
                      image_shape=(h, w), noisy_image=noisy)


def solver_spec(variant: str, exp: Experiment) -> BregmanSpec:
    """Bregman geometry for a variant: euclidean for the
    ``EUCLIDEAN_VARIANTS``, the preset's function for every other."""
    if variant in EUCLIDEAN_VARIANTS:
        return BregmanSpec.euclidean(exp.spec.n)
    return exp.spec


def solver_config(variant: str, params: dict, max_iters: int | None = None,
                  stop_tol: float | None = None) -> SolverConfig:
    return SolverConfig(
        variant=variant,
        tau=params["tau"],
        omega=params["omega"],
        max_iters=params["iters"] if max_iters is None else max_iters,
        stop_tol=params["stop_tol"] if stop_tol is None else stop_tol,
    )


def reference_values(exp: Experiment, params: dict,
                     report: dict | None = None) -> float:
    """Long reference run pinning down V*; it reads only the objective,
    so it skips the Clarke distance of each sweep, and on an image it
    sweeps in red-black order.  Its variant, order, sweeps and
    early stop go into ``report`` if given."""
    variant = _DEFAULT_SOLVERS[exp.preset][-1]
    order = "red_black" if exp.image_shape else "lexicographic"
    cfg = replace(solver_config(variant, params, stop_tol=1e-13,
                                max_iters=10 * params["iters"]), order=order)
    _, records = run(exp.V, solver_spec(variant, exp), exp.x0, cfg,
                     grad_dist=False)
    if report is not None:
        report.update(variant=variant, order=order, sweeps=len(records),
                      stopped_early=len(records) < cfg.max_iters)
    return min(r.objective for r in records)


def run_experiment(params: dict, out_dir: Path) -> dict:
    """Run all requested solvers; returns the manifest written to disk."""
    exp = build_experiment(params)
    for variant in params["solvers"]:   # reject bad settings before any run
        make_sweeper(exp.V, solver_spec(variant, exp),
                     solver_config(variant, params))
    v0 = exp.V.value(exp.x0)
    reference = {}
    vstar = reference_values(exp, params, reference)

    all_records = {}
    for variant in params["solvers"]:
        cfg = solver_config(variant, params)
        state, records = run(exp.V, solver_spec(variant, exp), exp.x0, cfg,
                             xstar=exp.xstar)
        vstar = min([vstar] + [r.objective for r in records])
        all_records[variant] = (state, records)

    manifest = dict(params)
    manifest["version"] = __version__
    manifest["vstar"] = vstar
    manifest["outputs"] = {}

    if exp.image_shape is not None:
        noisy_path = out_dir / f"{exp.preset}_input.pgm"
        write_pgm(noisy_path, exp.noisy_image)
        manifest["outputs"]["input_image"] = str(noisy_path)

    for variant, (state, records) in all_records.items():
        if v0 > vstar:
            for rec in records:
                rec.rel_objective = relative_objective(rec.objective, v0,
                                                       vstar)
        csv_path = out_dir / f"{exp.preset}_{variant}.csv"
        header = {k: v for k, v in manifest.items() if k != "outputs"}
        header["solver"] = variant
        write_trace(csv_path, records, header)
        manifest["outputs"][variant] = str(csv_path)
        if exp.image_shape is not None:
            img_path = out_dir / f"{exp.preset}_{variant}_denoised.pgm"
            write_pgm(img_path, state.x.reshape(exp.image_shape))
            manifest["outputs"][f"{variant}_image"] = str(img_path)

    # Kept out of the CSV headers: which pass ran depends on the host.
    manifest["reference"] = reference
    ran = set(params["solvers"]) | {reference["variant"]}
    closed = ran & set(CLOSED_FORM_VARIANTS)
    if closed:
        kernel = any(compiled("quadratic_pass", variant=v) is not None
                     for v in closed)
        manifest["quadratic_pass"] = "compiled" if kernel else "numpy"
    if ran - closed:
        manifest["inclusion_pass"] = "python" \
            if compiled("inclusion_pass", exp.V) is None else "compiled"
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return manifest


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    params = effective_params(args)
    solvers = params["solvers"]
    unknown = [s for s in solvers if s not in VARIANTS]
    dupes = sorted({s for s in solvers if solvers.count(s) > 1})
    error = ("no solver variants given" if not solvers
             else f"unknown solver variants: {', '.join(unknown)}" if unknown
             else f"duplicate solver variants: {', '.join(dupes)}" if dupes
             else None)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        run_experiment(params, out_dir)
    except (SolverError, InclusionError, BregmanError,
            ObjectiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (IOError_, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
