"""Tests for trace/PGM I/O and the command-line runner."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bregsolve
from bregsolve import cli
from bregsolve.cli import (build_parser, child_seed, effective_params,
                           main)
from bregsolve.io_utils import (IOError_, PGMError, read_pgm, read_trace,
                                write_pgm, write_trace)
from bregsolve.metrics import CSV_COLUMNS, TraceRecord
from bregsolve.objectives import make_test_image


def make_records(n):
    return [TraceRecord(iter=k + 1, objective=10.0 - k, rel_objective=0.5,
                        support_match=0.9, support_error=0.1,
                        grad_dist=1.0, step_norm=0.2,
                        dissipation_slack=0.0, wall_ms=1.5)
            for k in range(n)]


class TestTraceCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        recs = make_records(5)
        write_trace(path, recs, {"preset": "demo", "seed": 7})
        manifest, back = read_trace(path)
        assert manifest["preset"] == "demo"
        assert manifest["seed"] == "7"
        assert len(back) == 5
        for a, b in zip(recs, back):
            assert a.row() == b.row()

    def test_header_line_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, make_records(1))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_nan_cells_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        rec = make_records(1)[0]
        rec.rel_objective = math.nan
        write_trace(path, [rec])
        _, back = read_trace(path)
        assert math.isnan(back[0].rel_objective)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IOError_):
            read_trace(path)
        # A header followed by a row that does not parse as numbers.
        header = ",".join(CSV_COLUMNS)
        for row in ("abc" + ",1" * 8, ",1" * 8, "1.5" + ",1" * 8):
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(IOError_, match="row"):
                read_trace(path)


class TestPGM:
    def test_round_trip_bytes(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_pgm(p1, img)
        back = read_pgm(p1)
        write_pgm(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_quantized(self, tmp_path):
        img = make_test_image(8, 8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (8, 8)
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_clipping(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[-1.0, 2.0]]))
        back = read_pgm(path)
        assert back[0, 0] == 0.0 and back[0, 1] == 1.0

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 4)
        with pytest.raises(PGMError, match="byte 0"):
            read_pgm(path)

    def test_truncated_body_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\0" * 7)
        with pytest.raises(PGMError, match="offset"):
            read_pgm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\0\0")
        with pytest.raises(PGMError, match="maxval"):
            read_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x7f")
        img = read_pgm(path)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(127 / 255.0)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(PGMError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))


class TestSeedSplitting:
    def test_deterministic_and_distinct(self):
        assert child_seed(7, "system") == child_seed(7, "system")
        assert child_seed(7, "system") != child_seed(7, "noise")
        assert child_seed(7, "system") != child_seed(8, "system")
        assert 0 <= child_seed(0, "x") < 2 ** 32


class TestEffectiveParams:
    def parse(self, argv):
        return effective_params(build_parser().parse_args(argv))

    def test_noiseless_defaults(self):
        p = self.parse(["--preset", "gaussian_noiseless"])
        assert p["n"] == 256
        assert p["sparsity"] == 0.1
        assert p["gamma"] == 1.0
        assert p["tau"] == 2.0
        assert p["noise_level"] == 0.0
        assert p["lam"] == 0.0
        assert p["solvers"] == ["sor", "bsor"]

    def test_binary_preset_forces_binary_gt(self):
        p = self.parse(["--preset", "gaussian_noiseless_binary"])
        assert p["binary_gt"] is True

    def test_noisy_l1_scaled_lambda(self):
        p = self.parse(["--preset", "gaussian_noisy_l1"])
        assert p["noise_level"] == 0.1
        assert p["lam"] == pytest.approx(100.0 * 256 / 1024)
        p2 = self.parse(["--preset", "gaussian_noisy_l1", "--n", "1024"])
        assert p2["lam"] == pytest.approx(100.0)

    def test_student_t_defaults(self):
        p = self.parse(["--preset", "student_t_denoise"])
        assert p["gamma"] == 0.5
        assert p["tau"] == 1.0
        assert p["density"] == 0.1
        assert p["phi"] == 2.0
        assert p["solvers"] == ["ia", "bia"]

    def test_overrides(self):
        p = self.parse(["--preset", "gaussian_noisy", "--gamma", "0.3",
                        "--tau", "1.5", "--noise-level", "0.05",
                        "--solvers", "bsor"])
        assert p["gamma"] == 0.3
        assert p["tau"] == 1.5
        assert p["noise_level"] == 0.05
        assert p["solvers"] == ["bsor"]


class TestCliMain:
    def test_smoke_two_csvs_and_manifest(self, tmp_path):
        code = main(["--preset", "gaussian_noiseless", "--n", "24",
                     "--seed", "7", "--solvers", "sor,bsor",
                     "--iters", "30", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gaussian_noiseless_sor.csv").exists()
        assert (tmp_path / "gaussian_noiseless_bsor.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"sor", "bsor"}

    def test_rel_objective_monotone_trend(self, tmp_path):
        main(["--preset", "gaussian_noiseless", "--n", "24", "--seed", "1",
              "--solvers", "bsor", "--iters", "40",
              "--out-dir", str(tmp_path)])
        _, recs = read_trace(tmp_path / "gaussian_noiseless_bsor.csv")
        assert len(recs) <= 40
        assert recs[-1].rel_objective <= recs[0].rel_objective
        assert all(r.rel_objective >= -1e-12 for r in recs)

    def test_determinism_modulo_wall_ms(self, tmp_path):
        args = ["--preset", "gaussian_noisy", "--n", "24", "--seed", "3",
                "--solvers", "bsor", "--iters", "20"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for sub in ("gaussian_noisy_bsor.csv",):
            la = (tmp_path / "a" / sub).read_text().splitlines()
            lb = (tmp_path / "b" / sub).read_text().splitlines()
            assert len(la) == len(lb)
            for x, y in zip(la, lb):
                assert x.rsplit(",", 1)[0] == y.rsplit(",", 1)[0]

    def test_student_t_end_to_end(self, tmp_path):
        src = tmp_path / "in.pgm"
        write_pgm(src, make_test_image(12, 12))
        code = main(["--preset", "student_t_denoise", "--image", str(src),
                     "--iters", "8", "--seed", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "student_t_denoise_ia.csv").exists()
        assert (out / "student_t_denoise_bia.csv").exists()
        assert (out / "student_t_denoise_bia_denoised.pgm").exists()
        img = read_pgm(out / "student_t_denoise_bia_denoised.pgm")
        assert img.shape == (12, 12)
        _, recs = read_trace(out / "student_t_denoise_bia.csv")
        objs = [r.objective for r in recs]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_bad_flags_exit_2(self, tmp_path, capsys):
        assert main(["--preset", "bogus"]) == 2
        assert main([]) == 2
        assert main(["--preset", "gaussian_noiseless",
                     "--solvers", "sor,nope"]) == 2
        # A list that is empty after stripping fails before any work.
        for empty in (",", " , "):
            capsys.readouterr()
            assert main(["--preset", "gaussian_noiseless", "--n", "8",
                         "--solvers", empty,
                         "--out-dir", str(tmp_path / "empty")]) == 2
            assert "error: no solver variants given" in capsys.readouterr().err
            assert not (tmp_path / "empty").exists()
        # An unreadable or unsupported --image is a bad argument too.
        bad_pgms = []
        for name, data in (("maxval15", b"P5\n1 1\n15\n\x07"),
                           ("negative", b"P5\n-1 -1\n255\n\x07"),
                           ("zero_width", b"P5\n0 5\n255\n")):
            bad_pgms.append(tmp_path / f"{name}.pgm")
            bad_pgms[-1].write_bytes(data)
        for image in (tmp_path / "missing.pgm", tmp_path, *bad_pgms):
            code = main(["--preset", "student_t_denoise", "--iters", "1",
                         "--image", str(image),
                         "--out-dir", str(tmp_path / "out")])
            assert code == 2, image

    def test_duplicate_solvers_exit_2(self, tmp_path, capsys):
        # Each variant writes one trace, so a repeat would silently keep
        # only its last run.
        for solvers in ("sor,sor", "sor,bsor, sor"):
            capsys.readouterr()
            assert main(["--preset", "gaussian_noiseless", "--n", "8",
                         "--iters", "2", "--solvers", solvers,
                         "--out-dir", str(tmp_path / "dup")]) == 2
            err = capsys.readouterr().err
            assert "error: duplicate solver variants: sor" in err, solvers
            assert not (tmp_path / "dup").exists()

    def test_solver_error_exit_3(self, tmp_path, monkeypatch):
        bad_args = [["--tau", "-1.0"], ["--tau", "nan"], ["--iters", "0"],
                    ["--iters", "-1"], ["--noise-level", "nan"],
                    ["--noise-level", "inf"], ["--gamma", "nan"],
                    ["--stop-tol", "-1"], ["--stop-tol", "nan"],
                    ["--lambda", "-1"], ["--lambda", "nan"],
                    ["--gamma", "1e308"], ["--tau", "1e308"],
                    ["--gamma", "inf"]]
        # Closed forms that solve the quadratic alone do not fit the l1
        # preset; the later --preset and --solvers override the earlier.
        bad_args += [["--preset", "gaussian_noisy_l1", "--iters", "3",
                      "--solvers", solver]
                     for solver in ("sor", "gauss_seidel", "blcd", "bsor")]
        # A step so small that x moves by rounding alone breaks the
        # dissipation bound in the first sweep of the reference run.
        assert main(["--preset", "gaussian_noiseless", "--n", "16",
                     "--iters", "3", "--tau", "1e-300",
                     "--out-dir", str(tmp_path)]) == 3
        # Each is rejected before the V* reference run starts.
        def no_reference(*args):
            pytest.fail("the reference run started")
        monkeypatch.setattr(cli, "reference_values", no_reference)
        for bad in bad_args:
            code = main(["--preset", "gaussian_noiseless", "--n", "8",
                         "--solvers", "bsor", "--out-dir", str(tmp_path)]
                        + bad)
            assert code == 3, bad

    def test_infinite_gamma_exits_3(self, tmp_path, monkeypatch, capsys):
        # J(shift) would be inf * 0: rejected before the reference run,
        # on the student-t preset too, which has no step constants.
        def no_reference(*args):
            pytest.fail("the reference run started")
        monkeypatch.setattr(cli, "reference_values", no_reference)
        for preset in (["student_t_denoise", "--iters", "2"],
                       ["gaussian_noiseless", "--n", "8"]):
            assert main(["--preset", *preset, "--gamma", "inf",
                         "--out-dir", str(tmp_path)]) == 3
            assert "gamma must be finite" in capsys.readouterr().err

    def test_l1_preset_at_lambda_zero(self, tmp_path):
        # l1_bsor at lam = 0 is bsor; the l1 preset runs as the quadratic.
        code = main(["--preset", "gaussian_noisy_l1", "--n", "16",
                     "--lambda", "0", "--iters", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["lam"] == 0.0

    def test_closed_forms_at_gamma_zero(self, tmp_path):
        # At gamma = 0 bsor is SOR, and l1_bsor the euclidean implicit
        # step of ia, whose objective it gives to rounding.
        assert main(["--preset", "gaussian_noiseless", "--gamma", "0",
                     "--solvers", "sor,bsor",
                     "--out-dir", str(tmp_path / "q")]) == 0
        assert main(["--preset", "gaussian_noisy_l1", "--n", "64",
                     "--iters", "40", "--gamma", "0", "--solvers",
                     "ia,l1_bsor", "--out-dir", str(tmp_path / "l1")]) == 0
        _, ia = read_trace(tmp_path / "l1" / "gaussian_noisy_l1_ia.csv")
        _, l1 = read_trace(tmp_path / "l1" / "gaussian_noisy_l1_l1_bsor.csv")
        assert len(ia) == len(l1) > 1
        for a, b in zip(ia, l1):
            assert abs(b.objective - a.objective) <= 1e-12 * abs(a.objective)

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIA_OUT_DIR", str(tmp_path / "envout"))
        code = main(["--preset", "gaussian_noiseless", "--n", "8",
                     "--seed", "1", "--solvers", "sor", "--iters", "5"])
        assert code == 0
        assert (tmp_path / "envout" / "gaussian_noiseless_sor.csv").exists()

    def test_csv_row_count_equals_sweeps(self, tmp_path):
        main(["--preset", "gaussian_noiseless", "--n", "16", "--seed", "4",
              "--solvers", "sor", "--iters", "12", "--stop-tol", "0",
              "--out-dir", str(tmp_path)])
        _, recs = read_trace(tmp_path / "gaussian_noiseless_sor.csv")
        assert len(recs) == 12

    def test_cli_import_loads_no_scipy(self):
        # The package runs on numpy alone; SciPy is only a bench extra.
        code = ("import sys, bregsolve.cli; print(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(bregsolve.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"


def outputs_without_wall_ms(out_dir: Path) -> dict:
    """Every output file's bytes, with the ``wall_ms`` column cut from the
    trace rows."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = b"\n".join(line if line.startswith(b"#")
                              else line.rsplit(b",", 1)[0]
                              for line in data.splitlines())
        out[path.name] = data
    return out


class TestManifestReport:
    def test_reference_block_and_byte_identical_reruns(self, tmp_path):
        src = tmp_path / "in.pgm"
        write_pgm(src, make_test_image(9, 9))
        runs = {
            "student_t_denoise": ["--image", str(src), "--iters", "2"],
            "gaussian_noiseless": ["--n", "6", "--iters", "50"],
        }
        want = {
            "student_t_denoise": dict(variant="bia", order="red_black",
                                      sweeps=20, stopped_early=False),
            "gaussian_noiseless": dict(variant="bsor", order="lexicographic",
                                       sweeps=11, stopped_early=True),
        }
        for preset, args in runs.items():
            out = tmp_path / preset
            argv = ["--preset", preset, "--seed", "3", "--out-dir",
                    str(out)] + args
            assert main(argv) == 0
            first = outputs_without_wall_ms(out)
            assert json.loads(first["manifest.json"])["reference"] \
                == want[preset]
            for name, data in first.items():    # not in the CSV headers
                assert name.endswith(".json") or b"# reference" not in data
            assert main(argv) == 0
            assert outputs_without_wall_ms(out) == first

    @pytest.mark.parametrize("cache, want", [(None, "compiled"),
                                             ("/dev/null", "numpy")])
    def test_quadratic_pass_is_recorded(self, tmp_path, monkeypatch, cache,
                                        want):
        from bregsolve import _quadpass
        if cache:
            monkeypatch.setenv("XDG_CACHE_HOME", cache)
        _quadpass.load.cache_clear()
        if want == "compiled" and _quadpass.load() is None:
            pytest.skip("the C kernel cannot be built here")
        argv = ["--preset", "gaussian_noiseless", "--n", "16", "--seed", "2",
                "--iters", "10", "--solvers", "sor,bsor,blcd"]
        try:
            assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        finally:
            _quadpass.load.cache_clear()
        got = outputs_without_wall_ms(tmp_path / "a")
        assert json.loads(got.pop("manifest.json"))["quadratic_pass"] == want
        # The CSVs do not say which pass ran: they are the NumPy pass's.
        monkeypatch.setattr(_quadpass, "load", lambda: None)
        assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
        numpy_run = outputs_without_wall_ms(tmp_path / "b")
        del numpy_run["manifest.json"]
        assert got == numpy_run

    def test_no_quadratic_pass_without_a_closed_form_variant(self, tmp_path):
        from bregsolve import _quadpass
        src = tmp_path / "in.pgm"
        write_pgm(src, make_test_image(6, 6))
        kernel = _quadpass.load() is not None
        runs = [("student_t_denoise", ["--image", str(src)], None,
                 "compiled" if kernel else "python"),
                ("gaussian_noisy_l1", ["--n", "12"], "numpy", "python"),
                ("gaussian_noiseless", ["--n", "12", "--solvers", "bsor"],
                 "compiled" if kernel else "numpy", None)]
        for preset, args, quadratic, inclusion in runs:
            out = tmp_path / preset
            assert main(["--preset", preset, "--iters", "2", "--out-dir",
                         str(out)] + args) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest.get("quadratic_pass") == quadratic
            # ia on the l1-quadratic runs the Python inclusion sweep.
            assert manifest.get("inclusion_pass") == inclusion
            assert "checked_solve" not in manifest

    @pytest.mark.parametrize("cache, want", [(None, "compiled"),
                                             ("/dev/null", "python")])
    def test_inclusion_pass_is_recorded(self, tmp_path, monkeypatch, cache,
                                        want):
        from bregsolve import _quadpass
        if cache:
            monkeypatch.setenv("XDG_CACHE_HOME", cache)
        _quadpass.load.cache_clear()
        if want == "compiled" and _quadpass.load() is None:
            pytest.skip("the C kernel cannot be built here")
        src = tmp_path / "in.pgm"
        write_pgm(src, make_test_image(9, 9))
        argv = ["--preset", "student_t_denoise", "--image", str(src),
                "--seed", "2", "--iters", "3"]
        try:
            assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        finally:
            _quadpass.load.cache_clear()
        got = outputs_without_wall_ms(tmp_path / "a")
        manifest = json.loads(got.pop("manifest.json"))
        assert manifest["inclusion_pass"] == want
        assert "quadratic_pass" not in manifest
        for name, data in got.items():      # not in the CSV headers
            assert b"# inclusion_pass" not in data, name
        # The outputs do not say which sweep ran: they are the Python one's.
        monkeypatch.setattr(_quadpass, "load", lambda: None)
        assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
        python_run = outputs_without_wall_ms(tmp_path / "b")
        assert json.loads(python_run.pop("manifest.json"))[
            "inclusion_pass"] == "python"
        assert got == python_run

    def test_wrapped_solve_is_recorded_as_python(self, tmp_path,
                                                 monkeypatch):
        # A wrapper on solvers.solve_inclusion, as bench/tracer.py installs,
        # makes every student-t sweep run Python's loop, and the manifest
        # says so; the outputs are those of the unwrapped run.
        from bregsolve import inclusion, solvers
        src = tmp_path / "in.pgm"
        write_pgm(src, make_test_image(9, 9))
        argv = ["--preset", "student_t_denoise", "--image", str(src),
                "--seed", "2", "--iters", "3", "--out-dir"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        monkeypatch.setattr(solvers, "solve_inclusion",
                            lambda prob, mode:
                            inclusion.solve_inclusion(prob, mode))
        assert main(argv + [str(tmp_path / "b")]) == 0
        runs = [outputs_without_wall_ms(tmp_path / d) for d in "ab"]
        manifest = json.loads(runs[1].pop("manifest.json"))
        assert manifest["inclusion_pass"] == "python"
        del runs[0]["manifest.json"]
        assert runs[0] == runs[1]
