"""Tests for trace/PGM I/O and the command-line runner."""

import json
import math

import numpy as np
import pytest

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

    def test_bad_flags_exit_2(self, tmp_path):
        assert main(["--preset", "bogus"]) == 2
        assert main([]) == 2
        assert main(["--preset", "gaussian_noiseless",
                     "--solvers", "sor,nope"]) == 2
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

    def test_solver_error_exit_3(self, tmp_path):
        bad_args = [["--tau", "-1.0"], ["--tau", "nan"], ["--iters", "0"],
                    ["--iters", "-1"], ["--noise-level", "nan"],
                    ["--noise-level", "inf"], ["--gamma", "nan"],
                    ["--stop-tol", "-1"], ["--stop-tol", "nan"],
                    ["--lambda", "-1"], ["--lambda", "nan"]]
        # Closed forms that solve the quadratic alone do not fit the l1
        # preset; the later --preset and --solvers override the earlier.
        bad_args += [["--preset", "gaussian_noisy_l1", "--iters", "3",
                      "--solvers", solver]
                     for solver in ("sor", "gauss_seidel", "blcd", "bsor")]
        for bad in bad_args:
            code = main(["--preset", "gaussian_noiseless", "--n", "8",
                         "--solvers", "bsor", "--out-dir", str(tmp_path)]
                        + bad)
            assert code == 3, bad

    def test_l1_preset_at_lambda_zero(self, tmp_path):
        # l1_bsor at lam = 0 is bsor; the l1 preset runs as the quadratic.
        code = main(["--preset", "gaussian_noisy_l1", "--n", "16",
                     "--lambda", "0", "--iters", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["lam"] == 0.0

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
