import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odlt.cli as cli_module
import odlt.evaluation as evaluation_module
from odlt import __version__
from odlt.cli import CSV_COLUMNS, _read_problem, main
from odlt.colmap import build_problems, parse_model
from odlt.errors import DepthZero, MalformedLine
from odlt.evaluation import SyntheticScenario, compute_metrics, generate_scene
from odlt.geometry import correspondence_arrays
from odlt.solvers import METHODS, SolverConfig, solve

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "colmap_golden"
SOLVABLE = FIXTURES / "colmap_solvable"


def read_csv(path):
    """Split a results file into (manifest, header, rows); the format uses
    plain comma joins with no quoting."""
    manifest, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            manifest.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, header, rows


def write_problem_file(path, problem):
    intr = problem.intrinsics
    lines = [" ".join(repr(float(v)) for v in (intr.fx, intr.fy, intr.cx, intr.cy))]
    for c in problem.correspondences:
        vals = (c.u[0], c.u[1], c.p[0], c.p[1], c.p[2])
        lines.append(" ".join(repr(float(v)) for v in vals))
    path.write_text("\n".join(lines) + "\n")


def solvable_problem():
    problems, _ = build_problems(parse_model(SOLVABLE))
    return problems[0]


def write_scene_file(path, n):
    """A problem file of one n-point synthetic scene."""
    sc = SyntheticScenario(n=n, trials=1)
    (ps, us), _ = generate_scene(sc, 0)
    intr = sc.intrinsics
    lines = [" ".join(repr(float(v)) for v in (intr.fx, intr.fy, intr.cx, intr.cy))]
    lines += [" ".join(repr(float(v)) for v in (*u, *p)) for p, u in zip(ps, us)]
    path.write_text("\n".join(lines) + "\n")


class TestSynthetic:
    def test_grid_rows_and_schema(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "synthetic",
                "--n-list", "10,20",
                "--sigma-list", "0.5,1.0",
                "--trials", "3",
                "--methods", "ndlt,odlt",
                "--no-timing",
                "--out", str(out),
            ]
        )
        assert rc == 0
        manifest, header, rows = read_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 2 * 2 * 2
        assert any(line.startswith("# config:") for line in manifest)
        assert any(line.startswith("# seed: 0") for line in manifest)
        assert any(f"# version: {__version__}" == line for line in manifest)
        # n is the outer loop, sigma inner, methods innermost
        assert [r[1] for r in rows] == ["10"] * 4 + ["20"] * 4
        assert [r[3] for r in rows][:4] == ["ndlt", "odlt", "ndlt", "odlt"]
        for row in rows:
            assert row[0] == "centered"
            assert row[7] == ""  # runtime cell empty with --no-timing
            assert row[9] == "3"
            float(row[4]), float(row[5]), float(row[6])  # numeric cells parse

    def test_rows_are_deterministic(self, tmp_path):
        argv = [
            "synthetic",
            "--n-list", "15",
            "--sigma-list", "1.0",
            "--trials", "4",
            "--methods", "odlt,odlt_lost",
            "--no-timing",
        ]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        _, header_a, rows_a = read_csv(tmp_path / "a.csv")
        _, header_b, rows_b = read_csv(tmp_path / "b.csv")
        assert header_a == header_b
        assert rows_a == rows_b

    def test_stdout_output(self, capsys):
        rc = main(
            [
                "synthetic",
                "--n-list", "8",
                "--trials", "2",
                "--methods", "ndlt",
                "--no-timing",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert ",".join(CSV_COLUMNS) in captured

    def test_timing_populates_runtime_cell(self, tmp_path):
        out = tmp_path / "timed.csv"
        rc = main(
            [
                "synthetic",
                "--n-list", "10",
                "--trials", "2",
                "--methods", "ndlt",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][7]) > 0.0

    def test_all_failed_cells_are_empty(self, tmp_path):
        # 5 points are too few for every trial; as in eval-colmap, a cell
        # with no success to average is empty, not nan, timed or not.
        out = tmp_path / "failed.csv"
        assert main(["synthetic", "--n-list", "5", "--trials", "2", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [row[3] for row in rows] == list(METHODS)
        for row in rows:
            assert row[4:] == ["", "", "", "", "2", "2"]

    @pytest.mark.parametrize(
        "value, message",
        [
            ("inf", "must be finite and >= 0, got 'inf'"),
            ("nan", "must be finite and >= 0, got 'nan'"),
            ("1,-1", "must be finite and >= 0, got '-1'"),
            ("1,abc", "expected a number, got 'abc'"),
        ],
        ids=["inf", "nan", "negative", "non-number"],
    )
    def test_bad_sigma_list_is_an_argparse_error(self, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", "--sigma-list", value, "--trials", "2"])
        assert exc.value.code == 2
        assert f"argument --sigma-list: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [("--n-list", "abc"), ("--n-list", "0"), ("--n-list", "50,-3"), ("--trials", "0"),
         ("--trials", "-1"), ("--trials", "2.5")],
        ids=["n-non-number", "n-zero", "n-negative", "trials-zero", "trials-negative",
             "trials-fraction"],
    )
    def test_bad_count_is_an_argparse_error(self, option, value, capsys):
        argv = {"--n-list": "6", "--trials": "2"} | {option: value}
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", *(token for pair in argv.items() for token in pair)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        token = value.split(",")[-1]
        assert f"argument {option}: expected a positive integer, got {token!r}" in err
        assert "_int_list" not in err and "_count" not in err

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    @pytest.mark.parametrize("option", ["--timing-reps", "--workers"])
    def test_bad_run_setting_is_an_argparse_error(self, option, value, capsys):
        # Parse-time errors: no trial runs, so no worker process is started.
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", "--n-list", "6", "--trials", "2", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a positive integer, got {value!r}" in err

    def test_unknown_method_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", "--methods", "p3p"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthetic", "--n-list", ","],
            ["synthetic", "--sigma-list", ","],
            ["synthetic", "--methods", ","],
            ["eval-colmap", "--model-dir", str(SOLVABLE), "--methods", " , "],
        ],
        ids=["n-list", "sigma-list", "methods", "eval-colmap-methods"],
    )
    def test_empty_list_is_an_argparse_error(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        option, value = argv[-2:]
        message = f"expected a non-empty comma separated list, got {value!r}"
        assert f"argument {option}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthetic", "--n-list", "6", "--trials", "2"],
            # It builds its noise generator even with no noise to draw.
            ["eval-colmap", "--model-dir", str(GOLDEN), "--noise-px", "0"],
        ],
        ids=["synthetic", "eval-colmap"],
    )
    def test_negative_seed_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-1'" in err

    def test_manifest_names_the_parsed_command(self, tmp_path, monkeypatch):
        # The manifest records odlt and main's own argv, not the interpreter's
        # sys.argv, so a results file names the command that wrote it.
        out = tmp_path / "rows.csv"
        argv = ["synthetic", "--n-list", "6", "--trials", "2", "--no-timing", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["-c"])
        assert main(argv) == 0
        assert read_csv(out)[0][0] == "# command: odlt " + " ".join(argv)
        monkeypatch.setattr(sys, "argv", ["/somewhere/odlt/cli.py", *argv])
        assert main() == 0
        assert read_csv(out)[0][0] == "# command: odlt " + " ".join(argv)


class TestEvalColmap:
    def test_zero_noise_aggregates(self, tmp_path):
        out = tmp_path / "eval.csv"
        rc = main(
            [
                "eval-colmap",
                "--model-dir", str(SOLVABLE),
                "--methods", "ndlt,odlt",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header[:4] == ["model", "method", "images", "skipped"]
        assert len(rows) == 2
        for row in rows:
            assert row[2] == "2" and row[3] == "0"
            assert float(row[4]) < 1e-6  # rot RMSE, exact pixels
            assert row[7] == "0"

    def test_noise_and_per_image_detail(self, tmp_path):
        out = tmp_path / "eval.csv"
        detail = tmp_path / "detail.csv"
        rc = main(
            [
                "eval-colmap",
                "--model-dir", str(SOLVABLE),
                "--methods", "ndlt,odlt",
                "--noise-px", "1.0",
                "--out", str(out),
                "--per-image", str(detail),
            ]
        )
        assert rc == 0
        _, _, rows = read_csv(out)
        assert all(float(row[4]) > 1e-6 for row in rows)
        _, detail_header, detail_rows = read_csv(detail)
        assert detail_header[-1] == "status"
        assert len(detail_rows) == 2 * 2  # methods x images
        assert all(r[-1] == "ok" for r in detail_rows)
        names = {r[2] for r in detail_rows}
        assert names == {"view_a.png", "view_b.png"}

    def test_rows_are_solve_and_compute_metrics_on_noised_arrays(self, tmp_path):
        out = tmp_path / "eval.csv"
        detail = tmp_path / "detail.csv"
        argv = ["eval-colmap", "--model-dir", str(SOLVABLE), "--noise-px", "1", "--seed", "3"]
        assert main(argv + ["--out", str(out), "--per-image", str(detail)]) == 0
        _, _, rows = read_csv(out)
        _, _, detail_rows = read_csv(detail)

        problems, _ = build_problems(parse_model(SOLVABLE))
        rng = np.random.default_rng(3)
        noisy = []
        for prob in problems:
            ps, us = correspondence_arrays(prob.correspondences)
            noisy.append((ps, us + 1.0 * rng.standard_normal(us.shape)))
        expected_detail, expected_rows = [], []
        for method in METHODS:
            cfg = SolverConfig(method=method, sigma_u=1.0)
            errs = []
            for prob, arrays in zip(problems, noisy):
                result = solve(arrays, prob.intrinsics, cfg)
                m = compute_metrics(result, prob.truth, arrays, prob.intrinsics)
                errs.append((m.rot_err_deg, m.pos_err, m.mean_reproj_err))
                cells = [repr(float(v)) for v in errs[-1]]
                expected_detail.append([str(SOLVABLE), method, prob.name, *cells, "ok"])
            rot, pos, reproj = np.array(errs).T
            aggregates = (np.sqrt(np.mean(rot**2)), np.sqrt(np.mean(pos**2)), np.mean(reproj))
            cells = [repr(float(v)) for v in aggregates]
            expected_rows.append([str(SOLVABLE), method, "2", "0", *cells, "0"])
        assert detail_rows == expected_detail
        assert rows == expected_rows

    def test_scoring_error_counts_as_failure(self, tmp_path, monkeypatch):
        # A DepthZero raised while scoring one image (compute_metrics projects
        # the points under the estimated pose) fails that image only, as a
        # failed Monte Carlo trial does, instead of aborting the run.
        view_b = next(p for p in build_problems(parse_model(SOLVABLE))[0] if p.name == "view_b.png")
        project_points = evaluation_module.project_points

        def depth_zero_on_view_b(P, ps):
            # P's camera center; with exact pixels it is the true one.
            center = -np.linalg.solve(P[:, :3], P[:, 3])
            if np.allclose(center, view_b.truth.r, atol=1e-6):
                raise DepthZero("at least one point has projective depth ~ 0")
            return project_points(P, ps)

        monkeypatch.setattr(evaluation_module, "project_points", depth_zero_on_view_b)
        out = tmp_path / "eval.csv"
        detail = tmp_path / "detail.csv"
        argv = ["eval-colmap", "--model-dir", str(SOLVABLE), "--methods", "ndlt,odlt"]
        assert main(argv + ["--out", str(out), "--per-image", str(detail)]) == 0
        _, _, rows = read_csv(out)
        _, _, detail_rows = read_csv(detail)
        assert [row[7] for row in rows] == ["1", "1"]
        assert all(float(row[4]) < 1e-6 for row in rows)  # view_a alone, exact pixels
        status = {(r[1], r[2]): r[-1] for r in detail_rows}
        assert status == {
            ("ndlt", "view_a.png"): "ok",
            ("ndlt", "view_b.png"): "failed",
            ("odlt", "view_a.png"): "ok",
            ("odlt", "view_b.png"): "failed",
        }

    def test_multiple_model_dirs_and_empty_aggregates(self, tmp_path):
        out = tmp_path / "eval.csv"
        rc = main(
            [
                "eval-colmap",
                "--model-dir", str(GOLDEN),
                "--model-dir", str(SOLVABLE),
                "--methods", "ndlt",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 2
        golden_row = next(r for r in rows if "colmap_golden" in r[0])
        assert golden_row[2] == "0" and golden_row[3] == "2"
        assert golden_row[4] == ""  # no solvable image, empty aggregate

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_is_an_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-colmap", "--model-dir", str(SOLVABLE), "--noise-px", value])
        assert exc.value.code == 2
        assert "argument --noise-px: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_bad_min_points_is_an_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-colmap", "--model-dir", str(SOLVABLE), "--min-points", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --min-points: expected a positive integer, got {value!r}" in err

    def test_non_numeric_noise_names_the_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-colmap", "--model-dir", str(SOLVABLE), "--noise-px", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --noise-px: expected a number, got 'abc'" in err
        assert "_noise_level" not in err

    def test_missing_model_dir_exits_3(self, tmp_path, capsys):
        rc = main(["eval-colmap", "--model-dir", str(tmp_path / "nope")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_point_id_beyond_int64_exits_3_with_its_line(self, tmp_path, capsys):
        for name in ("cameras.txt", "points3D.txt"):
            (tmp_path / name).write_text((SOLVABLE / name).read_text())
        lines = (SOLVABLE / "images.txt").read_text().splitlines(keepends=True)
        fields = lines[4].split()  # image 1's observation line
        fields[2] = "99999999999999999999"
        lines[4] = " ".join(fields) + "\n"
        (tmp_path / "images.txt").write_text("".join(lines))
        rc = main(["eval-colmap", "--model-dir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'images.txt'}:5: bad point3d id" in err
        assert "Traceback" not in err


class TestSolve:
    def test_text_output(self, tmp_path, capsys):
        problem = solvable_problem()
        path = tmp_path / "problem.txt"
        write_problem_file(path, problem)
        rc = main(["solve", "--input", str(path), "--method", "odlt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rotation (world to camera):" in out
        assert "camera center (world):" in out
        assert "reprojection rms" in out

    def test_json_lines_output_matches_truth(self, tmp_path, capsys):
        problem = solvable_problem()
        path = tmp_path / "problem.txt"
        write_problem_file(path, problem)
        rc = main(
            ["solve", "--input", str(path), "--method", "ndlt", "--format", "json-lines"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ndlt"
        assert payload["flags"] == []
        assert payload["reprojection_rms"] < 1e-6
        np.testing.assert_allclose(payload["R"], problem.truth.R, atol=1e-7)
        np.testing.assert_allclose(payload["r"], problem.truth.r, atol=1e-7)

    def test_reads_stdin(self, tmp_path, capsys, monkeypatch):
        problem = solvable_problem()
        path = tmp_path / "problem.txt"
        write_problem_file(path, problem)
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        rc = main(["solve", "--input", "-", "--format", "json-lines"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["reprojection_rms"] < 1e-6

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan", "abc"])
    def test_bad_sigma_u_is_an_argparse_error(self, value, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        write_problem_file(path, solvable_problem())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(path), "--sigma-u", value])
        assert exc.value.code == 2
        assert "argument --sigma-u: " in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # A solve draws no random numbers, so there is nothing to seed.
        path = tmp_path / "problem.txt"
        write_problem_file(path, solvable_problem())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(path), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_too_few_points_exits_3(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text(
            "800.0 800.0 320.0 240.0\n"
            "100.0 100.0 0.0 0.0 4.0\n"
            "200.0 120.0 1.0 0.0 5.0\n"
        )
        rc = main(["solve", "--input", str(path)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_problem_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("800.0 800.0 320.0\n")
        rc = main(["solve", "--input", str(path)])
        assert rc == 3
        assert "intrinsics line" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"])
    def test_empty_problem_file_is_a_malformed_line(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with pytest.raises(MalformedLine) as exc:
            _read_problem(str(path))
        assert str(path) in str(exc.value) and "empty problem file" in str(exc.value)

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (
                "1 2 abc 4 5",
                "non-numeric correspondence line: could not convert string to float: 'abc'",
            ),
            ("1 2 3 4", "correspondence line needs 5 numbers, got 4"),
            ("nan 2 3 4 5", "non-finite correspondence line"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, bad_line, message):
        # Comments and blank lines count, so the number is the file's own line.
        path = tmp_path / "bad.txt"
        write_problem_file(path, solvable_problem())
        lines = path.read_text().splitlines()
        lines[4:4] = ["# a comment", "", bad_line]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--input", str(path)])
        assert rc == 3
        assert f"error: {path}:7: {message}" in capsys.readouterr().err

    def test_stdin_errors_name_physical_lines(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "problem.txt"
        write_problem_file(path, solvable_problem())
        lines = path.read_text().splitlines()
        lines[0:0] = ["# intrinsics follow", ""]
        lines[5:5] = ["# a comment", "1 2 3 4"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = main(["solve", "--input", "-"])
        assert rc == 3
        assert "error: -:7: correspondence line needs 5 numbers, got 4" in capsys.readouterr().err


class TestErrorExits:
    @pytest.mark.parametrize("name", ["svd", "qr"])
    def test_linalg_failure_exits_3_with_its_named_error(self, name, tmp_path, capsys, monkeypatch):
        path = tmp_path / "problem.txt"
        if name == "qr":  # only the moment reduction QR-factors, from 256 points up
            write_scene_file(path, 300)
        else:
            write_problem_file(path, solvable_problem())

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, name, failing)
        assert main(["solve", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        rows = "moment" if name == "qr" else "constraint"
        assert f"error: {name.upper()} of the {rows} rows failed: did not converge" in err
        assert "Traceback" not in err

    def test_value_error_from_a_bug_is_not_an_input_error(self, tmp_path, monkeypatch):
        path = tmp_path / "problem.txt"
        write_problem_file(path, solvable_problem())

        def buggy(*args, **kwargs):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli_module, "solve", buggy)
        with pytest.raises(ValueError, match="a bug"):
            main(["solve", "--input", str(path)])

    def test_binary_problem_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "problem.bin"
        path.write_bytes(bytes(range(256)) * 4)
        assert main(["solve", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"error: {path}:" in err and "not UTF-8 text" in err

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("bad_line", [1, 2, 700, 1500])
    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys, line_end, bad_line):
        # 1600 lines (~40 kB), so the bad byte can lie several text chunks in.
        path = tmp_path / "problem.txt"
        lines = [b"# padding comment line, long enough to span text chunks"] * 1600
        lines[bad_line - 1] = b"# caf\xe9"
        path.write_bytes(line_end.join(lines) + line_end)
        assert main(["solve", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"error: {path}:{bad_line}: not UTF-8 text (invalid continuation byte)" in err

    def test_non_utf8_model_file_exits_3_naming_its_line(self, tmp_path, capsys):
        for name in ("cameras.txt", "points3D.txt"):
            (tmp_path / name).write_text((SOLVABLE / name).read_text())
        lines = (SOLVABLE / "images.txt").read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].rstrip() + b"\xff\n"  # image 1's pose line: its name
        (tmp_path / "images.txt").write_bytes(b"".join(lines))
        with pytest.raises(MalformedLine, match="images.txt:4: not UTF-8 text"):
            parse_model(tmp_path)
        assert main(["eval-colmap", "--model-dir", str(tmp_path)]) == 3
        assert f"error: {tmp_path / 'images.txt'}:4: not UTF-8 text" in capsys.readouterr().err


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "odlt.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
