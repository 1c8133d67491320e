"""Command-line interface: ingestion, subcommands, artifacts, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import logcave as lc
from logcave import cli
from logcave.errors import BadGrid, EmptyInput, ParseError


def run_cli(argv, env=None):
    import os
    full_env = dict(os.environ)
    full_env.pop("LOGCAVE_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "logcave.cli", *argv],
                          capture_output=True, text=True, env=full_env)


def test_import_does_not_load_scipy():
    # eval and sample never fit, so they need not pay for importing scipy
    code = ("import sys, logcave.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fit_command_does_not_load_scipy(tmp_path):
    # the default solver needs only numpy, so fitting pays no scipy import
    data = tmp_path / "d.txt"
    data.write_text("".join(f"{v!r}\n" for v in
                            np.random.default_rng(3).normal(0, 1, 200)
                            .tolist()))
    argv = ["fit", "--input", str(data), "--output", str(tmp_path / "f.json")]
    code = ("import sys; from logcave import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "[]"]


def test_simulate_command_does_not_load_scipy(tmp_path):
    # the reference-density mass check runs on the package's own quadrature
    argv = ["simulate", "--densities", "normal,gamma", "--sizes", "25",
            "--replications", "1", "--output", str(tmp_path / "t.csv")]
    code = ("import sys; from logcave import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "[]"]


def test_simulate_command_does_not_load_numpy_ma(tmp_path):
    # the Hellinger cuts are built without np.unique, whose first call
    # imports numpy.ma
    argv = ["simulate", "--densities", "normal,gamma", "--sizes", "25",
            "--replications", "1", "--output", str(tmp_path / "t.csv")]
    code = ("import sys; from logcave import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


class TestIngest:
    def test_plain_numbers(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("1\n2\n3\n")
        assert np.array_equal(cli.ingest(p), [1.0, 2.0, 3.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("\n1.5\n\n  \n2.5\n")
        assert np.array_equal(cli.ingest(p), [1.5, 2.5])

    def test_csv_column_by_name(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("v,r\n55.8,14.5\n42.9,20.8\n")
        assert np.array_equal(cli.ingest(p, column="v"), [55.8, 42.9])
        assert np.array_equal(cli.ingest(p, column="r"), [14.5, 20.8])

    def test_csv_column_by_index(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert np.array_equal(cli.ingest(p, column="1"), [2.0, 4.0])

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("1\nabc\n3\n")
        with pytest.raises(ParseError) as info:
            cli.ingest(p)
        assert info.value.line_number == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.ingest(tmp_path / "nope.txt")

    def test_empty_input(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("\n\n")
        with pytest.raises(EmptyInput):
            cli.ingest(p)


class TestGrid:
    def test_linspace_form(self):
        assert np.allclose(cli.parse_grid("0:1:3"), [0.0, 0.5, 1.0])

    def test_explicit_list(self):
        assert np.allclose(cli.parse_grid("0,0.25,2"), [0.0, 0.25, 2.0])

    def test_bad_grids(self):
        for spec in ("1:0:5", "0:1:0", "0:1", "a,b", ""):
            with pytest.raises(BadGrid):
                cli.parse_grid(spec)


class TestFitCommand:
    def test_two_point_fit_artifact(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0\n1\n")
        out = tmp_path / "fit.json"
        code = cli.main(["fit", "--input", str(data), "--output", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["format"] == cli.ARTIFACT_FORMAT
        assert artifact["n"] == 2
        assert artifact["converged"] is True
        assert np.max(np.abs(np.asarray(artifact["theta"]))) < 1e-6

    def test_ties_without_jitter_fail_with_value(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("1\n1\n2\n")
        code = cli.main(["fit", "--input", str(data), "--output",
                         str(tmp_path / "f.json")])
        assert code == 1
        assert "1.0" in capsys.readouterr().err

    def test_ties_with_jitter_succeed(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1\n1\n2\n3\n")
        out = tmp_path / "f.json"
        code = cli.main(["fit", "--input", str(data), "--output", str(out),
                         "--jitter-ties"])
        assert code == 0

    def test_nonconvergence_exit_code_still_writes(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{v}\n" for v in rng.normal(0, 1, 80)))
        out = tmp_path / "f.json"
        code = cli.main(["fit", "--input", str(data), "--output", str(out),
                         "--max-iter", "2", "--tolerance", "1e-15"])
        assert code == 2
        artifact = json.loads(out.read_text())
        assert artifact["converged"] is False

    @pytest.mark.parametrize("argv", [
        ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance", "-1"],
        ["--max-iter", "0"]])
    def test_bad_solver_setting_exits_one(self, tmp_path, capsys, argv):
        data = tmp_path / "d.txt"
        data.write_text("0\n1\n2.5\n")
        out = tmp_path / "f.json"
        code = cli.main(["fit", "--input", str(data), "--output", str(out),
                         *argv])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("logcave: ")
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{v}\n" for v in rng.normal(0, 1, 30)))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["fit", "--input", str(data), "--output", str(out1)]) == 0
        assert cli.main(["fit", "--input", str(data), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture()
def uniform_artifact(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("0\n1\n")
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--input", str(data), "--output", str(out)]) == 0
    return out


class TestEvalCommand:
    def test_uniform_grid_values(self, uniform_artifact, tmp_path):
        out = tmp_path / "eval.csv"
        code = cli.main(["eval", "--input", str(uniform_artifact),
                         "--grid", "0:1:3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf,log_pdf,cdf"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx([1.0, 1.0, 1.0],
                                                            abs=1e-9)
        cdfs = [float(r[3]) for r in rows]
        assert cdfs == sorted(cdfs)

    def test_outside_support_sentinels(self, uniform_artifact, tmp_path):
        out = tmp_path / "eval.csv"
        cli.main(["eval", "--input", str(uniform_artifact),
                  "--grid=-1,2", "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][1] == "0.0" and rows[0][2] == "-inf"
        assert float(rows[0][3]) == 0.0
        assert rows[1][1] == "0.0" and rows[1][2] == "-inf"
        assert float(rows[1][3]) == 1.0

    def test_negative_linspace_grid_as_separate_argument(self, uniform_artifact,
                                                         tmp_path):
        out = tmp_path / "eval.csv"
        code = cli.main(["eval", "--input", str(uniform_artifact),
                         "--grid", "-3:3:121", "--output", str(out)])
        assert code == 0
        xs = [float(line.split(",")[0])
              for line in out.read_text().splitlines()[1:]]
        assert xs == pytest.approx(list(np.linspace(-3.0, 3.0, 121)))

    def test_negative_list_grid_forms_agree(self, uniform_artifact, tmp_path):
        texts = []
        for grid_args in (["--grid", "-1,2"], ["--grid=-1,2"]):
            out = tmp_path / "eval.csv"
            code = cli.main(["eval", "--input", str(uniform_artifact),
                             *grid_args, "--output", str(out)])
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert [line.split(",")[0] for line in texts[0].splitlines()[1:]] == [
            "-1.0", "2.0"]

    def test_negative_grid_in_a_fresh_process(self, uniform_artifact, tmp_path):
        out = tmp_path / "eval.csv"
        proc = run_cli(["eval", "--input", str(uniform_artifact),
                        "--grid", "-3:3:121", "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 122

    def test_bad_grid_exit_code(self, uniform_artifact, tmp_path):
        code = cli.main(["eval", "--input", str(uniform_artifact),
                         "--grid", "1:0:5", "--output",
                         str(tmp_path / "e.csv")])
        assert code == 1


class TestSampleCommand:
    def test_zero_count_empty_output(self, uniform_artifact, tmp_path):
        out = tmp_path / "s.txt"
        code = cli.main(["sample", "--input", str(uniform_artifact),
                         "--count", "0", "--output", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_draws_in_support_and_deterministic(self, uniform_artifact,
                                                tmp_path):
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for out in (out1, out2):
            code = cli.main(["sample", "--input", str(uniform_artifact),
                             "--count", "100", "--seed", "3",
                             "--output", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        values = [float(v) for v in out1.read_text().split()]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_negative_count_rejected(self, uniform_artifact, tmp_path):
        code = cli.main(["sample", "--input", str(uniform_artifact),
                         "--count", "-1", "--output", str(tmp_path / "s")])
        assert code == 1


def _per_value(rows):
    """Lines of comma-joined values, each formatted on its own by _fmt."""
    return "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


class TestOutputFormatting:
    # eval and sample format whole columns at once; the bytes must be those
    # of formatting every value on its own

    @pytest.fixture(params=[1.0, 1e300], ids=["unit", "1e300"])
    def artifact(self, request, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{request.param * v!r}\n"
                                for v in (0.0, 0.3, 1.0)))
        out = tmp_path / "fit.json"
        assert cli.main(["fit", "--input", str(data),
                         "--output", str(out)]) == 0
        return out

    @pytest.mark.parametrize("grid", ["-0.0,0.25,1e300,-5,5e299",
                                      "0.5", "0:1:1", "-1:2:7"])
    def test_eval_matches_per_value_format(self, artifact, tmp_path, grid):
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--input", str(artifact), f"--grid={grid}",
                         "--output", str(out)]) == 0
        fit_obj, _ = cli.read_artifact(artifact)
        x = cli.parse_grid(grid)
        log_pdf = np.atleast_1d(fit_obj.log_pdf(x))
        with np.errstate(over="ignore"):
            pdf = np.exp(log_pdf)
        cdf = np.atleast_1d(fit_obj.cdf(x))
        want = "x,pdf,log_pdf,cdf\n" + _per_value(zip(x, pdf, log_pdf, cdf))
        assert out.read_text() == want

    def test_eval_edge_values(self, uniform_artifact, tmp_path):
        # the values the comparison above must cover
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--input", str(uniform_artifact),
                         "--grid=-0.0,1e300,-5", "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0].startswith("-0.0,")
        assert rows[1:] == ["1e+300,0.0,-inf,1.0", "-5.0,0.0,-inf,0.0"]

    @pytest.mark.parametrize("count", [0, 1, 50])
    def test_sample_matches_per_value_format(self, artifact, tmp_path, count):
        out = tmp_path / "s.txt"
        assert cli.main(["sample", "--input", str(artifact),
                         "--count", str(count), "--seed", "4",
                         "--output", str(out)]) == 0
        fit_obj, _ = cli.read_artifact(artifact)
        draws = fit_obj.sample_points(count, 4)
        assert out.read_text() == _per_value((v,) for v in draws)


class TestSimulateCommand:
    def test_fixed_row_order_and_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        argv = ["simulate", "--densities", "normal,gamma", "--sizes", "40,25",
                "--replications", "2", "--seed", "7"]
        assert cli.main(argv + ["--output", str(out1)]) == 0
        assert cli.main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "density,n,M,mean_hellinger,sd_hellinger,failures"
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert cells == [["normal", "25"], ["normal", "40"],
                         ["gamma", "25"], ["gamma", "40"]]

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        code = cli.main(["simulate", "--sizes", "30", "--replications", "1",
                         "--tolerance", "nan",
                         "--output", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("logcave: ")

    def test_unknown_density_rejected(self, tmp_path):
        code = cli.main(["simulate", "--densities", "cauchy",
                         "--sizes", "30", "--replications", "1",
                         "--output", str(tmp_path / "t.csv")])
        assert code == 1


class TestArtifactRoundTrip:
    def test_reload_evaluates_identically_at_knots(self, tmp_path):
        rng = np.random.default_rng(21)
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(0, 1, 25)))
        out = tmp_path / "fit.json"
        assert cli.main(["fit", "--input", str(data), "--output",
                         str(out)]) == 0
        raw = cli.ingest(data)
        sample = lc.validate_sample(raw)
        fit, _ = lc.fit(sample)
        loaded, meta = cli.read_artifact(out)
        assert np.array_equal(loaded.sample.knots, fit.sample.knots)
        assert np.array_equal(loaded.theta, fit.theta)
        for x in fit.sample.knots:
            assert loaded.log_pdf(float(x)) == fit.log_pdf(float(x))
            assert loaded.cdf(float(x)) == fit.cdf(float(x))
        assert meta["input_digest"] == cli._input_digest(raw)


class TestProcessLevel:
    def test_usage_error_exit_one(self):
        proc = run_cli(["fit"])  # --input missing
        assert proc.returncode == 1

    def test_unknown_subcommand_exit_one(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode == 1

    def test_env_seed_fallback(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0\n1\n")
        art = tmp_path / "f.json"
        proc = run_cli(["fit", "--input", str(data), "--output", str(art)])
        assert proc.returncode == 0
        a = run_cli(["sample", "--input", str(art), "--count", "5"],
                    env={"LOGCAVE_SEED": "99"})
        b = run_cli(["sample", "--input", str(art), "--count", "5",
                     "--seed", "99"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
