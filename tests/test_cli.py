"""Command-line surface: parsing, exit codes, JSON contract."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from chi2dual.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, main, read_csv_sample
from chi2dual.reportio import emit_json, format_float
from chi2dual.rng import Stream

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_csv(path, rows, header=None):
    lines = []
    if header:
        lines.append(header)
    # float() first: numpy >= 2 reprs its scalars as "np.float64(...)"
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCsvIngestion:
    def test_basic_and_header(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[1.0, 2.0], [3.0, 4.0]], header="a,b")
        sample = read_csv_sample(str(path))
        assert sample.n == 2 and sample.d == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n\n2.0\n\n", encoding="utf-8")
        assert read_csv_sample(str(path)).n == 2

    def test_unparseable_cell_reports_line(self, tmp_path):
        from chi2dual.cli import CliError

        path = tmp_path / "d.csv"
        path.write_text("1.0\n2.0\nvalue\n", encoding="utf-8")
        with pytest.raises(CliError, match=":3:"):
            read_csv_sample(str(path))

    def test_only_first_line_may_be_header(self, tmp_path):
        from chi2dual.cli import CliError

        path = tmp_path / "d.csv"
        path.write_text("\na,b\nc,d\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(CliError, match=":3:"):
            read_csv_sample(str(path))
        path.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(CliError, match=":2:"):
            read_csv_sample(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        from chi2dual.cli import CliError

        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(CliError, match="columns"):
            read_csv_sample(str(path))

    def test_non_utf8_file_names_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"\xff\xfe1.0\n")
        plan = tmp_path / "plan.json"
        plan.write_bytes(b'{"scenario": "\xff"}')
        for argv, path in (
            (["linear-test", "--data", str(data), "--constraints", str(plan)], data),
            (["calibrate", "--plan", str(plan)], plan),
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_ERROR
            assert f"error: cannot read {path}: 'utf-8' codec" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_line(self, tmp_path, capsys, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"x\n0.5\n{cell}\n", encoding="utf-8")
        constraints = str(FIXTURES / "uniform_quarter_mean.json")
        code = main(["linear-test", "--data", str(path), "--constraints", constraints])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert f"error: {path}:3: non-finite cell" in err
        assert "Traceback" not in err

    def test_non_finite_cell_line_counts_blank_lines(self, tmp_path):
        from chi2dual.cli import CliError

        path = tmp_path / "d.csv"
        path.write_text("\n0.5\n\n0.25\n\ninf\n", encoding="utf-8")
        with pytest.raises(CliError, match=":6: non-finite cell"):
            read_csv_sample(str(path))


class TestLinearCommand:
    def test_report_fields_and_exit_codes(self, tmp_path, capsys):
        data = tmp_path / "u.csv"
        stream = Stream(8)
        write_csv(data, [[v] for v in stream.uniforms(500)])
        out = tmp_path / "report.json"
        code = main(
            [
                "linear-test",
                "--data",
                str(data),
                "--constraints",
                str(FIXTURES / "uniform_quarter_mean.json"),
                "--alpha",
                "0.05",
                "--json",
                str(out),
            ]
        )
        assert code == EXIT_REJECT  # mean is 1/2, constraint says 1/4
        payload = json.loads(out.read_text())
        assert list(payload.keys()) == [
            "statistic",
            "reference_law",
            "df",
            "p_value",
            "alpha",
            "reject",
            "diagnostics",
        ]
        assert payload["reject"] is True
        printed = capsys.readouterr().out
        assert json.loads(printed) == payload

    def test_accept_exit_zero(self, tmp_path):
        data = tmp_path / "u.csv"
        constraints = tmp_path / "c.json"
        stream = Stream(9)
        values = stream.uniforms(400)
        write_csv(data, [[v] for v in values])
        constraints.write_text(
            json.dumps({"constraints": [{"f": "x1", "target": float(values.mean())}]})
        )
        code = main(
            ["linear-test", "--data", str(data), "--constraints", str(constraints)]
        )
        assert code == EXIT_OK

    def test_empty_data_file(self, tmp_path, capsys):
        data = tmp_path / "e.csv"
        data.write_text("", encoding="utf-8")
        code = main(
            [
                "linear-test",
                "--data",
                str(data),
                "--constraints",
                str(FIXTURES / "uniform_quarter_mean.json"),
            ]
        )
        assert code == EXIT_ERROR
        assert "no observations" in capsys.readouterr().err

    def test_singular_constraints_hint(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        constraints = tmp_path / "c.json"
        stream = Stream(10)
        write_csv(data, [[v] for v in stream.uniforms(100)])
        constraints.write_text(
            json.dumps(
                {
                    "constraints": [
                        {"f": "x1", "target": 0.5},
                        {"f": "2*x1", "target": 1.0},
                    ]
                }
            )
        )
        code = main(
            ["linear-test", "--data", str(data), "--constraints", str(constraints)]
        )
        assert code == EXIT_ERROR
        assert "dependent" in capsys.readouterr().err

    def test_missing_constraints_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0], [2.0]])
        with pytest.raises(SystemExit) as exc:
            main(["linear-test", "--data", str(data)])
        assert exc.value.code == 2
        assert "--constraints" in capsys.readouterr().err


class TestMarginalCommand:
    def test_null_accepts(self, tmp_path):
        data = tmp_path / "m.csv"
        stream = Stream(11)
        write_csv(data, stream.uniforms(2400).reshape(-1, 2).tolist())
        code = main(
            [
                "marginal-test",
                "--data",
                str(data),
                "--marginals",
                "uniform(0,1);uniform(0,1)",
                "--m",
                "3",
            ]
        )
        assert code in (EXIT_OK, EXIT_REJECT)

    def test_spec_dimension_error(self, tmp_path, capsys):
        data = tmp_path / "m.csv"
        stream = Stream(12)
        write_csv(data, stream.uniforms(100).reshape(-1, 2).tolist())
        code = main(
            ["marginal-test", "--data", str(data), "--marginals", "uniform(0,1)"]
        )
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("term", ["uniform(0,1,2)", "exp()"])
    def test_wrong_argument_count_names_term(self, tmp_path, capsys, term):
        data = tmp_path / "m.csv"
        write_csv(data, Stream(12).uniforms(100).reshape(-1, 2).tolist())
        code = main(
            ["marginal-test", "--data", str(data), "--marginals", f"uniform(0,1);{term}"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert f"wrong number of arguments in {term!r}" in err
        assert "Traceback" not in err


class TestContamCommand:
    def test_negative_observation_rejected(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0], [-0.5], [2.0]])
        code = main(
            [
                "contam-test",
                "--data",
                str(data),
                "--theta-range",
                "0.5:2",
            ]
        )
        assert code == EXIT_ERROR
        assert "support" in capsys.readouterr().err

    def test_null_data_runs(self, tmp_path):
        data = tmp_path / "c.csv"
        stream = Stream(13)
        write_csv(data, [[v] for v in -np.log(stream.uniforms(300))])
        code = main(
            [
                "contam-test",
                "--data",
                str(data),
                "--theta-range",
                "0.5:2",
                "--lambda-range",
                "-0.25:0.75",
                "--pareto",
                "2.0,1.5",
            ]
        )
        assert code in (EXIT_OK, EXIT_REJECT)

    def test_malformed_range(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0]])
        code = main(
            ["contam-test", "--data", str(data), "--theta-range", "nonsense"]
        )
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "option",
        [["--lambda-range=-0.25:0.75"], ["--lambda-range", "-0.25:0.75"]],
    )
    def test_negative_range_low_parses(self, tmp_path, monkeypatch, option):
        import chi2dual.cli as cli
        from chi2dual.linear import TestReport

        seen = []

        def fake_test(sample, spec, alpha):
            seen.append(spec)
            return TestReport(0.0, 1.0, "chi2", 1.0, alpha, False)

        monkeypatch.setattr(cli, "contamination_test", fake_test)
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0], [2.0]])
        args = ["contam-test", "--data", str(data), "--theta-range", "0.5:2"]
        assert main(args + option) == EXIT_OK
        assert (seen[0].lambda_lo, seen[0].lambda_hi) == (-0.25, 0.75)

    def test_abbreviated_option_is_unrecognized(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0], [2.0]])
        args = ["contam-test", "--data", str(data), "--theta-range", "0.5:2"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--lambda", "-0.25:0.75"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lambda -0.25:0.75" in capsys.readouterr().err

    def test_malformed_negative_range(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        write_csv(data, [[1.0]])
        code = main(
            [
                "contam-test",
                "--data",
                str(data),
                "--theta-range",
                "0.5:2",
                "--lambda-range",
                "-x:1",
            ]
        )
        assert code == EXIT_ERROR
        assert "--lambda-range must be numeric LO:HI" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        plan = str(FIXTURES / "linear_null_plan.json")
        assert main(["calibrate", "--plan", plan, "--json", str(out1)]) == EXIT_OK
        assert main(["calibrate", "--plan", plan, "--json", str(out2)]) == EXIT_OK
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        payload = json.loads(b1)
        assert 0.0 <= payload["rejection_rate"] <= 1.0
        assert len(payload["statistics"]) == 25

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"scenario": "linear_null", "n": 60, "replicates": 4, "alpha": 0.05}
            )
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("CHI2DUAL_SEED", "12345")
        main(["calibrate", "--plan", str(plan), "--json", str(out_a)])
        monkeypatch.setenv("CHI2DUAL_SEED", "54321")
        main(["calibrate", "--plan", str(plan), "--json", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()
        assert json.loads(out_a.read_text())["plan"]["base_seed"] == 12345


    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": 60, "replicates": 4, "base_seed": 1}, "'scenario'"),
            ({"scenario": "linear_null", "replicates": 4, "base_seed": 1}, "'n'"),
            ({"scenario": "linear_null", "n": "sixty", "replicates": 4, "base_seed": 1}, "'n'"),
            ({"scenario": "linear_null", "n": 60, "replicates": None, "base_seed": 1},
             "'replicates'"),
            ({"scenario": "linear_null", "n": 60, "replicates": 4, "base_seed": "x"},
             "'base_seed'"),
            ([{"scenario": "linear_null"}], "JSON object"),
        ],
    )
    def test_malformed_plan_names_file_and_field(self, tmp_path, capsys, payload, field):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(payload))
        code = main(["calibrate", "--plan", str(plan)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: {plan}: ") and field in err
        assert "Traceback" not in err

    def test_non_integer_env_seed_names_variable(self, tmp_path, capsys, monkeypatch):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"scenario": "linear_null", "n": 60, "replicates": 4}))
        monkeypatch.setenv("CHI2DUAL_SEED", "abc")
        code = main(["calibrate", "--plan", str(plan)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "error: CHI2DUAL_SEED must be an integer, got 'abc'" in err
        assert "Traceback" not in err


class TestReportIo:
    def test_float_formatting_full_precision(self):
        value = 0.1234567890123456789
        assert float(format_float(value)) == value
        assert format_float(2.0) == "2.0"

    def test_emit_json_round_trips(self):
        obj = {
            "a": 1,
            "b": [1.5, 2.25, True, None],
            "c": {"nested": "text with \"quotes\" and \\slash"},
        }
        assert json.loads(emit_json(obj)) == obj

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            emit_json({"x": float("nan")})
