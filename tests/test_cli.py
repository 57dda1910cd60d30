"""Command-line surface: parsing, exit codes, JSON contract."""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2dual import cli
from chi2dual.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, CliError, main, read_csv_sample
from chi2dual.reportio import emit_json, format_float
from chi2dual.rng import Stream

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# cells that float() and numpy's row parser may read differently, or not at all
ODD_CELLS = (
    "", "x", "nan", "-inf", "inf", "1e999", "1_0", "1e-320", "-0.0", "+2",
    "\u0661", "\x00", "\xa03", "\u30004",
)
PADDING = st.sampled_from(["", " ", "\t", "\xa0"])
CELL = st.tuples(
    PADDING,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-1000, 1000).map(str),
        st.sampled_from(ODD_CELLS),
    ),
    PADDING,
).map("".join)


@st.composite
def csv_texts(draw):
    """CSV texts mixing the shapes the reader must accept or reject alike."""
    width = draw(st.integers(1, 3))
    row = st.lists(CELL, min_size=width, max_size=width).map(",".join)
    line = st.one_of(
        row,
        row,
        row.map(lambda r: r + ","),  # trailing comma
        st.lists(CELL, min_size=1, max_size=4).map(",".join),  # maybe ragged
        st.sampled_from(["", " ", "\t\xa0 "]),  # blank and whitespace-only
    )
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))), "x1,x2")
    ends = st.sampled_from(["\n", "\r\n", "\r", "\x0c"])
    text = "".join(part + draw(ends) for part in lines)
    return text + draw(st.sampled_from(["", "0.5"]))


def _outcome(read):
    try:
        data = read()
    except CliError as exc:
        return "error", str(exc)
    return data.shape, data.dtype, data.tobytes()


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

    @given(csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_fast_path_matches_line_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            fast = _outcome(lambda: read_csv_sample(str(path)).data)
            reference = _outcome(lambda: cli._parse_csv_lines(str(path), text.splitlines()))
        assert fast == reference

    def test_plain_file_takes_fast_path(self, tmp_path, monkeypatch):
        def refuse(path, lines):
            raise AssertionError("per-line parser called on a plain file")

        monkeypatch.setattr(cli, "_parse_csv_lines", refuse)
        rows = Stream(13).uniforms(2000).reshape(-1, 2)
        path = tmp_path / "d.csv"
        write_csv(path, rows, header="x1,x2")
        data = read_csv_sample(str(path)).data
        assert data.shape == rows.shape and data.tobytes() == rows.tobytes()

    def test_utf8_bom_is_not_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert read_csv_sample(str(path)).n == 3
        path.write_bytes(b"\xef\xbb\xbfa,b\n3.0,4.0\n")
        assert read_csv_sample(str(path)).n == 1

    @pytest.mark.parametrize("kind", ["constraints", "plan"])
    def test_utf8_bom_json(self, tmp_path, kind):
        data = tmp_path / "d.csv"
        write_csv(data, Stream(14).uniforms(200).reshape(-1, 1))
        source = FIXTURES / ("uniform_quarter_mean.json" if kind == "constraints"
                             else "linear_null_plan.json")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        reports = []
        for path in (source, bom):
            out = tmp_path / f"{path.stem}.out"
            if kind == "constraints":
                argv = ["linear-test", "--data", str(data), "--constraints", str(path)]
            else:
                argv = ["calibrate", "--plan", str(path)]
            assert main(argv + ["--json", str(out)]) in (EXIT_OK, EXIT_REJECT)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


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

    def test_unwritable_json_path_names_path(self, tmp_path, capsys):
        data = tmp_path / "m.csv"
        write_csv(data, Stream(12).uniforms(2400).reshape(-1, 2).tolist())
        out = tmp_path / "missing" / "out.json"
        code = main(
            ["marginal-test", "--data", str(data), "--marginals", "uniform(0,1);uniform(0,1)",
             "--json", str(out)]
        )
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert f"error: cannot write {out}: " in err
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
            ({"scenario": "linear_null", "n": 60.7, "replicates": 4, "base_seed": 1}, "'n'"),
            ({"scenario": "linear_null", "n": 60, "replicates": True, "base_seed": 1},
             "'replicates'"),
            ({"scenario": "marginal_null", "n": 60, "replicates": 4, "base_seed": 1,
              "params": {"dd": 3}}, "scenario 'marginal_null' reads no params key 'dd'"),
            ({"scenario": "marginal_null", "n": 60, "replicates": 4, "base_seed": 1,
              "params": {"d": "two"}}, "params key 'd' must be int, got 'two'"),
            ({"scenario": "contam_null", "n": 60, "replicates": 4, "base_seed": 1,
              "params": {"theta_lo": "x"}}, "params key 'theta_lo' must be float, got 'x'"),
            ({"scenario": "marginal_null", "n": 60, "replicates": 4, "base_seed": 1,
              "params": {"d": 2.7}}, "params key 'd' must be int, got 2.7"),
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
