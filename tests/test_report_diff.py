"""Verdicts and exit codes of ``tools/report_diff.py`` on small dump pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

# an emitted report after the CLI's exit line, as report_dump.py writes it
REPORT = 'exit=0\n{\n  "statistic": 2.5,\n  "p_value": %s,\n  "law": "%s",\n  "df": %d\n}'
BASE = [
    ("plain", [1.0, 2.5, 3]),
    ("report", REPORT % ("0.05", "chi2_k", 3)),
]


def write_dump(path, rows):
    path.write_text("".join(f"{key}\t{json.dumps(value)}\n" for key, value in rows),
                    encoding="utf-8")
    return str(path)


def run(tmp_path, capsys, rows_b):
    code = report_diff.main([write_dump(tmp_path / "a.txt", BASE),
                             write_dump(tmp_path / "b.txt", rows_b)])
    return code, capsys.readouterr().out


def test_identical_dumps_print_nothing(tmp_path, capsys):
    assert run(tmp_path, capsys, BASE) == (0, "")


def test_one_moved_float_is_counted(tmp_path, capsys):
    code, out = run(tmp_path, capsys, [("plain", [1.0, 2.5000000001, 3]), BASE[1]])
    assert code == 0
    assert out.startswith("plain: 1 of 2 floats moved, largest relative difference 4e-11")


def test_the_same_float_spelled_two_ways(tmp_path, capsys):
    # .17g against repr: one float, two texts
    code, out = run(tmp_path, capsys, [BASE[0], ("report", REPORT % ("0.050000000000000003",
                                                                     "chi2_k", 3))])
    assert (code, out) == (1, "report: same values, different text\n")


@pytest.mark.parametrize(
    "rows_b, verdict",
    [
        ([BASE[0], ("report", REPORT % ("0.05", "normal", 3))], "report: non-float difference"),
        ([BASE[0], ("report", REPORT % ("0.05", "chi2_k", 4))], "report: non-float difference"),
        ([("plain", [1.0, 2.5, 4]), BASE[1]], "plain: non-float difference"),
    ],
    ids=["string", "report_int", "int"],
)
def test_a_changed_string_or_int_fails(tmp_path, capsys, rows_b, verdict):
    code, out = run(tmp_path, capsys, rows_b)
    assert code == 1
    assert out.startswith(verdict)


def test_a_key_in_one_dump_only_fails(tmp_path, capsys):
    code, out = run(tmp_path, capsys, [*BASE, ("extra", 1.0)])
    assert code == 1
    assert out == f"extra: only in {tmp_path / 'b.txt'}\n"
