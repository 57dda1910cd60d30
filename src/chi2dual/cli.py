"""Command-line interface: data ingestion, test execution, calibration.

Data files are UTF-8 CSV, one observation per row, columns = coordinates,
blank lines skipped; the first non-blank line may be a header, and any other
unparseable cell is a hard error with its line number.  A UTF-8 byte-order
mark at the start of a data, constraints or plan file is dropped, so it
never turns the first row into a header.  The rows go through one numpy
parse; a file that parse refuses, or that holds a non-finite value, is read
again line by line, and that parser words every error.  numpy reads a
strict subset of what float() reads, and reads it the same way, so both
paths accept the same inputs.

``--theta-range`` takes the rate interval as ``LO:HI``; ``--lambda-max``
takes the open upper end HI of the mixing interval [0, HI), whose lower end
is 0 by rule.  Option names must be spelled in full.
Reports print as JSON, floats by ``repr``, the shortest text that reads back
the same float, and depend only on the inputs and the seed.  Exit codes:
0 = no rejection, 3 = rejection, 1 = error, 2 = usage error (argparse: a
missing, unknown or malformed option).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .contamination import ContaminationSpec, contamination_test
from .core import ConstraintFamily, Sample
from .errors import Chi2DualError, InvalidInput, SingularCovariance
from .exprparse import ExprError, compile_expression
from .linear import TestReport, test_linear
from .marginal import marginal_test, parse_marginal_spec
from .montecarlo import ReplicationPlan, run_plan

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 3


class CliError(Exception):
    """User-facing error with a clean message and exit code 1."""


def read_csv_sample(path: str) -> Sample:
    """Parse a CSV of observations; the first non-blank line may be a header."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    data = _parse_csv_fast(lines)
    if data is None:
        data = _parse_csv_lines(path, lines)
    return Sample(data)


def _parse_csv_fast(lines: list[str]) -> np.ndarray | None:
    """All rows in one C-level parse, or None to leave the file to
    ``_parse_csv_lines``.  numpy converts each cell with the parser that
    float() uses but accepts less (no ``_``, no non-ASCII digits, no
    whitespace-only line), so whatever it accepts it reads as float() does."""
    start = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    if start is None:
        return None
    try:
        [float(cell) for cell in lines[start].strip().split(",")]
    except ValueError:
        start += 1  # header row
    rows = lines[start:]
    if not any(rows):  # loadtxt would warn and return an empty array
        return None
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return data if np.isfinite(data).all() else None


def _parse_csv_lines(path: str, lines: list[str]) -> np.ndarray:
    """Reference parser, one line at a time; names the line of any error."""
    # one flat list: a list per row gives the garbage collector one object per row to scan
    cells: list[float] = []
    width = None
    header_allowed = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        first_line, header_allowed = header_allowed, False
        try:
            values = list(map(float, line.split(",")))  # float() strips blanks itself
        except ValueError:
            if first_line:
                continue  # header row
            raise CliError(f"{path}:{lineno}: unparseable cell in {line!r}") from None
        if width is None:
            width, first_row_line = len(values), lineno
        elif len(values) != width:
            raise CliError(
                f"{path}:{lineno}: expected {width} columns, found {len(values)}"
            )
        cells += values
    if not cells:
        raise CliError(f"{path}: no observations")
    data = np.array(cells).reshape(-1, width)
    # float() also reads nan, inf and overflowing literals such as 1e999
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        rows = lines[first_row_line - 1:]
        lineno = [n for n, raw in enumerate(rows, start=first_row_line) if raw.strip()][bad[0]]
        raise CliError(f"{path}:{lineno}: non-finite cell")
    return data


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def read_constraints(path: str, d: int) -> ConstraintFamily:
    """Constraints file: JSON {"constraints": [{"f": expr, "target": value}]}."""
    payload = _read_json(path)
    entries = payload.get("constraints") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise CliError(f"{path}: expected a non-empty list under 'constraints'")
    functions, targets, names = [], [], []
    for i, entry in enumerate(entries):
        try:
            expr, given = str(entry["f"]), entry["target"]
        except (KeyError, TypeError) as exc:
            raise CliError(f"{path}: constraint {i}: need fields 'f' and 'target'") from exc
        try:  # float() reads True as 1.0 and "1e999" as inf
            target = math.nan if isinstance(given, bool) else float(given)
        except (TypeError, ValueError):
            target = math.nan
        if not math.isfinite(target):
            raise CliError(f"{path}: constraint {i}: target must be a finite number, got {given!r}")
        try:
            functions.append(compile_expression(expr, d))
        except ExprError as exc:
            raise CliError(f"{path}: constraint {i}: {exc}") from exc
        targets.append(target)
        names.append(expr)
    return ConstraintFamily(tuple(functions), np.array(targets), names=tuple(names))


def emit_json(payload) -> str:
    """The report as indented JSON; a non-finite float raises ValueError."""
    return json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False)


def _write_report(payload: dict, json_path: str | None) -> None:
    text = emit_json(payload)
    print(text)
    if json_path:
        try:
            Path(json_path).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {json_path}: {exc}") from exc


def _emit_report(report: TestReport, json_path: str | None) -> int:
    _write_report(report.to_json_dict(), json_path)
    return EXIT_REJECT if report.reject else EXIT_OK


def _parse_pair(text: str, label: str, sep: str, form: str) -> tuple[float, float]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise CliError(f"{label} must look like {form}, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(f"{label} must be numeric {form}, got {text!r}") from None


def cmd_linear_test(args: argparse.Namespace) -> int:
    sample = read_csv_sample(args.data)
    fam = read_constraints(args.constraints, sample.d)
    try:
        report = test_linear(sample, fam, args.alpha)
    except InvalidInput as exc:  # only evaluating the constraints raises it here
        raise CliError(f"{args.constraints}: {exc}") from exc
    except SingularCovariance as exc:
        raise CliError(
            f"{exc} (hint: drop linearly dependent constraints or add data)"
        ) from exc
    return _emit_report(report, args.json)


def cmd_marginal_test(args: argparse.Namespace) -> int:
    sample = read_csv_sample(args.data)
    spec = parse_marginal_spec(args.marginals, sample.d)
    report = marginal_test(sample, spec, args.alpha, m=args.m)
    return _emit_report(report, args.json)


def cmd_contam_test(args: argparse.Namespace) -> int:
    sample = read_csv_sample(args.data)
    theta_lo, theta_hi = _parse_pair(args.theta_range, "--theta-range", ":", "LO:HI")
    given = {}  # options left out take ContaminationSpec's defaults
    if args.lambda_max is not None:
        given["lambda_hi"] = args.lambda_max
    if args.pareto is not None:
        gamma_nu = _parse_pair(args.pareto, "--pareto", ",", "G,NU")
        given["pareto_gamma"], given["pareto_nu"] = gamma_nu
    spec = ContaminationSpec(theta_lo=theta_lo, theta_hi=theta_hi, **given)
    report = contamination_test(sample, spec, args.alpha)
    return _emit_report(report, args.json)


def cmd_calibrate(args: argparse.Namespace) -> int:
    payload = _read_json(args.plan)
    if not isinstance(payload, dict):
        raise CliError(f"{args.plan}: expected a JSON object of plan fields")
    try:
        plan = ReplicationPlan.from_json_dict(payload)
    except InvalidInput as exc:
        raise CliError(f"{args.plan}: {exc}") from exc
    payload = run_plan(plan).to_json_dict()
    del payload["wall_time"]  # a measurement: the report must repeat byte for byte
    _write_report(payload, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi2dual",
        description="Dual chi-square divergence tests: linear constraints, "
        "marginal goodness of fit, contamination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help_text: str) -> argparse.ArgumentParser:
        # allow_abbrev=False: a prefix such as --lambda is refused, so an
        # option added later cannot change what a spelling means
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        cmd.set_defaults(func=func)
        return cmd

    linear = command("linear-test", cmd_linear_test, "test a finite set of moment constraints")
    linear.add_argument("--data", required=True, help="CSV of observations")
    linear.add_argument("--constraints", required=True, help="JSON constraints file")
    linear.add_argument("--alpha", type=float, default=0.05)
    linear.add_argument("--json", help="also write the report to this path")

    marg = command("marginal-test", cmd_marginal_test, "test all marginal distributions")
    marg.add_argument("--data", required=True)
    marg.add_argument(
        "--marginals",
        required=True,
        help="per-coordinate CDFs, e.g. 'uniform(0,1);exp(1.0)'",
    )
    marg.add_argument("--alpha", type=float, default=0.05)
    marg.add_argument("--m", type=int, default=None, help="grid cut count (default n^(1/4) rule)")
    marg.add_argument("--json")

    contam = command("contam-test", cmd_contam_test, "test exponentiality against contamination")
    contam.add_argument("--data", required=True)
    contam.add_argument("--theta-range", required=True, help="rate interval LO:HI, 0 < LO <= HI")
    contam.add_argument("--lambda-max", type=float, help="mixing interval [0, HI), 0 < HI < 1")
    contam.add_argument("--pareto", help="contaminant parameters G,NU")
    contam.add_argument("--alpha", type=float, default=0.05)
    contam.add_argument("--json")

    cal = command("calibrate", cmd_calibrate, "run a Monte Carlo replication plan")
    cal.add_argument("--plan", required=True, help="JSON plan file")
    cal.add_argument("--json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, Chi2DualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
