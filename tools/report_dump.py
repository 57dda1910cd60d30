"""Dump fixed-seed reports and search certificates, one line per item.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/report_dump.py OUT

To compare two trees, run each tree's own script on its own checkout and
compare the two OUT files with ``cmp``: a change that must keep every
report byte-identical leaves them equal.  A change that adds rows runs
its own script twice instead, with ``PYTHONPATH`` set to each tree's
``src/`` in turn.  Where floats may move,
``tools/report_diff.py`` says by how much.  Each line is ``key<TAB>JSON``;
floats are written by ``repr``, so a value that moves in its last bit shows
up.  The inputs are generated from fixed seeds.  The ``minimax_gap`` rows
come from ``tests/reference.py``, which the script puts on ``sys.path``.
It writes no file other than OUT (the CLI inputs go to a temporary
directory that is removed afterwards).  It takes about 2 s on a 2-vCPU
host.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from chi2dual import (
    Chi2DualError,
    ContaminationSpec,
    DegenerateCellsWarning,
    DualGFunction,
    MarginalSpec,
    NonPositiveDensity,
    ReplicationPlan,
    Sample,
    SearchSettings,
    Stream,
    chi2_simple,
    contamination_test,
    dual_objective_contam,
    marginal_test,
    model_integral,
    replicate_seed,
    rexp,
    rmixture,
    run_plan,
)
from chi2dual.cli import CliError, emit_json, read_csv_sample
from chi2dual.cli import main as cli_main
from chi2dual.exprparse import ExprError, compile_expression
from chi2dual.montecarlo import SCENARIOS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import minimax_gap  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
# (seed, contamination weight) of the n = 200 contamination samples
CONTAM_SAMPLES = ((101, 0.0), (102, 0.15), (103, 0.3))
PROFILE_ALPHAS = (0.7, 1.0, 1.6)
# a steep contaminant: the mixture density switches from the exponential to
# the Pareto regime within a short stretch above nu, tested on the null
# sample of seed 101
STEEP_SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, pareto_gamma=50.0, pareto_nu=1.2)
# a rate resolution 100 times finer than the default, three or four more
# rounds of the rate search; the null sample is also tested at it
FINE_RATE_SETTINGS = SearchSettings(alpha_tol=2e-5)
# (seed, contamination weight) of the n = 100 minimax_gap samples, searched
# with a reduced SearchSettings (two lockstep starts) to keep the dump quick
GAP_SAMPLES = ((104, 0.0), (105, 0.2))
GAP_SETTINGS = SearchSettings(inner_grid=4, nm_starts=2, nm_max_evals=20, outer_coarse=3, alpha_tol=0.05)
# (base seed, replicate, contamination weight) of an n = 200 contam_alt
# sample whose minimax_gap is also taken at the default search
DEFAULT_GAP_SAMPLE = (7, 2, 0.15)
# one observation so far out that f_alpha and the exponential part of the
# mixture density both underflow at alpha = 1
FAR_POINT = 2000.0
# (alpha, theta, lambda) of dual_objective_contam on the far-point sample:
# +inf (lambda = 0, theta >= 2 alpha), refused by rule (lambda < 0), and
# finite model integral but g not finite at the far observation
FAR_POINT_DUAL_POINTS = ((0.6, 1.5, 0.0), (2.0, 0.5, -0.05), (1.0, 1.9, 0.0))
# (alpha, theta, lambda); the third point has lambda < 0 and is refused by
# rule, and the last has theta >= 2 alpha, where the Pareto floor of the
# mixture density bounds the tail
MODEL_POINTS = ((1.0, 0.5, 0.0), (1.5, 0.9, 0.3), (2.0, 0.5, -0.05), (0.6, 2.0, 0.2))
# (alpha, theta, lambda) under STEEP_SPEC: one point inside the search box
# [theta_lo, min(theta_hi, 1.5 alpha)] x [0, lambda_hi) and one outside it
STEEP_MODEL_POINTS = ((1.0, 1.2, 0.3), (0.6, 1.5, 1e-9))
# a wide rate interval, whose quadrature layout comes from its lowest rates,
# with (alpha, theta, lambda) in the search box at both ends of it
WIDE_SPEC = ContaminationSpec(theta_lo=0.05, theta_hi=10.0)
WIDE_MODEL_POINTS = ((8.0, 10.0, 0.3), (0.05, 0.07, 1e-9), (10.0, 0.05, 0.5))
# a mixing box [0, lambda_hi) narrower than the search's step below its top,
# tested at alpha = 1 on the contaminated sample of seed 3
NARROW_LAMBDA_SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, lambda_hi=1e-10)
# small CSV files for the reader, written as these exact bytes
CSV_FILES = {
    "header": b"x1,x2\n0.25,1.5\n0.75,2.5\n",
    "no_header": b"0.25,1.5\n0.75,2.5\n",
    "blank_lines": b"\n0.25\n\n  \n0.75\n\n",
    "crlf": b"x\r\n0.25\r\n0.75\r\n",
    "single_column": b"0.125\n0.25\n0.5\n",
    "non_finite": b"x\n0.5\n\ninf\n",
    "bom": b"\xef\xbb\xbf0.25,1.5\n0.75,2.5\n0.5,3.5\n",
}
# linear-test constraints over two coordinates: every operator and function,
# a right-associative power chain and a negative exponent
EXPRESSIONS = (
    "x1 + x2 - 0.5",
    "x1 * x2 / 0.25",
    "2^-x1",
    "x2^2^0.5",
    "-x1^2 + exp(x2)",
    "pow(x1, 3) - log(x2 + 1)",
    "le(x1, 0.5) * le(x2, 0.25)",
)
# (expression, dimension) pairs that compile_expression refuses
MALFORMED_EXPRESSIONS = (
    ("", 2), ("   ", 2), ("x1 @ 2", 2), ("x1 +", 2), ("(x1+1", 2), ("(x1 1)", 2),
    ("pow(x1 x1)", 2), ("x1 * )", 2), ("pow(x1)", 2), ("exp(x1, 2)", 2), ("sin(x1)", 2),
    ("y1", 2), ("x3", 2), ("x0", 2), ("x1 x1", 2), ("2^", 2), ("le(,x1)", 2),
    ("1.2.3", 2), ("x1 ^ ^ 2", 2), ("x1", 0),
)
# (scenario, n, replicates): small plans, every scenario once
PLANS = {
    "linear_null": (200, 20),
    "linear_alt": (200, 20),
    "marginal_null": (400, 10),
    "marginal_alt": (400, 10),
    "contam_null": (150, 2),
    "contam_alt": (150, 2),
}


def _line(key: str, value) -> str:
    return f"{key}\t{json.dumps(value)}"


def _write_csv(path: Path, rows) -> None:
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text(text + "\n", encoding="utf-8")


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"exit={code}\n{out.getvalue()}{err.getvalue()}"


def cli_lines(tmp: Path) -> list[str]:
    stream = Stream(7)
    linear_csv = tmp / "linear.csv"
    _write_csv(linear_csv, stream.uniforms(500).reshape(-1, 1))
    marginal_csv = tmp / "marginal.csv"
    _write_csv(marginal_csv, Stream(8).uniforms(3000).reshape(-1, 2))
    contam_csv = tmp / "contam.csv"
    _write_csv(contam_csv, rmixture(Stream(9), 200, 1.0, 0.1, 2.0, 1.5).reshape(-1, 1))
    expr_json = tmp / "expressions.json"
    targets = (0.5, 1.0, 0.721, 0.414, 1.385, -0.136, 0.125)  # near the uniform means
    expr_json.write_text(json.dumps(
        {"constraints": [{"f": f, "target": t} for f, t in zip(EXPRESSIONS, targets)]}))
    commands = {
        "linear": ["linear-test", "--data", str(linear_csv),
                   "--constraints", str(FIXTURES / "uniform_quarter_mean.json")],
        "expr": ["linear-test", "--data", str(marginal_csv), "--constraints", str(expr_json)],
        "marginal": ["marginal-test", "--data", str(marginal_csv),
                     "--marginals", "uniform(0,1);uniform(0,1)"],
        "contam": ["contam-test", "--data", str(contam_csv), "--theta-range", "0.5:2"],
        "calibrate": ["calibrate", "--plan", str(FIXTURES / "linear_null_plan.json")],
    }
    lines = [_line(f"cli.{name}", _cli(argv)) for name, argv in commands.items()]
    messages = []
    for text, d in MALFORMED_EXPRESSIONS:
        try:
            compile_expression(text, d)
            outcome = "compiled"
        except ExprError as exc:
            outcome = str(exc)
        messages.append([text, d, outcome])
    return lines + [_line("cli.expr.errors", messages)]


def csv_lines(tmp: Path) -> list[str]:
    """The parsed array, or the error with the file's directory left out."""
    lines = []
    for name, content in CSV_FILES.items():
        path = tmp / f"{name}.csv"
        path.write_bytes(content)
        try:
            data = read_csv_sample(str(path)).data
            outcome = {"shape": list(data.shape), "data": [repr(v) for v in data.ravel().tolist()]}
        except CliError as exc:
            outcome = {"error": str(exc).replace(str(path), path.name)}
        lines.append(_line(f"cli.csv.{name}", outcome))
    return lines


def plan_lines() -> list[str]:
    lines = []
    for scenario in SCENARIOS:
        n, replicates = PLANS[scenario]
        plan = ReplicationPlan(scenario=scenario, n=n, replicates=replicates, base_seed=2024)
        payload = run_plan(plan).to_json_dict()
        del payload["wall_time"]
        lines.append(_line(f"run_plan.{scenario}", emit_json(payload)))
    return lines


def _dual_objective(alpha: float, theta: float, lam: float, sample: Sample) -> str:
    """repr of dual_objective_contam, or its error's class (the message may
    differ between trees)."""
    try:
        return repr(dual_objective_contam(DualGFunction(alpha, theta, lam, SPEC), sample))
    except Chi2DualError as exc:
        return type(exc).__name__


def contamination_lines() -> list[str]:
    lines = []
    for seed, lam in CONTAM_SAMPLES:
        x = rmixture(Stream(seed), 200, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
        sample = Sample(x.reshape(-1, 1))
        report = contamination_test(sample, SPEC, 0.05)
        lines.append(_line(f"contamination_test.{seed}", emit_json(report.to_json_dict())))
        optimum = (report.diagnostics[k] for k in ("alpha_hat", "theta_hat", "lambda_hat"))
        lines.append(_line(f"dual_objective_contam.{seed}", _dual_objective(*optimum, sample)))
        if lam == 0.0:
            report = contamination_test(sample, SPEC, 0.05, settings=FINE_RATE_SETTINGS)
            payload = emit_json(report.to_json_dict())
            lines.append(_line(f"contamination_test.{seed}.alpha_tol_2e-5", payload))
        for alpha in PROFILE_ALPHAS:
            result = chi2_simple(sample, alpha, SPEC)
            certificate = {
                "value": repr(result.value),
                "theta_hat": repr(result.theta_hat),
                "lambda_hat": repr(result.lambda_hat),
                "start_points": [[repr(v) for v in p] for p in result.start_points],
                "n_evaluations": result.n_evaluations,
            }
            lines.append(_line(f"chi2_simple.{seed}.{alpha}", certificate))
    x = rexp(Stream(101), 200, 1.0)
    x[0] = FAR_POINT
    try:
        result = chi2_simple(Sample(x.reshape(-1, 1)), 1.0, SPEC)
        outcome = {
            "value": repr(result.value),
            "theta_hat": repr(result.theta_hat),
            "lambda_hat": repr(result.lambda_hat),
            "n_evaluations": result.n_evaluations,
        }
    except Chi2DualError as exc:
        outcome = type(exc).__name__
    lines.append(_line("chi2_simple.far_point", outcome))
    for alpha, theta, lam in FAR_POINT_DUAL_POINTS:
        value = _dual_objective(alpha, theta, lam, Sample(x.reshape(-1, 1)))
        lines.append(_line(f"dual_objective_contam.far_point.{alpha}.{theta}.{lam}", value))
    x = rmixture(Stream(3), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    result = chi2_simple(Sample(x.reshape(-1, 1)), 1.0, NARROW_LAMBDA_SPEC)
    outcome = {
        "value": repr(result.value),
        "theta_hat": repr(result.theta_hat),
        "lambda_hat": repr(result.lambda_hat),
        "n_evaluations": result.n_evaluations,
    }
    lines.append(_line("chi2_simple.3.lambda_hi_1e-10", outcome))
    x = rmixture(Stream(101), 200, 1.0, 0.0, SPEC.pareto_gamma, SPEC.pareto_nu)
    try:
        report = contamination_test(Sample(x.reshape(-1, 1)), STEEP_SPEC, 0.05)
        outcome = emit_json(report.to_json_dict())
    except Chi2DualError as exc:
        outcome = type(exc).__name__
    lines.append(_line("contamination_test.101.steep", outcome))
    for seed, lam in GAP_SAMPLES:
        x = rmixture(Stream(seed), 100, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
        gap = minimax_gap(Sample(x.reshape(-1, 1)), SPEC, GAP_SETTINGS)
        lines.append(_line(f"minimax_gap.{seed}", repr(gap)))
    seed, replicate, lam = DEFAULT_GAP_SAMPLE
    x = rmixture(Stream(replicate_seed(seed, replicate)), 200, 1.0, lam, SPEC.pareto_gamma,
                 SPEC.pareto_nu)
    gap = minimax_gap(Sample(x.reshape(-1, 1)), SPEC)
    lines.append(_line(f"minimax_gap.{seed}.{replicate}.default", repr(gap)))
    return lines


def marginal_lines() -> list[str]:
    """marginal_test at d = 1 and d = 3, and two d = 2 samples with an empty cell."""
    lines = []
    for d, power in ((1, 1.0), (3, 1.1)):
        sample = Sample(Stream(20 + d).uniforms(3000 * d).reshape(-1, d) ** power)
        report = marginal_test(sample, MarginalSpec.all_uniform(d), 0.05)
        lines.append(_line(f"marginal_test.d{d}", emit_json(report.to_json_dict())))
    spread = np.linspace(0.01, 0.99, 60)
    # m = 2: x1 misses the first cell (0, 1/3] or the last cell (2/3, 1]
    for name, x1 in (("first", np.linspace(0.4, 0.99, 60)), ("last", np.linspace(0.01, 0.6, 60))):
        sample = Sample(np.column_stack([x1, spread]))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateCellsWarning)
                marginal_test(sample, MarginalSpec.all_uniform(2), 0.05, m=2)
            outcome = "no exception"
        except Chi2DualError as exc:  # the message may differ between trees
            outcome = type(exc).__name__
        lines.append(_line(f"marginal_test.empty_{name}_cell", outcome))
    return lines


def model_integral_lines() -> list[str]:
    lines = []
    for alpha, theta, lam in MODEL_POINTS:
        try:
            value = repr(model_integral(DualGFunction(alpha, theta, lam, SPEC)))
        except NonPositiveDensity as exc:
            value = f"NonPositiveDensity: {exc}"
        lines.append(_line(f"model_integral.{alpha}.{theta}.{lam}", value))
    for alpha, theta, lam in STEEP_MODEL_POINTS:
        value = repr(model_integral(DualGFunction(alpha, theta, lam, STEEP_SPEC)))
        lines.append(_line(f"model_integral.steep.{alpha}.{theta}.{lam}", value))
    for alpha, theta, lam in WIDE_MODEL_POINTS:
        value = repr(model_integral(DualGFunction(alpha, theta, lam, WIDE_SPEC)))
        lines.append(_line(f"model_integral.wide.{alpha}.{theta}.{lam}", value))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: report_dump.py OUT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        lines = cli_lines(Path(tmp)) + csv_lines(Path(tmp))
    lines += plan_lines() + marginal_lines() + contamination_lines() + model_integral_lines()
    Path(argv[0]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
