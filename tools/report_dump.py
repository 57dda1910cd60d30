"""Dump fixed-seed reports and search certificates, one line per item.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/report_dump.py OUT

Run it on two checkouts and compare the two OUT files with ``cmp``: a
change that must keep every report byte-identical leaves them equal.  Where
floats may move, ``tools/report_diff.py`` says by how much.  Each line is
``key<TAB>JSON``; floats are written by ``repr``, so a value that moves in
its last bit shows up.  The inputs are generated from fixed seeds
and the script uses only the package's public API, so the same file runs on
any tree that has it.  It writes no file other than OUT (the CLI inputs go
to a temporary directory that is removed afterwards).  It takes about 12 s
on a 2-vCPU host.
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
    Stream,
    chi2_simple,
    contamination_test,
    marginal_test,
    model_integral,
    rmixture,
    run_plan,
)
from chi2dual.cli import main as cli_main
from chi2dual.montecarlo import SCENARIOS
from chi2dual.reportio import emit_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
# (seed, contamination weight) of the n = 200 contamination samples
CONTAM_SAMPLES = ((101, 0.0), (102, 0.15), (103, 0.3))
PROFILE_ALPHAS = (0.7, 1.0, 1.6)
# (alpha, theta, lambda); the last point has a nonpositive mixture density
MODEL_POINTS = ((1.0, 0.5, 0.0), (1.5, 0.9, 0.3), (2.0, 0.5, -0.05), (0.6, 2.0, -0.2))
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
    commands = {
        "linear": ["linear-test", "--data", str(linear_csv),
                   "--constraints", str(FIXTURES / "uniform_quarter_mean.json")],
        "marginal": ["marginal-test", "--data", str(marginal_csv),
                     "--marginals", "uniform(0,1);uniform(0,1)"],
        "contam": ["contam-test", "--data", str(contam_csv), "--theta-range", "0.5:2"],
        "calibrate": ["calibrate", "--plan", str(FIXTURES / "linear_null_plan.json")],
    }
    return [_line(f"cli.{name}", _cli(argv)) for name, argv in commands.items()]


def plan_lines() -> list[str]:
    lines = []
    for scenario in SCENARIOS:
        n, replicates = PLANS[scenario]
        plan = ReplicationPlan(scenario=scenario, n=n, replicates=replicates, base_seed=2024)
        payload = run_plan(plan).to_json_dict()
        del payload["wall_time"]
        lines.append(_line(f"run_plan.{scenario}", emit_json(payload)))
    return lines


def contamination_lines() -> list[str]:
    lines = []
    for seed, lam in CONTAM_SAMPLES:
        x = rmixture(Stream(seed), 200, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
        sample = Sample(x.reshape(-1, 1))
        report = contamination_test(sample, SPEC, 0.05)
        lines.append(_line(f"contamination_test.{seed}", emit_json(report.to_json_dict())))
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
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: report_dump.py OUT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        lines = cli_lines(Path(tmp))
    lines += plan_lines() + marginal_lines() + contamination_lines() + model_integral_lines()
    Path(argv[0]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
