"""Each oracle accepts the program's output and rejects a planted error."""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from chi2dual import contamination, core, linear, marginal, montecarlo, rng  # noqa: E402

PLANTED = 1e-6  # relative error planted in one field; far above REL_TOL


def planted(value):
    return value * (1.0 + PLANTED) + PLANTED


def test_expect_close_tolerance():
    oracles.expect_close(1.0 + 1e-12, 1.0, "ok")
    oracles.expect_close(1e-12, 0.0, "near zero")
    with pytest.raises(oracles.OracleMismatch):
        oracles.expect_close(planted(5.0), 5.0, "planted")
    with pytest.raises(oracles.OracleMismatch):
        oracles.expect_close(float("nan"), 5.0, "nan")


def test_linear_oracle():
    data = np.column_stack((rng.Stream(4).uniforms(3000), montecarlo.rexp(rng.Stream(5), 3000, 1.0)))
    fns = [lambda a: a[:, 0], lambda a: a[:, 1], lambda a: a[:, 0] * a[:, 1]]
    targets = [0.5, 1.0, 0.5]
    fam = core.ConstraintFamily(tuple(fns), np.array(targets))
    report = linear.test_linear(core.Sample(data), fam, 0.05).to_json_dict()
    oracles.check_linear_report(data, fns, targets, report)
    bad = dict(report, statistic=planted(report["statistic"]))
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_linear_report(data, fns, targets, bad)
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_linear_report(data, fns, targets, dict(report, reject=not report["reject"]))


def test_marginal_oracle():
    text = workloads.MarginalBulk.spec_text
    stream = rng.Stream(9)
    data = np.column_stack((stream.derive(1).uniforms(5000), montecarlo.rexp(stream.derive(2), 5000, 1.0),
                            montecarlo.rnormal(stream.derive(3), 5000)))
    report = marginal.marginal_test(core.Sample(data), marginal.parse_marginal_spec(text), 0.05).to_json_dict()
    u = workloads.pit(data, text)
    oracles.check_marginal_report(u, report)
    bad = copy.deepcopy(report)
    bad["diagnostics"]["scaled_statistic"] = planted(bad["diagnostics"]["scaled_statistic"])
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_marginal_report(u, bad)
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_marginal_report(u, dict(report, statistic=planted(report["statistic"])))


@pytest.mark.parametrize("theta, lam", [(1.2, 0.0), (0.9, 0.3), (1.5, 0.05)])
def test_quadrature_oracle_matches_model_integral(theta, lam):
    spec = contamination.ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
    g = contamination.DualGFunction(1.0, theta, lam, spec)
    quad = oracles.model_integral_quad(1.0, theta, lam, spec.pareto_gamma, spec.pareto_nu)
    oracles.expect_close(contamination.model_integral(g), quad, "model integral")


def test_contamination_oracle():
    spec = contamination.ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
    x = montecarlo.rmixture(rng.Stream(21), 200, 1.0, 0.15, spec.pareto_gamma, spec.pareto_nu)
    quick = contamination.SearchSettings(inner_grid=4, nm_starts=1, nm_max_evals=20, outer_coarse=3, alpha_tol=0.05)
    report = contamination.contamination_test(core.Sample(x.reshape(-1, 1)), spec, 0.05, settings=quick)
    oracles.check_contam_report(x, report, spec)
    for field in ("theta_hat", "lambda_hat"):
        # the objective is flat to first order at its optimum: plant 1e-3
        diagnostics = dict(report.diagnostics, **{field: report.diagnostics[field] * 1.001 + 1e-3})
        with pytest.raises(oracles.OracleMismatch):
            oracles.check_contam_report(x, dataclasses.replace(report, diagnostics=diagnostics), spec)
    wrong = dataclasses.replace(report, statistic=planted(report.statistic))
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_contam_report(x, wrong, spec)


@pytest.mark.parametrize("scenario", workloads.CalibrateSmall.scenarios)
def test_plan_oracle(scenario):
    params = {"d": 2} if scenario.startswith("marginal") else {}
    plan = montecarlo.ReplicationPlan(scenario, 200, 20, 77, params=params)
    report = montecarlo.run_plan(plan).to_json_dict()
    oracles.check_plan_report(report)
    stats = list(report["statistics"])
    stats[7] = planted(stats[7])
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_plan_report(dict(report, statistics=stats))
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_plan_report(dict(report, ks_distance=planted(report["ks_distance"])))


class SmallCli(workloads.CliFiles):
    rows = 2000
    plan = dict(workloads.CliFiles.plan, replicates=20)


def test_cli_oracle(tmp_path):
    wl = SmallCli(5, tmp_path)
    outputs = [(i, wl.call(i)) for i in range(6)]
    assert wl.check(outputs) == 6
    for key in range(3):
        code, text = outputs[key][1]
        report = json.loads(text)
        report["statistic" if key < 2 else "ks_distance"] *= 1.0 + PLANTED
        with pytest.raises(oracles.OracleMismatch):
            wl.check_one(key, (code, json.dumps(report)))
    code, text = outputs[0][1]
    with pytest.raises(oracles.OracleMismatch):
        wl.check_one(0, (3 - code, text))


def test_repeat_must_agree(tmp_path):
    wl = SmallCli(5, tmp_path)
    first, again = wl.call(0), wl.call(3)
    code, text = again
    report = json.loads(text)
    report["p_value"] = planted(report["p_value"])
    wl.check([(0, first), (3, again)])
    with pytest.raises(oracles.OracleMismatch):
        wl.check([(0, first), (3, (code, json.dumps(report)))])
