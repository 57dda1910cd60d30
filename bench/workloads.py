"""The four benchmark workloads.

A workload makes its inputs from the seed in ``__init__`` (set-up, using
the public generators of ``chi2dual.rng`` / ``chi2dual.montecarlo``), runs
one unit of work per ``call(i)``, cycling through its inputs, and checks
outputs with ``check``, which raises ``OracleMismatch``.  The unit of work
is one test: one public test call on one sample, one ``run_plan`` call or
one CLI command.  Entry points are looked up through their modules so that
the tracer can wrap them.

Why these four (BENCHMARK.json declares contam_profile and cli_files; the
other two are run by hand, see run.py):

* contam_profile -- nearly all time is in the contamination layer
  (quadrature, Nelder-Mead inner sup, alpha profile).  Null samples take the
  lambda = 0 line and contaminated ones the Pareto-tail branch.
* marginal_bulk -- n = 200 000, d = 3: the dense indicator matrix (n*k*8,
  about 106 MB) is the size of a 105 MiB L3; no contamination work.
* calibrate_small -- many small tests, where per-call overhead, RNG, Sample
  validation, the SPD solve and KS dominate rather than bulk arithmetic.
* cli_files -- the only workload through cli, exprparse and reportio, on a
  50 000-row CSV.  contam-test is left out: contam_profile measures it.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
import scipy.stats

from chi2dual import cli, contamination, core, linear, marginal, montecarlo, rng
from chi2dual.errors import NonPositiveDensity

import oracles

ALPHA = 0.05


def _json_close(got, want, where: str) -> None:
    """Equal wire-format values; floats to the oracle tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            raise oracles.OracleMismatch(f"{where}: keys {got!r} != {want!r}")
        for key in want:
            _json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            raise oracles.OracleMismatch(f"{where}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            _json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            raise oracles.OracleMismatch(f"{where}: {got!r} != {want!r}")
        oracles.expect_close(float(got), float(want), where)
    elif got != want:
        raise oracles.OracleMismatch(f"{where}: {got!r} != {want!r}")


class Workload:
    name = ""
    warmup_calls = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir

    def call(self, i: int):
        raise NotImplementedError

    def key(self, i: int) -> int:
        """Index of the input call ``i`` uses; equal keys give equal outputs."""
        raise NotImplementedError

    def check_one(self, key: int, output) -> None:
        raise NotImplementedError

    def canonical(self, output):
        """The part of an output that must repeat exactly for the same input."""
        return output

    def check(self, outputs: list[tuple[int, object]]) -> int:
        """Run the oracle once per distinct input and require repeats to agree.

        Returns the number of outputs checked.
        """
        first: dict[int, object] = {}
        for i, output in outputs:
            key = self.key(i)
            if key not in first:
                self.check_one(key, output)
                first[key] = self.canonical(output)
            elif self.canonical(output) != first[key]:
                raise oracles.OracleMismatch(f"call {i}: output differs from an earlier call on the same input")
        return len(outputs)

    def probes(self) -> dict[str, float]:
        """Layer metrics measured outside the traced calls."""
        return {}


class ContamProfile(Workload):
    name = "contam_profile"
    n = 200
    pool = 48

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.spec = contamination.ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
        master = rng.Stream(seed)
        self.data = []
        for i in range(self.pool):
            stream = master.derive(i + 1)
            if i % 2 == 0:
                x = montecarlo.rexp(stream, self.n, 1.0)
            else:
                x = montecarlo.rmixture(stream, self.n, 1.0, 0.15, self.spec.pareto_gamma, self.spec.pareto_nu)
            self.data.append(x)
        self.samples = [core.Sample(x.reshape(-1, 1)) for x in self.data]

    def key(self, i: int) -> int:
        return i % self.pool

    def call(self, i: int):
        return contamination.contamination_test(self.samples[self.key(i)], self.spec, ALPHA)

    def canonical(self, output):
        return output.to_json_dict()

    def check_one(self, key: int, output) -> None:
        oracles.check_contam_report(self.data[key], output, self.spec)

    def probes(self) -> dict[str, float]:
        """model_integral timed point by point on the fixed candidate grid.

        The grid is the search's coarse grid for the default spec: 8 rates
        times 8 interior mixing weights plus the lambda = 0 line and the
        (alpha, 0) anchor, at alpha in {0.5, 1, 1.5, 2}.
        """
        spec = self.spec
        thetas = np.linspace(spec.theta_lo, spec.theta_hi, 8)
        step = (spec.lambda_hi - spec.lambda_lo) / 8
        lams = np.append(spec.lambda_lo + step * (np.arange(8) + 0.5), 0.0)
        points = []
        for alpha in (0.5, 1.0, 1.5, 2.0):
            points += [(alpha, t, l) for t in thetas for l in lams] + [(alpha, alpha, 0.0)]
        gs = [contamination.DualGFunction(a, float(t), float(l), spec) for a, t, l in points]
        per_point = []
        admissible = 0
        for _ in range(5):
            admissible = 0
            start = time.perf_counter()
            for g in gs:
                try:
                    contamination.model_integral(g)
                    admissible += 1
                except NonPositiveDensity:
                    pass
            per_point.append((time.perf_counter() - start) / len(gs))
        return {
            "contamination.quadrature_us": 1e6 * float(np.median(per_point)),
            "contamination.admissible_ratio": admissible / len(gs),
        }


class MarginalBulk(Workload):
    name = "marginal_bulk"
    n = 200_000
    pool = 3
    spec_text = "uniform(0,1);exp(1.0);normal(0,1)"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.spec = marginal.parse_marginal_spec(self.spec_text)
        master = rng.Stream(seed)
        self.samples = []
        for i in range(self.pool):
            stream = master.derive(i + 1)
            data = np.column_stack((
                stream.derive(1).uniforms(self.n),
                montecarlo.rexp(stream.derive(2), self.n, 1.0),
                montecarlo.rnormal(stream.derive(3), self.n),
            ))
            self.samples.append(core.Sample(data))

    def key(self, i: int) -> int:
        return i % self.pool

    def call(self, i: int):
        return marginal.marginal_test(self.samples[self.key(i)], self.spec, ALPHA)

    def canonical(self, output):
        return output.to_json_dict()

    def check_one(self, key: int, output) -> None:
        oracles.check_marginal_report(pit(self.samples[key].data, self.spec_text), output.to_json_dict())


def pit(data: np.ndarray, spec_text: str) -> np.ndarray:
    """The probability integral transform for the fixed specs used here."""
    laws = {
        "uniform(0,1)": lambda x: np.clip(x, 0.0, 1.0),
        "exp(1.0)": lambda x: np.where(x <= 0.0, 0.0, -np.expm1(-np.maximum(x, 0.0))),
        "normal(0,1)": lambda x: scipy.stats.norm.cdf(x),
    }
    terms = spec_text.split(";")
    return np.column_stack([laws[t](data[:, j]) for j, t in enumerate(terms)])


class CalibrateSmall(Workload):
    name = "calibrate_small"
    scenarios = ("linear_null", "linear_alt", "marginal_null", "marginal_alt")
    sizes = (200, 1000)
    base_seeds = 2
    replicates = 200
    warmup_calls = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.plans = [
            montecarlo.ReplicationPlan(
                scenario=scenario,
                n=n,
                replicates=self.replicates,
                base_seed=seed * 1000 + b,
                alpha=ALPHA,
                params={"d": 2} if scenario.startswith("marginal") else {},
            )
            for b in range(self.base_seeds)
            for n in self.sizes
            for scenario in self.scenarios
        ]

    def key(self, i: int) -> int:
        return i % len(self.plans)

    def call(self, i: int):
        return montecarlo.run_plan(self.plans[self.key(i)])

    def canonical(self, output):
        payload = output.to_json_dict()
        payload.pop("wall_time")  # measured, so never repeats
        return payload

    def check_one(self, key: int, output) -> None:
        oracles.check_plan_report(self.canonical(output))


class CliFiles(Workload):
    name = "cli_files"
    rows = 50_000
    warmup_calls = 3
    marginals = "uniform(0,1);exp(1.0)"
    # (expression, numpy twin, target under the generating law)
    constraints = (
        ("x1", lambda a: a[:, 0], 0.5),
        ("x2", lambda a: a[:, 1], 1.0),
        ("x1*x2", lambda a: a[:, 0] * a[:, 1], 0.5),
        ("le(x2, 1)", lambda a: (a[:, 1] <= 1.0).astype(float), float(-np.expm1(-1.0))),
    )
    plan = {"scenario": "linear_null", "n": 500, "replicates": 200, "alpha": ALPHA, "params": {}}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        master = rng.Stream(seed)
        self.data = np.column_stack((
            master.derive(1).uniforms(self.rows),
            montecarlo.rexp(master.derive(2), self.rows, 1.0),
        ))
        csv_path = workdir / "data.csv"
        lines = ["x1,x2"] + [",".join(repr(float(v)) for v in row) for row in self.data]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cons_path = workdir / "constraints.json"
        cons_path.write_text(json.dumps(
            {"constraints": [{"f": expr, "target": target} for expr, _, target in self.constraints]}
        ), encoding="utf-8")
        plan_path = workdir / "plan.json"
        self.plan = dict(self.plan, base_seed=seed)
        plan_path.write_text(json.dumps(self.plan), encoding="utf-8")
        self.commands = (
            ["linear-test", "--data", str(csv_path), "--constraints", str(cons_path)],
            ["marginal-test", "--data", str(csv_path), "--marginals", self.marginals],
            ["calibrate", "--plan", str(plan_path)],
        )

    def key(self, i: int) -> int:
        return i % len(self.commands)

    def call(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(self.commands[self.key(i)]))
        if code == cli.EXIT_ERROR:
            raise RuntimeError(f"chi2dual {self.commands[self.key(i)][0]} exited with code {code}")
        return code, out.getvalue()

    def canonical(self, output):
        code, text = output
        payload = json.loads(text)
        payload.pop("wall_time", None)  # calibrate reports a measured time
        return code, payload

    def check_one(self, key: int, output) -> None:
        code, report = self.canonical(output)
        sample = core.Sample(self.data)
        if key == 0:
            fam = core.ConstraintFamily(
                tuple(fn for _, fn, _ in self.constraints),
                np.array([t for _, _, t in self.constraints]),
                names=tuple(e for e, _, _ in self.constraints),
            )
            want = linear.test_linear(sample, fam, ALPHA).to_json_dict()
            oracles.check_linear_report(self.data, [fn for _, fn, _ in self.constraints],
                                        [t for _, _, t in self.constraints], report)
        elif key == 1:
            spec = marginal.parse_marginal_spec(self.marginals, 2)
            want = marginal.marginal_test(sample, spec, ALPHA).to_json_dict()
            oracles.check_marginal_report(pit(self.data, self.marginals), report)
        else:
            want = montecarlo.run_plan(montecarlo.ReplicationPlan.from_json_dict(self.plan)).to_json_dict()
            want.pop("wall_time")
            oracles.check_plan_report(report)
        _json_close(report, json.loads(json.dumps(want)), self.commands[key][0])
        expected_code = cli.EXIT_REJECT if report.get("reject") else cli.EXIT_OK
        if code != expected_code:
            raise oracles.OracleMismatch(f"{self.commands[key][0]}: exit code {code}, expected {expected_code}")


WORKLOADS = {w.name: w for w in (ContamProfile, MarginalBulk, CalibrateSmall, CliFiles)}
