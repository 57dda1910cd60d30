"""Inputs depend on the seed alone, and the tracer leaves the program as it was."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chi2dual import cli, core, marginal, montecarlo, rng  # noqa: E402


def inputs(wl):
    """Everything the program receives from a workload."""
    if isinstance(wl, workloads.ContamProfile):
        return [x.tobytes() for x in wl.data]
    if isinstance(wl, workloads.MarginalBulk):
        return [s.data.tobytes() for s in wl.samples]
    if isinstance(wl, workloads.CalibrateSmall):
        return [p.to_json_dict() for p in wl.plans]
    return [(wl.workdir / name).read_bytes() for name in ("data.csv", "constraints.json", "plan.json")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    first, again, other = cls(7, dirs[0]), cls(7, dirs[1]), cls(8, dirs[2])
    assert inputs(first) == inputs(again)
    assert inputs(first) != inputs(other)


def test_cli_csv_round_trips(tmp_path):
    wl = workloads.CliFiles(3, tmp_path)
    sample = cli.read_csv_sample(str(tmp_path / "data.csv"))
    assert np.array_equal(sample.data, wl.data)


def test_instrument_restores_every_function():
    owners = [cli, marginal, montecarlo, core.ConstraintFamily, rng.Stream]
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert montecarlo.run_plan is not before[2]["run_plan"]
        montecarlo.run_plan(montecarlo.ReplicationPlan("linear_null", 50, 3, 1))
    assert [dict(vars(o)) for o in owners] == before
    calls = tracer.calls()
    assert calls["montecarlo.run_plan"] == 1 and calls["linear.test_linear"] == 3
    # test_linear evaluates F once for S and once more for the plug-in variance
    assert calls["core.evaluate"] == 6 and calls["core.solve"] == 3
    assert tracer.counters["rng.draws"] == 3 * 50


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("outer", 0.0, 10.0, -1),
        tracing.Span("inner", 1.0, 4.0, 0),
        tracing.Span("leaf", 2.0, 3.0, 1),
        tracing.Span("inner", 5.0, 6.0, 0),
        tracing.Span("outer", 20.0, 21.0, -1),
    ]
    assert t.self_s() == {"outer": 7.0, "inner": 3.0, "leaf": 1.0}
    assert t.inclusive_s() == {"outer": 11.0, "inner": 4.0, "leaf": 1.0}
    assert t.covered_s() == 11.0


def test_tail_has_ten_calls_beyond():
    values = [float(v) for v in range(100)]
    value, pct = metrics.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
