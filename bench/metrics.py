"""Metric catalogue of the chi2dual benchmark and the arithmetic behind it.

Standard library only: the runner imports this module without numpy.
The names and units here must match ``BENCHMARK.json``; a test checks it.
"""

from __future__ import annotations

import statistics

# Printed with --trace 0.  error_rate is printed in the summary table but is
# not part of the result metrics: it is 0 on every workload by design, and
# failures travel in the result's ``failed`` / ``attempted`` fields instead.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Printed with --trace 1.  "moves" names the end-to-end metric and workload
# a change in the layer should move; the other workloads should not move.
# marginal_bulk and calibrate_small are not in BENCHMARK.json (see run.py);
# cli_files carries their layers on the declared workloads.
# Times and counts are per test (one unit of work) of the traced phase.
PER_LAYER = {
    "contamination.chi2_simple_s": ("s/test", "lower", "call_p50_ms, throughput_per_s on contam_profile"),
    "contamination.test_self_s": ("s/test", "lower", "call_p50_ms, throughput_per_s on contam_profile"),
    "contamination.profile_points": ("calls/test", "lower", "call_p50_ms, throughput_per_s on contam_profile"),
    "contamination.objective_evals": ("evals/test", "lower", "call_p50_ms, throughput_per_s on contam_profile"),
    "contamination.refine_win_ratio": ("ratio", "higher", "call_p50_ms, throughput_per_s on contam_profile"),
    "contamination.quadrature_us": ("us/point", "lower", "call_p50_ms on contam_profile"),
    "contamination.admissible_ratio": ("ratio", "higher", "call_p50_ms on contam_profile; analytic admissibility moves it"),
    "marginal.test_self_s": ("s/test", "lower", "call_p50_ms on marginal_bulk and cli_files"),
    "marginal.pit_transform_s": ("s/test", "lower", "call_p50_ms, peak_rss_mb on marginal_bulk; call_p50_ms on cli_files"),
    "marginal.build_family_s": ("s/test", "lower", "call_p50_ms, peak_rss_mb on marginal_bulk; call_p50_ms on cli_files"),
    "core.evaluate_s": ("s/test", "lower", "call_p50_ms, peak_rss_mb on marginal_bulk; call_p50_ms on cli_files"),
    "core.evaluate_calls": ("calls/test", "lower", "call_p50_ms, peak_rss_mb on marginal_bulk; call_p50_ms on cli_files"),
    "core.evaluate_bytes": ("B/test", "lower", "peak_rss_mb on marginal_bulk and cli_files (n*k*8, computed)"),
    "core.moment_vectors_self_s": ("s/test", "lower", "call_p50_ms, peak_rss_mb on marginal_bulk; call_p50_ms on cli_files"),
    "sieve.sieve_test_self_s": ("s/test", "lower", "call_p50_ms on marginal_bulk and cli_files"),
    "core.solve_s": ("s/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "core.solve_calls": ("calls/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "linear.test_linear_self_s": ("s/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "rng.uniforms_s": ("s/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "rng.draws": ("draws/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "montecarlo.run_plan_self_s": ("s/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "montecarlo.ks_s": ("s/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "montecarlo.replicate_failures": ("count/test", "lower", "throughput_per_s on calibrate_small; call_p50_ms on cli_files"),
    "cli.main_self_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "cli.read_csv_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "cli.read_csv_rows": ("rows/test", "higher", "call_p50_ms on cli_files (work size)"),
    "cli.read_constraints_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "exprparse.compile_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "exprparse.eval_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "reportio.emit_json_s": ("s/test", "lower", "call_p50_ms on cli_files"),
    "reportio.bytes": ("B/test", "lower", "call_p50_ms on cli_files"),
    "trace.tests": ("count", "higher", "base of the per-test figures above"),
    "trace.overhead_ratio": ("ratio", "lower", "(traced - untraced wall) / untraced wall, same calls"),
    "trace.overhead_ms_per_test": ("ms/test", "lower", "(traced - untraced wall) / tests"),
    "trace.coverage": ("ratio", "higher", "share of traced wall time inside top-level spans"),
}

# span name -> (metric of its inclusive time, metric of its self time)
_SPAN_TIMES = {
    "contamination.chi2_simple": ("contamination.chi2_simple_s", None),
    "contamination.contamination_test": (None, "contamination.test_self_s"),
    "marginal.marginal_test": (None, "marginal.test_self_s"),
    "marginal.pit_transform": ("marginal.pit_transform_s", None),
    "marginal.build_family": ("marginal.build_family_s", None),
    "core.evaluate": ("core.evaluate_s", None),
    "core.moment_vectors": (None, "core.moment_vectors_self_s"),
    "sieve.sieve_test": (None, "sieve.sieve_test_self_s"),
    "core.solve": ("core.solve_s", None),
    "linear.test_linear": (None, "linear.test_linear_self_s"),
    "rng.uniforms": ("rng.uniforms_s", None),
    "montecarlo.run_plan": (None, "montecarlo.run_plan_self_s"),
    "montecarlo.ks": ("montecarlo.ks_s", None),
    "cli.main": (None, "cli.main_self_s"),
    "cli.read_csv": ("cli.read_csv_s", None),
    "cli.read_constraints": ("cli.read_constraints_s", None),
    "exprparse.compile": ("exprparse.compile_s", None),
    "exprparse.eval": ("exprparse.eval_s", None),
    "reportio.emit_json": ("reportio.emit_json_s", None),
}

# span name -> metric counting its calls
_SPAN_CALLS = {"core.evaluate": "core.evaluate_calls", "core.solve": "core.solve_calls"}

# tracer counters reported per test under their own names
_COUNTERS = (
    "contamination.profile_points",
    "contamination.objective_evals",
    "core.evaluate_bytes",
    "rng.draws",
    "montecarlo.replicate_failures",
    "cli.read_csv_rows",
    "reportio.bytes",
)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it: (value, percentile).

    That is the eleventh largest value, at percentile 100 (N - 10) / N.  With
    ten values or fewer no such percentile exists and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(
    call_s: list[float], loop_s: float, setups_s: list[float], peak_rss_kb: float
) -> dict[str, float]:
    """End-to-end metric values from the raw timings of one untraced run."""
    tail_s, _ = tail(call_s)
    return {
        "setup_s": statistics.median(setups_s),
        "throughput_per_s": len(call_s) / loop_s,
        "call_p50_ms": 1e3 * statistics.median(call_s),
        "call_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(tracer, tests: int, untraced_s: float, traced_s: float, probes: dict) -> dict[str, float]:
    """Per-layer metric values of one traced phase of ``tests`` tests.

    ``probes`` holds metrics measured outside the spans (the quadrature
    probe); every metric the workload does not exercise reads 0.
    """
    out = {name: 0.0 for name in PER_LAYER}
    inclusive, self_time, calls = tracer.inclusive_s(), tracer.self_s(), tracer.calls()
    for span, (incl_metric, self_metric) in _SPAN_TIMES.items():
        if incl_metric:
            out[incl_metric] = inclusive.get(span, 0.0) / tests
        if self_metric:
            out[self_metric] = self_time.get(span, 0.0) / tests
    for span, metric in _SPAN_CALLS.items():
        out[metric] = calls.get(span, 0) / tests
    for counter in _COUNTERS:
        out[counter] = tracer.counters.get(counter, 0.0) / tests
    points = tracer.counters.get("contamination.profile_points", 0.0)
    if points:
        out["contamination.refine_win_ratio"] = tracer.counters["contamination.refine_wins"] / points
    out.update(probes)
    out["trace.tests"] = float(tests)
    out["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    out["trace.overhead_ms_per_test"] = 1e3 * (traced_s - untraced_s) / tests
    out["trace.coverage"] = tracer.covered_s() / traced_s
    return out


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
