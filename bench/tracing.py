"""In-memory spans and counters around the public functions of chi2dual.

The benchmark measures each module of ``chi2dual`` from outside: while a
traced phase runs, ``instrument`` replaces selected functions, in the module
or class where their caller looks them up, with wrappers that record a span
(name, start, end, parent) and update counters.  Nothing under ``src/``
changes, and the originals are restored when the phase ends.  Spans stay in
memory and are reduced to per-layer numbers after the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    def wrap(
        self,
        name: str,
        fn: Callable,
        post: Callable[[Any, tuple, dict], Any] | None = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``post(result, args, kwargs)`` runs after the span closes, so its own
        cost is not charged to the layer; it may count and must return the
        result to hand back to the caller.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            return result if post is None else post(result, args, kwargs)

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def inclusive_s(self) -> dict[str, float]:
        """Total span duration per name (children included)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out

    def self_s(self) -> dict[str, float]:
        """Per name, span durations minus the part their child spans cover.

        Spans come from one thread and nest, so the children of a span do
        not overlap and their union is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            out[span.name] += span.end - span.start - covered
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out

    def covered_s(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


def _patch_points(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper) for every layer boundary the trace sees.

    Each public function is wrapped under the name its caller uses: the
    benchmark calls the entry points through their own modules, and the
    library modules call each other through names imported at module level.
    """
    from chi2dual import (
        cli,
        contamination,
        core,
        linear,
        marginal,
        montecarlo,
        rng,
        sieve,
    )

    def chi2_simple_post(result, args, kwargs):
        tracer.count("contamination.profile_points")
        tracer.count("contamination.objective_evals", result.n_evaluations)
        best_start = max((p[3] for p in result.start_points), default=float("-inf"))
        tracer.count("contamination.refine_wins", float(result.value > best_start))
        return result

    def evaluate_post(result, args, kwargs):
        fam, sample = args[0], args[1]
        # computed size of the dense F matrix, n * k float64 values
        tracer.count("core.evaluate_bytes", sample.n * fam.k * 8)
        return result

    def uniforms_post(result, args, kwargs):
        tracer.count("rng.draws", args[1] if len(args) > 1 else kwargs["count"])
        return result

    def run_plan_post(result, args, kwargs):
        tracer.count("montecarlo.replicate_failures", result.n_failures)
        return result

    def read_csv_post(result, args, kwargs):
        tracer.count("cli.read_csv_rows", result.n)
        return result

    def compile_post(result, args, kwargs):
        return tracer.wrap("exprparse.eval", result)

    def emit_json_post(result, args, kwargs):
        tracer.count("reportio.bytes", len(result.encode("utf-8")))
        return result

    table = [
        # entry points, looked up by the benchmark and by cli / montecarlo
        (contamination, "contamination_test", "contamination.contamination_test", None),
        (marginal, "marginal_test", "marginal.marginal_test", None),
        (montecarlo, "marginal_test", "marginal.marginal_test", None),
        (cli, "marginal_test", "marginal.marginal_test", None),
        (montecarlo, "run_plan", "montecarlo.run_plan", run_plan_post),
        (cli, "run_plan", "montecarlo.run_plan", run_plan_post),
        (cli, "main", "cli.main", None),
        # contamination
        (contamination, "chi2_simple", "contamination.chi2_simple", chi2_simple_post),
        # marginal / sieve
        (marginal, "pit_transform", "marginal.pit_transform", None),
        (marginal, "build_indicator_family", "marginal.build_family", None),
        (marginal, "sieve_test", "sieve.sieve_test", None),
        # core
        (core.ConstraintFamily, "evaluate", "core.evaluate", evaluate_post),
        (sieve, "moment_vectors", "core.moment_vectors", None),
        (linear, "moment_vectors", "core.moment_vectors", None),
        (sieve, "chi2_quadratic", "core.solve", None),
        (linear, "dual_coefficients", "core.solve", None),
        # linear
        (montecarlo, "test_linear", "linear.test_linear", None),
        (cli, "test_linear", "linear.test_linear", None),
        # rng / montecarlo
        (rng.Stream, "uniforms", "rng.uniforms", uniforms_post),
        (montecarlo, "ks_one_sample", "montecarlo.ks", None),
        # cli / exprparse / reportio
        (cli, "read_csv_sample", "cli.read_csv", read_csv_post),
        (cli, "read_constraints", "cli.read_constraints", None),
        (cli, "compile_expression", "exprparse.compile", compile_post),
        (cli, "emit_json", "reportio.emit_json", emit_json_post),
    ]
    return [
        (owner, attr, tracer.wrap(span, getattr(owner, attr), post))
        for owner, attr, span, post in table
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    points = _patch_points(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, wrapper in points:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
