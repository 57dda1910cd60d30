"""One workload in one process: set-up, timed calls, optional trace, oracles.

Started by ``run.py``, which pins BLAS/OpenMP to one thread in this
process's environment.  Prints one JSON line with the raw figures.

    python3 bench/worker.py --workload NAME --seed N --seconds T [--trace 0|1] [--setup-only]
"""

import time

START = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import chi2dual from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chi2dual" / "__init__.py").is_file():
        raise SystemExit(f"worker: no chi2dual sources under {src}")
    sys.path.insert(0, str(src))
    import chi2dual

    if Path(chi2dual.__file__).resolve().parent != (src / "chi2dual").resolve():
        raise SystemExit(f"worker: imported chi2dual from {chi2dual.__file__}, not {src}")


def run_calls(workload, seconds=None, count=None):
    """Closed loop: call i+1 starts when call i returns.

    Runs until ``seconds`` have passed (a call that starts in time finishes)
    or for exactly ``count`` calls.  Returns (outputs, call times, failures,
    attempted, wall seconds).
    """
    outputs, call_s, failures = [], [], []
    i = 0
    start = time.perf_counter()
    while (count is None and time.perf_counter() - start < seconds) or (count is not None and i < count):
        t = time.perf_counter()
        try:
            output = workload.call(i)
        except Exception as exc:  # a failed test is counted, not fatal
            failures.append(f"call {i}: {type(exc).__name__}: {exc}")
        else:
            call_s.append(time.perf_counter() - t)
            outputs.append((i, output))
        i += 1
    return outputs, call_s, failures, i, time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import metrics
    import oracles
    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        for i in range(workload.warmup_calls):
            workload.call(i)
        out = {"setup_s": time.perf_counter() - START}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        if args.trace:
            # the same calls untraced, then traced: the difference is the overhead
            outputs, _, failures, tests, untraced_s = run_calls(workload, seconds=args.seconds / 2)
            tracer = Tracer()
            with instrument(tracer):
                traced, _, traced_failures, _, traced_s = run_calls(workload, count=tests)
            outputs += traced
            failures += traced_failures
            attempted = 2 * tests
            out["per_layer"] = metrics.per_layer(tracer, tests, untraced_s, traced_s, workload.probes())
        else:
            outputs, call_s, failures, attempted, loop_s = run_calls(workload, seconds=args.seconds)
            out.update(call_s=call_s, loop_s=loop_s)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        out.update(attempted=attempted, failed=len(failures), failures=failures[:5], env=environment())
        try:
            out["checked"] = workload.check(outputs)
            out["correct"] = not failures and bool(outputs)
        except oracles.OracleMismatch as exc:
            out.update(correct=False, oracle_error=str(exc))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
