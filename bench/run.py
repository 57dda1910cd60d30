"""chi2dual benchmark runner.

One workload, as the metric contract in BENCHMARK.json expects:

    python3 bench/run.py --workload contam_profile --seed 1 --seconds 40 --trace 0

prints information lines and, last, one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Every workload, end-to-end and traced, as a table:

    python3 bench/run.py --all [--seed 1] [--seconds 40] [--record bench/baseline.json]

Each workload runs in its own process with BLAS and OpenMP pinned to one
thread.  Set-up (import, input generation, warm-up call) is measured in
three processes and reported as their median.  The exit code is non-zero
when an oracle rejects an output or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json declares contam_profile and cli_files, which between them
# exercise every layer.  marginal_bulk and calibrate_small are run by hand
# (--workload, --all): on a shared 2-vCPU host, run-to-run drift of the CPU
# speed leaves a ten-seed spread near the 0.25 bound on every workload, and
# each declared workload adds checks that such drift can fail.
WORKLOAD_NAMES = ("contam_profile", "marginal_bulk", "calibrate_small", "cli_files")
RUN_SECONDS = 40.0  # run_seconds of BENCHMARK.json
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker timed out after {timeout} s: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def l3_cache() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str], dict]:
    """Result line, information lines and environment of one workload."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    info = []
    if trace:
        main = run_worker(args + ["--trace", "1"], RUN_TIMEOUT_S)
        values, units = main["per_layer"], {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        setups = [run_worker(args + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        main = run_worker(args, RUN_TIMEOUT_S)
        setups.append(main["setup_s"])
        if not main["call_s"]:
            raise WorkerFailed(f"no test completed: {main['failures'][:1]}")
        values = metrics.end_to_end(main["call_s"], main["loop_s"], setups, main["peak_rss_kb"])
        units = metrics.END_TO_END
        _, pct = metrics.tail(main["call_s"])
        info.append(f"# {name}: call_tail_ms is percentile {pct:.1f} of {len(main['call_s'])} calls; "
                    f"setup runs {', '.join(f'{s:.3f}' for s in setups)} s")
    env = dict(main["env"], nproc=os.cpu_count(), l3_bytes=l3_cache(),
               threads=child_env()["OPENBLAS_NUM_THREADS"])
    info.append(f"# env: {json.dumps(env, sort_keys=True)}")
    info.append(f"# {name}: attempted {main['attempted']}, failed {main['failed']}, "
                f"error_rate {main['failed'] / main['attempted']:.6g}, outputs checked {main.get('checked', 0)}")
    info += [f"# failure: {f}" for f in main["failures"]]
    if "oracle_error" in main:
        info.append(f"# ORACLE MISMATCH: {main['oracle_error']}")
    result = metrics.result_line(main["correct"], main["attempted"], main["failed"], values, units)
    return result, info, env


def run_all(seed: int, seconds: float, record: str | None) -> int:
    rows, ok, recorded = [], True, {}
    for name in WORKLOAD_NAMES:
        e2e, info, env = run_workload(name, seed, seconds, trace=0)
        layers, info_t, _ = run_workload(name, seed, seconds, trace=1)
        print("\n".join(info + info_t), flush=True)
        ok &= e2e["correct"] and layers["correct"]
        error_rate = e2e["failed"] / e2e["attempted"]
        for metric, m in e2e["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "error_rate", error_rate, "ratio"))
        recorded[name] = {
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()} | {"error_rate": error_rate},
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
            "env": env,
        }
    print(f"{'workload':<16} {'metric':<18} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<18} {value:>14.6g}  {unit}")
    print(f"{'workload':<16} {'per-layer metric':<34} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        for metric, value in recorded[name]["per_layer"].items():
            if value:
                print(f"{name:<16} {metric:<34} {value:>14.6g}  {metrics.PER_LAYER[metric][0]}")
    if record:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        payload = {
            "seed": seed,
            "seconds": seconds,
            "workloads": {
                name: {"why": why.get(name, "not declared in BENCHMARK.json; see bench/workloads.py"), **recorded[name]}
                for name in WORKLOAD_NAMES
            },
            "layer_map": {name: moves for name, (_, _, moves) in metrics.PER_LAYER.items()},
        }
        Path(record).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print("all outputs correct" if ok else "ORACLE FAILURE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all, write the figures to this JSON file")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    # on SIGTERM, raise inside subprocess.run, which then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.record)
        result, info, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
