"""Run the benchmark alternately on two trees and summarise the pairs.

Usage:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S
        [--pairs 10] [--seconds 40] [--out FILE]

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, one after the other; the parent goes first
in odd pairs and the change in even ones, so that a slow drift of the host
weighs on both sides alike.  For every end-to-end metric of the change
tree's ``BENCHMARK.json`` the script prints each side's median and
quartiles, the change's relative change of the median, the number of
pairs the change won (ties count for neither side) and whether the
change's median is worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median).  Two more columns apply
the rule for claiming a gain and for reading a metric at all: ``gain``
holds when the change won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's q3 - q1;
``unresolved`` holds when the parent's q3 - q1 exceeds ``bound`` times
its median and not every change run is better than every parent run.
The last line names every metric past its bound, or says that none is;
the exit status stays 0.

With ``--out`` it writes ``{"W_seedS": {"runs": [...], "summary": {...}}}``,
the layout of the ``pairs`` entries of ``BENCH_*.json``; an existing FILE
keeps its other keys.  The script writes nothing into either tree.  A bad
run stops the script with exit status 1: one that exits non-zero, whose last
line is not the runner's JSON result, or that reports ``correct: false`` or
a failed test.  The message names the pair and the side and repeats the
run's ``# failure:`` and ``# ORACLE MISMATCH`` lines.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, where: str) -> dict:
    """``correct``, ``attempted``, ``failed`` and the metric values of one run.

    Exits with status 1 on a bad run; ``where`` names the run in the message.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        result = None
    bad = [f"exit status {proc.returncode}"] if proc.returncode else []
    if result is None:
        bad.append("no result line")
    elif result["correct"] is not True or result["failed"]:
        bad.append(f"correct: {result['correct']}, failed: {result['failed']}")
    if bad:
        reported = [line for line in lines if line.startswith(("# failure:", "# ORACLE MISMATCH"))]
        sys.stderr.write("".join(f"{line}\n" for line in reported) + proc.stderr)
        raise SystemExit(f"error: {where} in {tree}: {'; '.join(bad)} ({' '.join(cmd)})")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: metric["value"] for name, metric in metrics.items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs: list[dict], metrics: dict[str, tuple[str, float]]) -> dict:
    """Per metric: each side's quartiles, the relative change of the median,
    the change's wins, ``past_bound``, ``gain`` and ``unresolved``;
    ``metrics`` maps a name to its (better, bound)."""
    summary = {}
    for name, (direction, bound) in metrics.items():
        sign = 1.0 if direction == "lower" else -1.0  # sign * value: lower is better
        side_values = {side: [run[side][name] for run in runs] for side in SIDES}
        wins = sum(
            sign * c < sign * p for p, c in zip(side_values["parent"], side_values["change"])
        )
        entry = {}
        for side in SIDES:
            q1, median, q3 = quartiles(side_values[side])
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["change_wins"] = f"{wins}/{len(runs)}"
        entry["relative_change"] = entry["change_median"] / entry["parent_median"] - 1.0
        entry["past_bound"] = sign * entry["relative_change"] > bound
        spread = entry["parent_q3"] - entry["parent_q1"]
        better_by = sign * (entry["parent_median"] - entry["change_median"])
        entry["gain"] = wins >= 0.9 * len(runs) and better_by > spread
        entry["unresolved"] = spread > bound * abs(entry["parent_median"]) and (
            max(sign * v for v in side_values["change"])
            >= min(sign * v for v in side_values["parent"])
        )
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, help="JSON file to write the pairs block to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}

    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        run = {"pair": pair, "first": order[0]}
        for side in order:
            run[side] = run_once(trees[side], args.workload, args.seed, args.seconds,
                                 f"pair {pair}, {side} side")
        runs.append({key: run[key] for key in ("pair", "first", *SIDES)})
        print(f"pair {pair} ({order[0]} first): "
              + ", ".join(f"{side} {json.dumps(run[side])}" for side in SIDES), flush=True)

    summary = summarise(runs, metrics)
    print(f"{'metric':<18} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'change':>8} {'wins':>6} {'bound':>6} {'past':>5} {'gain':>5} {'unres':>5}")
    for name, entry in summary.items():
        sides = [
            f"{entry[f'{side}_median']:.6g} [{entry[f'{side}_q1']:.6g}, {entry[f'{side}_q3']:.6g}]"
            for side in SIDES
        ]
        print(f"{name:<18} {sides[0]:>36} {sides[1]:>36} "
              f"{entry['relative_change']:>+8.1%} {entry['change_wins']:>6} "
              f"{metrics[name][1]:>6.0%} "
              + " ".join(f"{'yes' if entry[key] else 'no':>5}"
                         for key in ("past_bound", "gain", "unresolved")))
    past = [name for name, entry in summary.items() if entry["past_bound"]]
    print(f"past bound: {', '.join(past) if past else 'none'}")
    if args.out:
        block = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        block[f"{args.workload}_seed{args.seed}"] = {"runs": runs, "summary": summary}
        args.out.write_text(json.dumps(block, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
