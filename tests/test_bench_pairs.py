"""The pair summary of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    """Pair records of one metric ``m`` from two lists of values."""
    return [
        {"pair": k + 1, "first": "parent" if k % 2 == 0 else "change",
         "parent": {"m": p}, "change": {"m": c}}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


PARENT = [30.0, 31.0, 29.0, 30.5, 29.5, 30.2, 29.8, 30.1, 29.9, 30.3]  # q3 - q1 = 0.45


@pytest.mark.parametrize(
    ("change", "better", "bound", "gain", "unresolved", "wins"),
    [
        # every pair won, medians 10 apart against a parent spread of 0.45
        ([20.0 + 0.1 * k for k in range(10)], "lower", 0.25, True, False, "10/10"),
        # the same numbers read as a metric where higher is better
        ([20.0 + 0.1 * k for k in range(10)], "higher", 0.25, False, False, "0/10"),
        # eight wins of ten: no gain, however large the difference
        ([20.0] * 8 + [40.0, 40.0], "lower", 0.25, False, False, "8/10"),
        # every pair won, but the medians differ by less than the parent's spread
        ([v - 0.3 for v in PARENT], "lower", 0.25, False, False, "10/10"),
        # a spread of 0.45 over a median of 30 exceeds a 1 % bound, and the runs overlap
        ([v + 0.1 for v in PARENT], "lower", 0.01, False, True, "0/10"),
        # the same spread, but every change run is better than every parent run
        ([20.0] * 10, "lower", 0.01, True, False, "10/10"),
    ],
)
def test_summary_applies_the_claim_rule(bench_pairs, change, better, bound, gain,
                                        unresolved, wins):
    entry = bench_pairs.summarise(_runs(PARENT, change), {"m": (better, bound)})["m"]
    assert (entry["gain"], entry["unresolved"], entry["change_wins"]) == (gain, unresolved, wins)
    quartiles = (entry["parent_q1"], entry["parent_median"], entry["parent_q3"])
    assert quartiles == pytest.approx((29.825, 30.05, 30.275))


def test_summary_flags_a_change_past_its_bound(bench_pairs):
    worse = [1.3 * v for v in PARENT]
    summary = bench_pairs.summarise(_runs(PARENT, worse), {"m": ("lower", 0.25)})
    assert summary["m"]["past_bound"] and not summary["m"]["gain"]
    summary = bench_pairs.summarise(_runs(PARENT, worse), {"m": ("higher", 0.25)})
    assert not summary["m"]["past_bound"] and summary["m"]["gain"]
