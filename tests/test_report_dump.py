"""The fixed-seed report dump runs end to end (``tools/report_dump.py``)."""

import os
import subprocess
import sys
from pathlib import Path

import chi2dual

ROOT = Path(__file__).resolve().parents[1]


def test_report_dump_writes_unique_keys_with_the_minimax_gap_rows(tmp_path):
    # the script imports minimax_gap from tests/reference.py, so a move on
    # either side shows up here; it writes nothing but OUT
    src = str(Path(chi2dual.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "dump.txt"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_dump.py"), str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    keys = [line.split("\t", 1)[0] for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(keys) == len(set(keys))
    assert {"minimax_gap.104", "minimax_gap.105", "minimax_gap.7.2.default"} <= set(keys)
    dual_keys = {key for key in keys if key.startswith("dual_objective_contam.")}
    assert dual_keys == {
        "dual_objective_contam.101", "dual_objective_contam.102", "dual_objective_contam.103",
        "dual_objective_contam.far_point.0.6.1.5.0.0",
        "dual_objective_contam.far_point.2.0.0.5.-0.05",
        "dual_objective_contam.far_point.1.0.1.9.0.0",
    }
    assert list(tmp_path.iterdir()) == [out]
