"""Smoke test of tools/peak_rss.py at a tiny size."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def test_each_strategy_reports_its_own_process():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--rows", "40", "--pop", "6", "--generations", "3"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    assert report["study"] == {"rows": 40, "pop": 6, "generations": 3, "seed": 0}
    assert [run["strategy"] for run in report["runs"]] == ["u:1", "u:5", "g:0.25"]
    for run in report["runs"]:
        assert run["peak_rss_mb"] > 0 and run["minor_faults"] > 0
        assert run["run_wall_s"] > 0 and run["user_s"] > 0
        assert math.isfinite(run["final_test_rmse"])
