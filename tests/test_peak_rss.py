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
    # u:1 released generation 2 and reads it back; the horizons of u:5 (5) and
    # g:0.25 (33) cover all four generations, so they release nothing to read.
    u1, u5, g25 = report["runs"]
    assert u1["read_peak_rss_mb"] >= u1["peak_rss_mb"] and u1["read_s"] > 0
    for run in (u5, g25):
        assert run["read_peak_rss_mb"] is None and run["read_s"] is None
