"""Smoke tests of tools/peak_rss.py and tools/horizon_curve.py at a tiny size."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "peak_rss.py"


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
        # Only a winner from beyond the horizon replays, and none lies beyond it here.
        assert run["replays"] == run["replayed_payloads"] == run["replay_s"] == 0
        # The held generations' rows pin no block of a released generation.
        assert run["held_block_mb"] == run["needed_mb"] > 0
        assert run["payload_kb_per_generation"] > 0
    assert [run["horizon"] for run in report["runs"]] == [1, 5, 21]
    # u:1 released generation 2 and reads it back; the horizons of u:5 (5) and
    # g:0.25 (21) cover all four generations, so they release nothing to read.
    u1, u5, g25 = report["runs"]
    assert u1["needed_mb"] == 6 * 40 * 8 / 2**20  # u:1 holds one generation
    assert u1["read_peak_rss_mb"] >= u1["peak_rss_mb"] and u1["read_s"] > 0
    for run in (u5, g25):
        assert run["read_peak_rss_mb"] is None and run["read_s"] is None


def test_a_winner_from_beyond_the_horizon_is_replayed_and_counted():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--strategies", "g:0.75", "--rows", "200", "--seed", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    (run,) = json.loads(done.stdout)["runs"]
    # g:0.75 holds 5 of 101 generations, and this seed draws a winner from beyond them.
    assert run["horizon"] == 5
    assert run["replays"] >= 1
    assert run["replayed_payloads"] > 0 and run["replay_s"] > 0
    # Each replay evaluates at least the winner's own payload, counted
    # through the packed blocks that `evaluate_block` takes.
    assert run["replayed_payloads"] >= run["replays"]
    # A kept generation of 100 slots holds a few arrays: about 9 KB, against
    # about 41 KB as one object per payload, ref and tree.
    assert 0 < run["payload_kb_per_generation"] <= 20
    # A replay keeps only the winner's row, so it pins no block of a released generation.
    assert run["held_block_mb"] == run["needed_mb"]


def test_horizon_curve_reports_each_cell_and_checks_the_trajectories():
    tails = [1e-4, 1e-2]
    done = subprocess.run(
        [sys.executable, str(TOOLS / "horizon_curve.py"), "--sizes", "40:2", "--pop", "6",
         "--generations", "8", "--ps", "0.75", "--tails", *map(str, tails)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    cells = report["cells"]
    assert [(c["rows"], c["p"], c["tail"], c["horizon"]) for c in cells] == [
        (40, 0.75, 1e-4, 7), (40, 0.75, 1e-2, 4)
    ]
    assert all(c["runs"] == 2 for c in cells)
    assert cells[0]["runs_replayed"] == 0  # a horizon of 7 holds all 9 generations
    assert cells[0]["replay_share_worst"] == 0 and cells[0]["paired_ratio_median"] == 1.0
    assert report["same_trajectories"] is True
    assert [len(cell["runs"]) for cell in report["runs"]] == [2, 2]
    # The grid's runs skip the tracemalloc run of payload memory.
    runs = [run for cell in report["runs"] for run in cell["runs"]]
    assert all(run["payload_kb_per_generation"] is None for run in runs)
    chosen = [c for c in cells if c["tail"] == report["chosen_tail"]]
    assert chosen and all(
        c["replay_share_median"] <= 0.02 and c["replay_share_worst"] <= 0.2 for c in chosen
    )
