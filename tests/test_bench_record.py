"""tools/bench_record.py against a stub runner, so that no real workload is timed."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

# Prints what bench/run.py prints last: a record line, then a result line.
# run_s is the seed, plus 1 in the checkout named "baseline".
STUB = """
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag, kind in (("--workload", str), ("--seed", int), ("--seconds", float), ("--trace", int)):
    p.add_argument(flag, type=kind, required=True)
a = p.parse_args()
if a.workload == "broken":
    sys.exit("no such workload")
baseline = Path(__file__).resolve().parent.parent.name == "baseline"
print("progress noise")
print(json.dumps({"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace}))
value = a.seed + (1.0 if baseline else 0.0)
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"run_s": {"value": value, "unit": "s"}}}))
"""


def checkout(root: Path, name: str) -> Path:
    (root / name / "stub").mkdir(parents=True)
    (root / name / "stub" / "run.py").write_text(STUB)
    return root / name


def record(tmp_path, *args):
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--out", str(out), "--runner", "stub/run.py", *args],
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, json.loads(out.read_text())


def test_each_run_is_recorded_in_pairs_that_alternate_their_order(tmp_path):
    change, baseline = checkout(tmp_path, "change"), checkout(tmp_path, "baseline")
    code, body = record(
        tmp_path, "--checkout", str(change), "--baseline", str(baseline),
        "--workloads", "a", "--seeds", "11", "12", "13", "--seconds", "3",
        "--traced-seeds", "11", "--traced-seconds", "1",
    )
    assert code == 0 and body["failed"] == 0
    runs = body["runs"]
    assert len(runs) == (3 + 1) * 2
    untraced = [(r["checkout"], r["seed"]) for r in runs if not r["trace"]]
    assert untraced == [("change", 11), ("baseline", 11), ("baseline", 12), ("change", 12),
                          ("change", 13), ("baseline", 13)]
    for r in runs:
        # The runner got the workload, seed, seconds and trace of its run.
        assert r["record"] == {"workload": r["workload"], "seed": r["seed"],
                               "seconds": 3.0 if r["trace"] == 0 else 1.0, "trace": r["trace"]}
        assert r["result"]["failed"] == 0 and r["returncode"] == 0
    assert {r["seed"] for r in runs if r["trace"] == 1} == {11}
    run_s = body["summary"]["a"]["run_s"]
    assert run_s["change"] == {"median": 12, "q1": 11.5, "q3": 12.5, "n": 3}
    assert run_s["baseline"]["median"] == 13
    assert run_s["pairs"] == run_s["pairs_change_lower"] == 3
    assert set(body["checkouts"]) == {"change", "baseline"}
    assert body["checkouts"]["change"]["git_sha"] is None  # not a git checkout
    assert body["environment"]["python"] and body["environment"]["nproc"] >= 1


def test_a_run_without_its_result_line_is_counted_as_failed(tmp_path):
    change = checkout(tmp_path, "change")
    code, body = record(tmp_path, "--checkout", str(change), "--workloads", "a", "broken",
                        "--seeds", "1", "--seconds", "0", "--traced-seeds")
    assert code == 1 and body["failed"] == 1 and len(body["runs"]) == 2
    (broken,) = [r for r in body["runs"] if r["workload"] == "broken"]
    assert broken["result"] is None and "no such workload" in broken["stderr"]
    assert list(body["summary"]) == ["a"] and "baseline" not in body["summary"]["a"]["run_s"]
