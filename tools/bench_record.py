"""Record benchmark runs, each in a fresh process, into one BENCH_<n>.json.

For every workload, trace mode and seed, the tool starts `bench/run.py` in
a new interpreter from a checkout's root and keeps the two lines it prints
last: the record line (environment, trajectory digests, final test RMSEs,
failed checks) and the result line (correct, attempted, failed, metrics).
With --baseline, each run is paired with the same run of another checkout
(the parent commit, say); within a pair the checkout that runs first
alternates with the seed, so a drift of the machine's speed falls on both.

    python tools/bench_record.py --out BENCH_31.json --seeds 11 12 13
    python tools/bench_record.py --out BENCH_31.json --baseline /path/to/parent \\
        --seeds $(seq 11 20) --seconds 30 --traced-seconds 5 --traced-seeds 11 12

The file holds every run, the git sha and dirty flag of each checkout, the
environment, and for each workload and end-to-end metric of the untraced
runs the median and quartiles per checkout and, when paired, how many
pairs read lower for the checkout under test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep-small", "shallow-large", "campaign")


def git_state(checkout: Path) -> dict:
    """The checkout's HEAD sha and whether its tree differs from it (None outside git)."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, env=dict(os.environ, GIT_OPTIONAL_LOCKS="0"))
        return done.stdout.strip() if done.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(checkout.resolve()):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}


def run_once(checkout: Path, runner: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One runner process: its exit status and its record and result lines."""
    command = [sys.executable, runner, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {"workload": workload, "trace": trace, "seed": seed, "seconds": seconds,
           "returncode": done.returncode, "record": None, "result": None}
    if done.returncode == 0 and len(lines) >= 2:
        run["record"], run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    else:
        run["stderr"] = done.stderr[-4000:]
    return run


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list) -> dict:
    """Per workload and untraced metric: quartiles per checkout and the pairs read lower."""
    summary = {}
    untraced = [r for r in runs if r["trace"] == 0 and r["result"]]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        mine = [r for r in untraced if r["workload"] == workload]
        metrics = {}
        for name in mine[0]["result"]["metrics"]:
            by = {}
            for r in mine:
                by.setdefault(r["checkout"], {})[r["seed"]] = r["result"]["metrics"][name]["value"]
            entry = {side: quartiles(list(values.values())) for side, values in by.items()}
            if "baseline" in by and "change" in by:
                seeds = sorted(set(by["baseline"]) & set(by["change"]))
                entry["pairs"] = len(seeds)
                lower = sum(by["change"][s] < by["baseline"][s] for s in seeds)
                entry["pairs_change_lower"] = lower
                entry["median_ratio"] = entry["change"]["median"] / entry["baseline"]["median"]
            metrics[name] = entry
        summary[workload] = metrics
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--checkout", default=str(ROOT), help="root of the checkout under test")
    p.add_argument("--baseline", help="root of a checkout to pair every run with")
    p.add_argument("--runner", default="bench/run.py", help="runner, relative to a checkout")
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--seconds", type=float, default=30.0, help="--seconds of an untraced run")
    p.add_argument("--traced-seeds", nargs="*", type=int,
                   help="seeds of the --trace 1 runs (default: --seeds)")
    p.add_argument("--traced-seconds", type=float, help="--seconds of a traced run")
    args = p.parse_args(argv)
    checkouts = {"change": Path(args.checkout)}
    if args.baseline:
        checkouts["baseline"] = Path(args.baseline)
    traced_seeds = args.seeds if args.traced_seeds is None else args.traced_seeds
    traced_seconds = args.seconds if args.traced_seconds is None else args.traced_seconds
    runs = []
    for trace, seeds, seconds in ((0, args.seeds, args.seconds), (1, traced_seeds, traced_seconds)):
        for workload in args.workloads:
            for k, seed in enumerate(seeds):
                order = list(checkouts)
                if k % 2:
                    order.reverse()
                for side in order:
                    run = run_once(checkouts[side], args.runner, workload, seed, seconds, trace)
                    runs.append({"checkout": side, **run})
                    print(f"{side} {workload} trace={trace} seed={seed}: "
                          f"{'ok' if run['result'] else 'no result'}", file=sys.stderr)
    body = {
        "checkouts": {side: git_state(path) for side, path in checkouts.items()},
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "platform": platform.platform(), "machine": platform.machine(),
                        "nproc": len(os.sched_getaffinity(0))},
        "runner": args.runner,
        "failed": sum(not r["result"] or r["result"]["failed"] != 0 for r in runs),
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    return 0 if body["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
