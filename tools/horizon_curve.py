"""Replay cost against held memory for the tail of Geometric's horizon.

`Geometric(p)` holds the latest H(p) generations, the shortest h with
(1-p)^h <= `selection._HORIZON_TAIL`, and replays a winner drawn from
beyond them. A larger tail holds fewer generations and replays more. For
each grid cell (rows, p, tail) this tool makes one `--pop` x `--generations`
run per seed of its `--sizes` entry ROWS:SEEDS (seeds 0 to SEEDS-1), every
run in a fresh process through the worker of tools/peak_rss.py, which sets
the tail in its own process only. Runs go seed by seed, every p and tail of
a seed in turn, the tails in alternating order, so that drift in the
machine's speed falls on every tail alike. Per cell it reports H(p), the
runs with a replay, replays and replayed payloads per run, the longest time
one run spent replaying, the median and largest replay share, the median
and worst run wall time, and the median and largest peak RSS. It also
checks that every tail gives each seed the same trajectory, bit for bit.

Every tail runs the same work apart from its replays, so a tail's time cost
is read as each run's replay share: the time its replays took over the rest
of the run. A tail passes when, for every rows and p, the median share is at
most MEDIAN_SLACK and the largest at most WORST_SLACK (the benchmark's run_s
bound); "chosen_tail" is the largest tail that passes. The median ratio of
each run's wall time to the same seed's at the first tail is reported as a
cross-check; on a shared machine its spread between runs is wider than 2%.
The JSON report keeps every run.

    python tools/horizon_curve.py                      # the full grid
    python tools/horizon_curve.py --sizes 200:3 --markdown

Needs only numpy, as the engine does.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import peak_rss  # noqa: E402  (a sibling script, not a package)

PS = (0.1, 0.25, 0.5, 0.75)
TAILS = (1e-4, 1e-3, 3e-3, 1e-2)
SIZES = ("200:30", "6000:10")  # rows:seeds
MEDIAN_SLACK = 0.02
WORST_SLACK = 0.2


def cell_summary(runs: list, base: list) -> dict:
    """The grid row of one cell's runs, against the same seeds' runs at the first tail.

    A run's replay share is the time its replays took over the rest of the
    run: what replaying added to a run that is otherwise the same work at
    every tail. It is read inside one run, so a change in the machine's
    speed between runs does not move it. The paired wall-time ratio, a
    run over the same seed's run at the first tail, is the cross-check.
    """
    run_s = [r["run_wall_s"] for r in runs]
    shares = [r["replay_s"] / (r["run_wall_s"] - r["replay_s"]) for r in runs]
    peak = [r["peak_rss_mb"] for r in runs]
    return {
        "horizon": runs[0]["horizon"],
        "runs": len(runs),
        "runs_replayed": sum(r["replays"] > 0 for r in runs),
        "replays_per_run": statistics.mean(r["replays"] for r in runs),
        "replayed_payloads_per_run": statistics.mean(r["replayed_payloads"] for r in runs),
        "replay_s_max": max(r["replay_s"] for r in runs),
        "replay_share_median": statistics.median(shares),
        "replay_share_worst": max(shares),
        "run_s_median": statistics.median(run_s),
        "run_s_worst": max(run_s),
        "paired_ratio_median": statistics.median(
            r["run_wall_s"] / b["run_wall_s"] for r, b in zip(runs, base)
        ),
        "peak_rss_mb_median": statistics.median(peak),
        "peak_rss_mb_max": max(peak),
    }


def choose_tail(cells: list, tails) -> float:
    """The largest tail whose every cell keeps its replay shares within both slacks, or None."""
    passing = [
        tail for tail in tails
        if all(
            c["replay_share_median"] <= MEDIAN_SLACK and c["replay_share_worst"] <= WORST_SLACK
            for c in cells if c["tail"] == tail
        )
    ]
    return max(passing, default=None)


def markdown(report: dict) -> str:
    head = ("rows", "p", "tail", "H", "replayed runs", "replays/run", "payloads/run",
            "max replay ms", "median share", "worst share", "median run_s", "worst run_s",
            "paired ratio", "median peak MB", "max peak MB")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for c in report["cells"]:
        lines.append(
            f"| {c['rows']} | {c['p']} | {c['tail']:g} | {c['horizon']} "
            f"| {c['runs_replayed']}/{c['runs']} | {c['replays_per_run']:.2f} "
            f"| {c['replayed_payloads_per_run']:.1f} | {1000 * c['replay_s_max']:.1f} "
            f"| {100 * c['replay_share_median']:.2f}% | {100 * c['replay_share_worst']:.1f}% "
            f"| {c['run_s_median']:.3f} | {c['run_s_worst']:.3f} "
            f"| {c['paired_ratio_median']:.3f} | {c['peak_rss_mb_median']:.1f} "
            f"| {c['peak_rss_mb_max']:.1f} |"
        )
    lines.append(f"\nchosen tail: {report['chosen_tail']}; same trajectories: "
                 f"{report['same_trajectories']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(peak_rss.ROOT / "src"), help="src directory of the engine")
    p.add_argument("--ps", type=float, nargs="+", default=list(PS))
    p.add_argument("--tails", type=float, nargs="+", default=list(TAILS),
                   help="the first is the reference tail")
    p.add_argument("--sizes", nargs="+", default=list(SIZES), help="ROWS:SEEDS pairs")
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--markdown", action="store_true", help="print a table, not JSON")
    args = p.parse_args(argv)
    runs = {}  # (rows, p, tail) -> runs in seed order
    same = True
    for size in args.sizes:
        rows, seeds = (int(n) for n in size.split(":"))
        for seed in range(seeds):
            tails = args.tails if seed % 2 == 0 else args.tails[::-1]
            for prob in args.ps:
                digests = set()
                for tail in tails:
                    # Payload memory does not depend on the tail: no tracemalloc run.
                    study = {"rows": rows, "pop": args.pop, "generations": args.generations,
                             "seed": seed, "strategy": f"g:{prob!r}", "tail": tail,
                             "payload_kb": False}
                    run = peak_rss.run_worker(peak_rss.__file__, args.src, study)
                    runs.setdefault((rows, prob, tail), []).append(run)
                    digests.add(run["trajectory_sha256"])
                    print(f"rows {rows} seed {seed} p {prob} tail {tail:g}: "
                          f"{run['run_wall_s']:.3f} s, {run['replays']} replays",
                          file=sys.stderr)
                same = same and len(digests) == 1
    cells = [
        {"rows": rows, "p": prob, "tail": tail,
         **cell_summary(cell, runs[(rows, prob, args.tails[0])])}
        for (rows, prob, tail), cell in sorted(runs.items())
    ]
    report = {
        "src": args.src,
        "study": {"pop": args.pop, "generations": args.generations, "sizes": args.sizes},
        "cells": cells,
        "same_trajectories": same,
        "chosen_tail": choose_tail(cells, args.tails),
        "runs": [{"rows": k[0], "p": k[1], "tail": k[2], "runs": v} for k, v in sorted(runs.items())],
    }
    if args.markdown:
        print(markdown(report))
    else:
        json.dump(report, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
