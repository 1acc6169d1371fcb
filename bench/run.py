"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload deep-small --seed 1 --seconds 30 --trace 0

Run from a checkout that holds `src/gsgp`. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
every end-to-end metric with --trace 0, every per-layer metric with
--trace 1. The line before it records the environment, the trajectory
digests, the final test RMSE of each run and any failed check.
"""

import argparse
import json
import sys

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = workloads.run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {k: result.pop(k) for k in ("env", "digests", "final_test_rmse", "failures")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
