"""Statistical equivalence of two gsgp engines that draw different RNG streams.

Runs the same seeded evolutions on two source trees, each engine in its own
subprocess, and prints one JSON object:

- "rmse": per dataset, strategy and metric (final train and test RMSE), the
  two-sided rank-sum p-value of side b against side a (`gsgp.rank_sum_test`),
  the ratio of b's median to a's, and whether the samples are identical;
- "offset_law": per side, dataset and strategy, a chi-square test of the
  pooled offset histogram of every run against the strategy's law. The law
  of the tournament that builds generation c (c = 1..generations) is u:k,
  uniform over offsets 0..min(k, c) - 1, or g:p, p(1-p)^o with the overflow
  on offset c - 1; the pooled law weighs every generation equally. Bins are
  merged upwards until each expects at least 5 entrants.

Run r of every cell uses split seed and evolution seed `--seed` + r on a
synthetic dataset of ROWS rows and N_FEATURES features, drawn once per
dataset kind from `--seed`; the strategies are STRATEGIES. To compare the
working tree with its parent commit, export the parent without touching
the working tree, for example

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/stream_equivalence.py --a /tmp/parent/src --b src --runs 30

Needs numpy and scipy (for the chi-square tail).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = 200
N_FEATURES = 5
STRATEGIES = ("u:1", "u:5", "g:0.25")
MIN_EXPECTED = 5.0


def run_side():
    """Worker: read the study from stdin, run it with the importable gsgp, print results."""
    import gsgp

    study = json.load(sys.stdin)
    results = {}
    for kind in study["datasets"]:
        data = gsgp.synthetic_dataset(kind, ROWS, N_FEATURES, 0.0, study["seed"])
        for spec in STRATEGIES:
            runs = []
            for r in range(study["runs"]):
                seed = study["seed"] + r
                cfg = gsgp.EvolutionConfig(
                    distribution=gsgp.parse_distribution(spec),
                    population_size=study["pop"],
                    generations=study["generations"],
                    seed=seed,
                )
                result = gsgp.run_evolution(cfg, gsgp.split_70_30(data, seed))
                runs.append(
                    {
                        "train": result.train_rmse[-1],
                        "test": result.test_rmse[-1],
                        "offsets": {str(o): c for o, c in result.offset_histogram.items()},
                    }
                )
            results[f"{kind}/{spec}"] = runs
    json.dump(results, sys.stdout)


def engine_results(src, study) -> dict:
    """Run the study in a subprocess that imports gsgp from `src`."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, __file__, "--worker"],
        input=json.dumps(study),
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"engine at {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def offset_law(spec: str, generations: int) -> list:
    """Pooled probability of each offset 0..generations-1, generations weighed equally."""
    head, _, arg = spec.partition(":")
    law = [0.0] * generations
    for current in range(1, generations + 1):
        if head == "u":
            window = min(int(arg), current)
            for o in range(window):
                law[o] += 1.0 / window / generations
        elif head == "g":
            p = float(arg)
            for o in range(current - 1):
                law[o] += p * (1 - p) ** o / generations
            law[current - 1] += (1 - p) ** (current - 1) / generations
        else:
            raise ValueError(f"no offset law for {spec!r}")
    return law


def chi_square(observed: list, law: list) -> dict:
    """Goodness of fit of offset counts to a law, bins merged to expect >= MIN_EXPECTED.

    An entrant at an offset the law gives probability 0 makes p 0; a single
    bin, which holds every entrant, makes p 1.
    """
    from scipy.stats import chi2

    total = sum(observed)
    if any(seen and not p for seen, p in zip(observed, law)):
        return {"entrants": total, "bins": 0, "chi2": float("inf"), "dof": 0, "p_value": 0.0}
    bins = []  # [observed, expected] per merged bin
    for seen, p in zip(observed, law):
        if not bins or bins[-1][1] >= MIN_EXPECTED:
            bins.append([0, 0.0])
        bins[-1][0] += seen
        bins[-1][1] += p * total
    if len(bins) > 1 and bins[-1][1] < MIN_EXPECTED:
        seen, expected = bins.pop()
        bins[-1][0] += seen
        bins[-1][1] += expected
    stat = sum((seen - expected) ** 2 / expected for seen, expected in bins if expected > 0)
    dof = len(bins) - 1
    p_value = float(chi2.sf(stat, dof)) if dof else 1.0
    return {"entrants": total, "bins": len(bins), "chi2": stat, "dof": dof, "p_value": p_value}


def compare(study, a: dict, b: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from gsgp import median, rank_sum_test

    rmse = []
    offsets = []
    for cell in a:
        kind, _, spec = cell.partition("/")
        for metric in ("train", "test"):
            xa = [run[metric] for run in a[cell]]
            xb = [run[metric] for run in b[cell]]
            test = rank_sum_test(xb, xa)
            rmse.append(
                {
                    "dataset": kind,
                    "strategy": spec,
                    "metric": f"final_{metric}_rmse",
                    "p_value": test.p_value,
                    "median_ratio": median(xb) / median(xa),
                    "identical": xa == xb,
                }
            )
        law = offset_law(spec, study["generations"])
        for side, runs in (("a", a[cell]), ("b", b[cell])):
            pooled = [0] * study["generations"]
            for run in runs:
                for o, c in run["offsets"].items():
                    pooled[int(o)] += c
            offsets.append({"side": side, "dataset": kind, "strategy": spec, **chi_square(pooled, law)})
    return {"rmse": rmse, "offset_law": offsets}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--a", help="src directory of the first engine (the reference)")
    p.add_argument("--b", help="src directory of the second engine")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--datasets", nargs="+", default=["friedman-like", "polynomial"])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.worker:
        run_side()
        return 0
    if not (args.a and args.b):
        p.error("--a and --b are required")
    study = {
        "runs": args.runs,
        "pop": args.pop,
        "generations": args.generations,
        "datasets": args.datasets,
        "seed": args.seed,
    }
    a = engine_results(args.a, study)
    b = engine_results(args.b, study)
    report = {"a": args.a, "b": args.b, "study": study, **compare(study, a, b)}
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
