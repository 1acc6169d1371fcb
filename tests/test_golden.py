"""Golden trajectories: evolution runs must repeat bit for bit.

The fixture holds, per run, the repr of the best-of-generation train and
test RMSE curves, the offset histogram and the final best individual.
Regenerate it only for a change that is meant to alter the RNG stream or
the arithmetic:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from gsgp.data import load_csv, split_70_30, synthetic_dataset
from gsgp.evolve import EvolutionConfig, run_evolution
from gsgp.selection import parse_distribution

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden_trajectories.json"

CONFIGS = {
    "u:1": dict(distribution="u:1"),
    "u:5": dict(distribution="u:5"),
    "g:0.25": dict(distribution="g:0.25"),
    "raw-mutation": dict(distribution="g:0.25", bounded_mutation=False),
    "no-elitism": dict(distribution="u:5", elitism=False),
}


def datasets():
    return {
        "friedman-like": synthetic_dataset("friedman-like", 200, 5, 0.0, seed=3),
        "airfoil-sample": load_csv(FIXTURES / "airfoil_sample.csv"),
    }


def golden_runs() -> dict:
    runs = {}
    for data_name, data in datasets().items():
        split = split_70_30(data, seed=1)
        for cfg_name, options in CONFIGS.items():
            options = dict(options, distribution=parse_distribution(options["distribution"]))
            cfg = EvolutionConfig(population_size=30, generations=30, seed=11, **options)
            result = run_evolution(cfg, split)
            runs[f"{data_name}/{cfg_name}"] = {
                "train_rmse": repr(result.train_rmse),
                "test_rmse": repr(result.test_rmse),
                "offset_histogram": {str(o): c for o, c in result.offset_histogram.items()},
                "final_best": [result.final_best.generation, result.final_best.index],
            }
    return runs


def test_runs_match_golden_trajectories_bitwise():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_runs()
    assert sorted(actual) == sorted(expected)
    for name, run in expected.items():
        assert actual[name] == run, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True) + "\n")
