"""Golden trajectories: evolution runs must repeat bit for bit.

The fixture holds, per run, the repr of the best-of-generation train and
test RMSE curves, the offset histogram and the final best individual. The
third dataset scales friedman-like inputs by 1e150, so products of three
inputs overflow: its runs pin the regeneration of non-finite seed trees and
the redraw of non-finite offspring.
Regenerate it only for a change that is meant to alter the RNG stream or
the arithmetic:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
from pathlib import Path

from gsgp.data import Dataset, load_csv, split_70_30, synthetic_dataset
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
    friedman = synthetic_dataset("friedman-like", 200, 5, 0.0, seed=3)
    return {
        "friedman-like": friedman,
        "airfoil-sample": load_csv(FIXTURES / "airfoil_sample.csv"),
        "friedman-like-1e150": Dataset(
            "friedman-like-1e150", friedman.inputs * 1e150, friedman.targets
        ),
    }


# Offspring draws rejected as non-finite per run of the scaled dataset, and
# seed trees regenerated (the same for all five: the seed is shared), as the
# engine that evaluated one slot at a time counted them.
SCALED_REJECTS = {"u:1": 7, "u:5": 5, "g:0.25": 1, "raw-mutation": 23, "no-elitism": 6}
SCALED_REGENERATIONS = 3


@functools.lru_cache(maxsize=None)
def golden_results() -> dict:
    results = {}
    for data_name, data in datasets().items():
        split = split_70_30(data, seed=1)
        for cfg_name, options in CONFIGS.items():
            options = dict(options, distribution=parse_distribution(options["distribution"]))
            cfg = EvolutionConfig(population_size=30, generations=30, seed=11, **options)
            results[f"{data_name}/{cfg_name}"] = run_evolution(cfg, split)
    return results


def golden_runs() -> dict:
    return {
        name: {
            "train_rmse": repr(result.train_rmse),
            "test_rmse": repr(result.test_rmse),
            "offset_histogram": {str(o): c for o, c in result.offset_histogram.items()},
            "final_best": [result.final_best.generation, result.final_best.index],
        }
        for name, result in golden_results().items()
    }


def test_runs_match_golden_trajectories_bitwise():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_runs()
    assert sorted(actual) == sorted(expected)
    for name, run in expected.items():
        assert actual[name] == run, name


def test_scaled_runs_count_their_redraws_and_regenerations():
    results = golden_results()
    for cfg_name, rejects in SCALED_REJECTS.items():
        result = results[f"friedman-like-1e150/{cfg_name}"]
        assert result.nonfinite_retries == rejects > 0, cfg_name
        assert result.seed_regenerations == SCALED_REGENERATIONS > 0, cfg_name
    for name, result in results.items():
        if not name.startswith("friedman-like-1e150/"):
            assert result.nonfinite_retries == result.seed_regenerations == 0, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True) + "\n")
