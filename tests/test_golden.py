"""Golden trajectories: evolution runs must repeat bit for bit.

The fixture holds, per run, the repr of the best-of-generation train and
test RMSE curves, the offset histogram and the final best individual, as
RNG stream 2 draws them (see the evolve module). The third dataset scales
friedman-like inputs by 1e150, so products of three inputs overflow: its
runs pin the regeneration of non-finite seed trees and the redraw of only
the offspring slots that come out non-finite.
Regenerate it only for a change that is meant to alter the RNG stream or
the arithmetic, and for a new stream only once tools/stream_equivalence.py
shows the old and new engines statistically equivalent:

    PYTHONPATH=src python tests/test_golden.py

ARCHIVE_JSON_SHA256 pins, beyond the trajectories, the archive JSON of two
of the friedman-like runs: every payload's refs, random trees and constants.
The script does not write it; change it by hand, under the same conditions.
"""

import functools
import hashlib
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
    "no-elitism": dict(distribution="g:0.25", elitism=False),
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
# seed trees regenerated (the same for all five: the seed is shared). Each
# failed slot of an evaluation round is one reject; only those slots are
# drawn and evaluated again. Every run redraws at least one slot.
SCALED_REJECTS = {"u:1": 4, "u:5": 4, "g:0.25": 6, "raw-mutation": 29, "no-elitism": 3}
SCALED_REGENERATIONS = 4


# sha256 of json.dumps(archive.to_json(), sort_keys=True) of the
# friedman-like run of each config.
ARCHIVE_JSON_SHA256 = {
    "u:1": "1b7aa29aed35b0ccabe3539f645be04b53fd0006a3c387f7d92c3c6f97ac0b1e",
    "g:0.25": "94ddaef89b09561597f2c94955865c2df9b5ae378ad1e747df36c088d541e47b",
}


def golden_config(cfg_name) -> EvolutionConfig:
    options = CONFIGS[cfg_name]
    options = dict(options, distribution=parse_distribution(options["distribution"]))
    return EvolutionConfig(population_size=30, generations=30, seed=11, **options)


@functools.lru_cache(maxsize=None)
def golden_results() -> dict:
    results = {}
    for data_name, data in datasets().items():
        split = split_70_30(data, seed=1)
        for cfg_name in CONFIGS:
            results[f"{data_name}/{cfg_name}"] = run_evolution(golden_config(cfg_name), split)
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


def test_archive_json_matches_its_digest():
    split = split_70_30(datasets()["friedman-like"], seed=1)
    for cfg_name, digest in ARCHIVE_JSON_SHA256.items():
        archive = run_evolution(golden_config(cfg_name), split, keep_archive=True).archive
        text = json.dumps(archive.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, cfg_name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True) + "\n")
