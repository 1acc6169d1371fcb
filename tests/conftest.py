import numpy as np
import pytest
from hypothesis import settings

from gsgp.archive import Archive, Leaf
from gsgp.data import Dataset, SplitDataset, split_70_30, synthetic_dataset

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

# Every property test draws the same examples on every run and writes no
# example database; a test's own @settings sets only its max_examples.
settings.register_profile("gsgp", derandomize=True, database=None, deadline=None)
settings.load_profile("gsgp")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_split():
    """50-row polynomial dataset, 70/30 split."""
    return split_70_30(synthetic_dataset("polynomial", 50, 2, 0.0, seed=4), seed=9)


def make_split(train_inputs, train_targets, test_inputs=None, test_targets=None):
    """Hand-crafted split for archive tests with known semantics."""
    train_inputs = np.asarray(train_inputs, dtype=float)
    train_targets = np.asarray(train_targets, dtype=float)
    if test_inputs is None:
        test_inputs, test_targets = train_inputs, train_targets
    return SplitDataset(
        train=Dataset("craft[train]", train_inputs, train_targets),
        test=Dataset("craft[test]", np.asarray(test_inputs, float), np.asarray(test_targets, float)),
        split_seed=0,
    )


def seeded_archive(trees, split) -> Archive:
    """Archive with one generation built from explicit trees."""
    archive = Archive(split)
    archive.append_generation([archive.make_individual(Leaf(t)) for t in trees])
    return archive
