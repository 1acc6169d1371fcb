import json

import numpy as np
import pytest

from conftest import make_split, seeded_archive

from gsgp.archive import (
    Archive,
    Crossover,
    IndividualRef,
    Leaf,
    Mutation,
    seed_archive,
)
from gsgp.data import synthetic_dataset, split_70_30
from gsgp.errors import EvalBudgetExceededError, NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig, run_evolution
from gsgp.exprtree import BinaryOp, Constant, TreeGenConfig, Variable, eval_tree, gen_tree
from gsgp.semantics import sigmoid


def two_leaf_archive():
    """Leaves with train semantics [1,2] and [3,4] (test split mirrors train)."""
    split = make_split([[1.0], [2.0]], [0.0, 0.0])
    return seeded_archive([Variable(0), BinaryOp("add", Variable(0), Constant(2.0))], split)


def crossover(i, j, random_tree):
    """Crossover payload of two generation-0 individuals."""
    return Crossover(IndividualRef(0, i), IndividualRef(0, j), random_tree)


def evolved_archive(pop=8, gens=5, seed=9, rows=20):
    split = split_70_30(synthetic_dataset("polynomial", rows, 2, 0.0, seed=5), seed=1)
    cfg = EvolutionConfig(population_size=pop, generations=gens, seed=seed)
    return run_evolution(cfg, split, keep_archive=True).archive


def test_seed_archive_shape(small_split, rng):
    trees = [gen_tree(TreeGenConfig(max_depth=3, n_features=2), "grow", rng) for _ in range(100)]
    archive = seed_archive(trees, small_split)
    assert len(archive.generations) == 1
    assert len(archive.generations[0]) == 100
    assert all(isinstance(ind.payload, Leaf) for ind in archive.generations[0])


def test_mean_constant_leaf_fitness_is_population_std(small_split):
    mean = float(np.mean(small_split.train.targets))
    archive = seeded_archive([Constant(mean)], small_split)
    ind = archive.generations[0][0]
    assert ind.train_fitness == pytest.approx(float(np.std(small_split.train.targets)), rel=1e-12)


def test_seeding_is_deterministic(small_split, rng):
    trees = [gen_tree(TreeGenConfig(max_depth=3, n_features=2), "grow", rng) for _ in range(10)]
    a = seed_archive(trees, small_split)
    b = seed_archive(trees, small_split)
    for x, y in zip(a.generations[0], b.generations[0]):
        assert np.array_equal(x.train_semantics, y.train_semantics)
        assert x.train_fitness == y.train_fitness


def test_seed_regenerates_nonfinite_trees(small_split):
    calls = []

    def regenerate(slot, rng):
        calls.append(slot)
        return Constant(1.0)

    archive = seed_archive(
        [Constant(1.0), Constant(float("inf"))], small_split, regenerate=regenerate
    )
    assert calls == [1]
    assert archive.generations[0][1].train_fitness < float("inf")


def test_seed_without_regenerator_aborts(small_split):
    with pytest.raises(NonFiniteSemanticsError):
        seed_archive([Constant(float("nan"))], small_split)


def test_seed_retry_bound(small_split):
    def regenerate(slot, rng):
        return Constant(float("inf"))

    with pytest.raises(NonFiniteSemanticsError):
        seed_archive([Constant(float("inf"))], small_split, regenerate=regenerate, max_retries=3)


def test_crossover_midpoint():
    archive = two_leaf_archive()
    child = archive.make_individual(crossover(0, 1, Constant(0.0)))
    assert np.array_equal(child.train_semantics, [2.0, 3.0])


def test_crossover_saturated_weight_returns_first_parent():
    archive = two_leaf_archive()
    child = archive.make_individual(crossover(0, 1, Constant(1e9)))
    p1 = archive.generations[0][0]
    assert np.allclose(child.train_semantics, p1.train_semantics, atol=1e-9)


def test_crossover_of_equal_parents_is_identity():
    archive = two_leaf_archive()
    child = archive.make_individual(crossover(0, 0, Constant(0.0)))
    assert np.array_equal(child.train_semantics, archive.generations[0][0].train_semantics)


def test_crossover_rejects_bad_refs():
    archive = two_leaf_archive()
    with pytest.raises(ValueError):
        archive.make_individual(Crossover(IndividualRef(0, 0), IndividualRef(1, 0), Constant(0.0)))
    with pytest.raises(ValueError):
        archive.make_individual(Crossover(IndividualRef(0, 5), IndividualRef(0, 0), Constant(0.0)))


def test_mutation_step_zero_is_identity():
    archive = two_leaf_archive()
    child = archive.make_individual(Mutation(IndividualRef(0, 0), Constant(3.0), Constant(-1.0), 0.0))
    assert np.array_equal(child.train_semantics, archive.generations[0][0].train_semantics)


def test_mutation_equal_trees_cancel():
    archive = two_leaf_archive()
    tree = BinaryOp("mul", Variable(0), Constant(0.7))
    child = archive.make_individual(Mutation(IndividualRef(0, 0), tree, tree, 0.1))
    assert np.array_equal(child.train_semantics, archive.generations[0][0].train_semantics)


def test_mutation_bounded_by_step(rng):
    archive = two_leaf_archive()
    cfg = TreeGenConfig(max_depth=4, n_features=1)
    parent = archive.generations[0][0]
    for _ in range(100):
        ra, rb = gen_tree(cfg, "grow", rng), gen_tree(cfg, "grow", rng)
        child = archive.make_individual(Mutation(IndividualRef(0, 0), ra, rb, 0.1))
        assert np.all(np.abs(child.train_semantics - parent.train_semantics) <= 0.1 + 1e-12)


def test_mutation_raw_single_tree_form():
    archive = two_leaf_archive()
    child = archive.make_individual(Mutation(IndividualRef(0, 0), Constant(5.0), None, 0.1))
    parent = archive.generations[0][0]
    assert np.allclose(child.train_semantics, parent.train_semantics + 0.5)


def test_crossover_betweenness_sweep(rng):
    archive = evolved_archive()
    gens = archive.generations
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    for _ in range(200):
        g1, g2 = rng.integers(len(gens), size=2)
        r1 = IndividualRef(int(g1), int(rng.integers(len(gens[g1]))))
        r2 = IndividualRef(int(g2), int(rng.integers(len(gens[g2]))))
        child = archive.make_individual(Crossover(r1, r2, gen_tree(cfg, "grow", rng)))
        for which in ("train_semantics", "test_semantics"):
            c = getattr(child, which)
            a = getattr(archive.individual(r1), which)
            b = getattr(archive.individual(r2), which)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            eps = 1e-12 * (1.0 + np.abs(hi))
            assert np.all(c >= lo - eps) and np.all(c <= hi + eps)


def test_reference_shares_parent_semantics():
    archive = two_leaf_archive()
    parent = archive.generations[0][1]
    ind = archive.make_individual(IndividualRef(0, 1))
    assert ind.payload == IndividualRef(0, 1)
    assert ind.train_semantics is parent.train_semantics
    assert ind.test_semantics is parent.test_semantics
    assert ind.train_fitness == parent.train_fitness
    assert ind.test_fitness == parent.test_fitness


def test_naive_eval_leaf_equals_eval_tree():
    archive = two_leaf_archive()
    tree = archive.generations[0][1].payload.tree
    for x in archive.train_inputs:
        assert archive.naive_eval(IndividualRef(0, 1), x) == eval_tree(tree, x)


def test_naive_eval_crossover_hand_expansion():
    archive = two_leaf_archive()
    rt = BinaryOp("mul", Variable(0), Constant(0.3))
    child = archive.make_individual(crossover(0, 1, rt))
    archive.append_generation([child, child])
    t1 = archive.generations[0][0].payload.tree
    t2 = archive.generations[0][1].payload.tree
    for x in archive.train_inputs:
        w = sigmoid(eval_tree(rt, x))
        expected = w * eval_tree(t1, x) + (1.0 - w) * eval_tree(t2, x)
        assert archive.naive_eval(IndividualRef(1, 0), x) == pytest.approx(expected, rel=1e-15)


def test_naive_eval_matches_memoized_archive():
    archive = evolved_archive(pop=6, gens=4)
    for g, gen in enumerate(archive.generations):
        for i, ind in enumerate(gen):
            ref = IndividualRef(g, i)
            for r, x in enumerate(archive.train_inputs):
                naive = archive.naive_eval(ref, x)
                memo = ind.train_semantics[r]
                assert abs(naive - memo) <= 1e-9 * (1.0 + abs(naive))


def test_naive_eval_budget_guard():
    archive = evolved_archive(pop=6, gens=4)
    ref = IndividualRef(len(archive.generations) - 1, 1)
    with pytest.raises(EvalBudgetExceededError):
        archive.naive_eval(ref, archive.train_inputs[0], max_expansions=2)


def test_record_count_after_seeding(small_split, rng):
    trees = [gen_tree(TreeGenConfig(max_depth=3, n_features=2), "grow", rng) for _ in range(12)]
    archive = seed_archive(trees, small_split)
    assert archive.record_count() == 12
    assert archive.count_nodes() == 12 + sum(
        _tree_size(ind.payload.tree) for ind in archive.generations[0]
    )


def _tree_size(tree):
    from gsgp.exprtree import tree_size

    return tree_size(tree)


def test_record_count_append_only_arithmetic():
    archive = evolved_archive(pop=10, gens=7)
    assert archive.record_count() == 10 * 8


def test_record_count_linear_in_generations():
    counts = {}
    for gens in (10, 20, 40):
        counts[gens] = evolved_archive(pop=5, gens=gens, rows=10).record_count()
    assert counts[20] - counts[10] == 5 * 10
    assert counts[40] - counts[20] == 5 * 20


def test_generation_size_is_enforced():
    archive = two_leaf_archive()
    with pytest.raises(ValueError, match="size"):
        archive.append_generation([archive.make_individual(IndividualRef(0, 0))])
    with pytest.raises(ValueError, match="empty"):
        archive.append_generation([])


def test_json_round_trip_recomputes_identical_semantics():
    archive = evolved_archive(pop=6, gens=3)
    blob = json.dumps(archive.to_json())
    clone = Archive.from_json(json.loads(blob), archive.split)
    assert len(clone.generations) == len(archive.generations)
    for gen_a, gen_b in zip(archive.generations, clone.generations):
        for a, b in zip(gen_a, gen_b):
            assert type(a.payload) is type(b.payload)
            assert np.array_equal(a.train_semantics, b.train_semantics)
            assert np.array_equal(a.test_semantics, b.test_semantics)
            assert a.train_fitness == b.train_fitness


def json_archive_with(**overrides):
    """An evolved archive's JSON and split, with generation 1 slot 2 replaced."""
    archive = evolved_archive(pop=6, gens=2)
    blob = archive.to_json()
    payload = {
        "kind": "crossover",
        "parent1": [0, 0],
        "parent2": [0, 1],
        "random_tree": {"const": 0.0},
    }
    payload.update(overrides)
    blob["generations"][1][2] = {k: v for k, v in payload.items() if v is not None}
    return blob, archive.split


def test_json_schema_2_writes_refs_as_pairs():
    archive = evolved_archive(pop=6, gens=2)
    blob = archive.to_json()
    assert blob["schema_version"] == 2
    elite = blob["generations"][1][0]
    assert elite == [0, archive.best_of_generation(0).index]
    clone = Archive.from_json(json.loads(json.dumps(blob)), archive.split)
    assert clone.generations[1][0].payload == archive.generations[1][0].payload


def test_json_rejects_other_schema_version():
    blob, split = json_archive_with()
    blob["schema_version"] = 1
    with pytest.raises(ValueError, match="schema_version 1"):
        Archive.from_json(blob, split)


def test_json_rejects_unknown_kind():
    blob, split = json_archive_with(kind="reference")
    with pytest.raises(ValueError, match=r"generation 1, slot 2: unknown payload kind 'reference'"):
        Archive.from_json(blob, split)


def test_json_rejects_missing_key():
    blob, split = json_archive_with(random_tree=None)
    with pytest.raises(ValueError, match=r"generation 1, slot 2: missing key 'random_tree'"):
        Archive.from_json(blob, split)


def test_json_rejects_ref_to_same_generation():
    blob, split = json_archive_with(parent2=[1, 0])
    with pytest.raises(ValueError, match=r"generation 1, slot 2: .*not to an earlier generation"):
        Archive.from_json(blob, split)


def test_json_rejects_ref_to_later_generation():
    blob, split = json_archive_with(parent1=[2, 0])
    with pytest.raises(ValueError, match=r"generation 1, slot 2: .*not to an earlier generation"):
        Archive.from_json(blob, split)


def test_json_rejects_out_of_range_index():
    blob, split = json_archive_with(parent1=[0, 6])
    with pytest.raises(ValueError, match=r"generation 1, slot 2: .*index out of range"):
        Archive.from_json(blob, split)


def test_nonfinite_semantics_names_split_and_row_within_it():
    split = make_split([[0.5], [1.0]], [0.0, 0.0], [[0.25], [10.0]], [0.0, 0.0])
    archive = seeded_archive([Variable(0)], split)
    blowup = BinaryOp("mul", Variable(0), Constant(1e308))
    with pytest.raises(NonFiniteSemanticsError) as exc:
        archive.make_individual(Mutation(IndividualRef(0, 0), blowup, None, 1.0))
    assert exc.value.split == "test"
    assert exc.value.row == 1


def test_train_and_test_semantics_are_slices_of_one_vector():
    archive = evolved_archive(pop=6, gens=2)
    n_train = len(archive.train_inputs)
    for gen in archive.generations:
        for ind in gen:
            assert ind.train_semantics.base is ind.semantics
            assert ind.test_semantics.base is ind.semantics
            assert np.array_equal(ind.semantics[:n_train], ind.train_semantics)
            assert np.array_equal(ind.semantics[n_train:], ind.test_semantics)


def test_mutation_of_inline_crossover_payload():
    archive = two_leaf_archive()
    inner = Crossover(IndividualRef(0, 0), IndividualRef(0, 1), Constant(0.0))
    child = archive.make_individual(Mutation(inner, Constant(9.0), Constant(-9.0), 0.1))
    midpoint = archive.make_individual(inner)
    delta = child.train_semantics - midpoint.train_semantics
    assert np.all(np.abs(delta) <= 0.1 + 1e-12)
    assert np.all(delta > 0.09)  # sig(9) - sig(-9) is nearly 1
