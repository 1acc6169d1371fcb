import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_split, seeded_archive

import gsgp.archive as archive_module
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
from gsgp.exprtree import (
    MAX_TREE_DEPTH,
    BinaryOp,
    Constant,
    TreeGenConfig,
    Variable,
    eval_tree,
    gen_tree,
)
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
    trees = gen_tree(TreeGenConfig(max_depth=3, n_features=2), [(3, "grow")] * 100, rng)
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
    trees = gen_tree(TreeGenConfig(max_depth=3, n_features=2), [(3, "grow")] * 10, rng)
    a = seed_archive(trees, small_split)
    b = seed_archive(trees, small_split)
    for x, y in zip(a.generations[0], b.generations[0]):
        assert np.array_equal(x.train_semantics, y.train_semantics)
        assert x.train_fitness == y.train_fitness


def test_seed_regenerates_nonfinite_trees(small_split):
    calls = []

    def regenerate(slot):
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
    calls = []

    def regenerate(slot):
        calls.append(slot)
        return Constant(float("inf"))

    with pytest.raises(NonFiniteSemanticsError):
        seed_archive([Constant(1.0), Constant(float("inf"))], small_split, regenerate=regenerate)
    # the same cap as breeding: the slot aborts on its _SLOT_RETRIES + 1-th failure
    assert calls == [1] * archive_module._SLOT_RETRIES


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
        ra, rb = gen_tree(cfg, [(cfg.max_depth, "grow")] * 2, rng)
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
        (tree,) = gen_tree(cfg, [(cfg.max_depth, "grow")], rng)
        child = archive.make_individual(Crossover(r1, r2, tree))
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


def test_naive_eval_matches_memoized_archive_at_saturated_weights():
    # Both sigmoid paths clip these finite outputs into (0, 1): naive_eval
    # goes through the scalar path, make_individual through the array path.
    # With parents 0 and 1e20, a weight of 1 - 2^-53 gives a child about 1e4
    # away from the one a weight of 1.0 gives, so a path that did not clip
    # would break agreement.
    split = make_split([[1.0], [2.0]], [0.0, 0.0])
    archive = seeded_archive([Constant(0.0), Constant(1e20)], split)
    archive.append_generation(
        [
            archive.make_individual(crossover(0, 1, Constant(40.0))),
            archive.make_individual(crossover(0, 1, Constant(-800.0))),
        ]
    )
    archive.append_generation(
        [
            archive.make_individual(
                Mutation(IndividualRef(1, 0), Constant(40.0), Constant(-800.0), 0.1)
            ),
            archive.make_individual(
                Mutation(IndividualRef(1, 1), Constant(-800.0), Constant(40.0), 0.1)
            ),
        ]
    )
    for g in (1, 2):
        for i, ind in enumerate(archive.generations[g]):
            for x, memo in zip(archive.inputs, ind.semantics):
                naive = archive.naive_eval(IndividualRef(g, i), x)
                assert abs(naive - memo) <= 1e-9 * (1.0 + abs(naive))


def test_naive_eval_budget_guard():
    archive = evolved_archive(pop=6, gens=4)
    ref = IndividualRef(len(archive.generations) - 1, 1)
    with pytest.raises(EvalBudgetExceededError):
        archive.naive_eval(ref, archive.train_inputs[0], max_expansions=2)


def test_record_count_after_seeding(small_split, rng):
    trees = gen_tree(TreeGenConfig(max_depth=3, n_features=2), [(3, "grow")] * 12, rng)
    archive = seed_archive(trees, small_split)
    assert archive.record_count() == 12


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"random_tree": {"var": -1}}, r"variable -1 is not a feature index in \[0, 2\)"),
        ({"random_tree": {"var": 2}}, r"variable 2 is not a feature index"),
        ({"random_tree": {"var": 1.7}}, r"variable 1.7 is not a feature index"),
        ({"random_tree": {"var": True}}, r"variable True is not a feature index"),
        ({"random_tree": {"op": "pow", "left": {"var": 0}, "right": {"var": 1}}},
         r"unknown operator kind 'pow'"),
        ({"random_tree": {"const": float("inf")}}, r"constant inf is not a finite number"),
        ({"random_tree": {"const": "0.5"}}, r"constant '0.5' is not a finite number"),
        (
            {"kind": "mutation", "base": [0, 0], "random_tree_a": {"const": 1.0},
             "random_tree_b": {"const": 0.0}, "step": -0.1},
            r"mutation step -0.1 is not a finite number >= 0",
        ),
        (
            {"kind": "mutation", "base": [0, 0], "random_tree_a": {"const": 1.0},
             "random_tree_b": {"const": 0.0}, "step": float("nan")},
            r"mutation step nan is not a finite number >= 0",
        ),
    ],
)
def test_json_rejects_foreign_trees_and_steps(overrides, message):
    blob, split = json_archive_with(**overrides)
    with pytest.raises(ValueError, match=r"generation 1, slot 2: " + message):
        Archive.from_json(blob, split)


def nested_tree(depth):
    """A chain of `add` nodes `depth` levels deep, built without recursion."""
    tree = {"var": 0}
    for _ in range(depth):
        tree = {"op": "add", "left": tree, "right": {"const": 1.0}}
    return tree


def test_json_rejects_a_tree_deeper_than_the_cap():
    deeper = rf"generation 1, slot 2: tree is deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH}"
    for depth in (MAX_TREE_DEPTH + 1, 3000):
        blob, split = json_archive_with(random_tree=nested_tree(depth))
        with pytest.raises(ValueError, match=deeper):
            Archive.from_json(blob, split)
    blob, split = json_archive_with(random_tree=nested_tree(MAX_TREE_DEPTH))
    Archive.from_json(blob, split)


def test_json_rejects_a_generation_that_is_empty_or_the_wrong_size():
    blob, split = json_archive_with()
    blob["generations"][1].pop()
    with pytest.raises(ValueError, match=r"^generation 1 has 5 payloads, not the population size 6$"):
        Archive.from_json(blob, split)
    blob["generations"][1] = []
    with pytest.raises(ValueError, match=r"^generation 1 is empty$"):
        Archive.from_json(blob, split)
    blob["generations"] = [[]]
    with pytest.raises(ValueError, match=r"^generation 0 is empty$"):
        Archive.from_json(blob, split)


def test_json_rejects_a_top_level_without_generations():
    blob, split = json_archive_with()
    with pytest.raises(ValueError, match="list, not an object"):
        Archive.from_json([blob], split)
    del blob["generations"]
    with pytest.raises(ValueError, match="no list of generations"):
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


def test_json_rejects_mutation_of_a_mutation():
    blob, split = json_archive_with()
    raw = {"random_tree_a": {"const": 1.0}, "random_tree_b": None, "step": 0.1}
    inner = {"kind": "mutation", "base": [0, 0], **raw}
    blob["generations"][1][2] = {"kind": "mutation", "base": inner, **raw}
    with pytest.raises(ValueError, match=r"generation 1, slot 2: mutation base is neither"):
        Archive.from_json(blob, split)


def test_nonfinite_generation_names_the_first_failing_slot():
    split = make_split([[0.5], [1.0]], [0.0, 0.0], [[0.25], [10.0]], [0.0, 0.0])
    archive = seeded_archive([Variable(0)], split)
    ok = Mutation(IndividualRef(0, 0), Constant(1.0), None, 1.0)
    blowup = BinaryOp("mul", Variable(0), Constant(1e308))
    test_blowup = Mutation(IndividualRef(0, 0), blowup, None, 1.0)
    train_blowup = Leaf(Constant(float("nan")))
    payloads = [IndividualRef(0, 0), ok, test_blowup, ok, train_blowup]
    first = r"Mutation payload in slot 2 at row 1"
    with pytest.raises(NonFiniteSemanticsError, match=first) as exc:
        archive.make_generation(payloads)
    assert (exc.value.slot, exc.value.split, exc.value.row) == (2, "test", 1)
    with pytest.raises(NonFiniteSemanticsError) as exc:
        archive.make_generation(payloads[:2] + payloads[3:])
    assert (exc.value.slot, exc.value.split, exc.value.row) == (3, "train", 0)


_TREE_CFG = TreeGenConfig(max_depth=3, n_features=2)
_trees = st.integers(0, 2**32 - 1).map(
    lambda seed: gen_tree(_TREE_CFG, [(3, "grow")], np.random.default_rng(seed))[0]
)
_refs = st.builds(IndividualRef, st.integers(0, 1), st.integers(0, 3))
_crossovers = st.builds(Crossover, _refs, _refs, _trees)
_steps = st.floats(0.0, 2.0)
_payloads = st.one_of(
    st.builds(Leaf, _trees),
    _refs,
    _crossovers,
    st.builds(Mutation, st.one_of(_refs, _crossovers), _trees, _trees, _steps),
    st.builds(Mutation, st.one_of(_refs, _crossovers), _trees, st.none(), _steps),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_payloads, min_size=1, max_size=12))
def test_block_size_never_changes_semantics_or_fitness(payloads):
    split = split_70_30(synthetic_dataset("polynomial", 12, 2, 0.0, seed=5), seed=1)
    trees = [gen_tree(_TREE_CFG, [(3, "grow")], np.random.default_rng(i))[0] for i in range(4)]
    archive = seed_archive(trees, split)
    archive.append_generation(
        archive.make_generation([crossover(i, (i + 1) % 4, trees[i]) for i in range(4)])
    )
    whole = archive.make_generation(payloads)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(archive_module, "_BLOCK_ELEMENTS", 1)  # one child per block
        single = archive.make_generation(payloads)
    for a, b in zip(whole, single):
        assert np.array_equal(a.semantics, b.semantics)
        assert (a.train_fitness, a.test_fitness) == (b.train_fitness, b.test_fitness)
    archive.generations.append(whole)
    for i, ind in enumerate(whole):
        for x, memo in zip(archive.inputs, ind.semantics):
            naive = archive.naive_eval(IndividualRef(2, i), x)
            assert abs(naive - memo) <= 1e-9 * (1.0 + abs(naive))
