import copy
import functools
import gc
import json
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import records
from conftest import make_split, seeded_archive
from records import generation, holds_slots, leaf, leaf_trees, mutation, reproduction

import gsgp.archive as archive_module
import gsgp.evolve as evolve_module
from gsgp.archive import _LEAF, _REF, Archive, IndividualRef, Payloads
from gsgp.data import Dataset, synthetic_dataset, split_70_30
from gsgp.errors import EvalBudgetExceededError, NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig, next_generation, run_evolution, seed_archive
from gsgp.experiment import Campaign
from gsgp.exprtree import (
    MAX_TREE_DEPTH,
    BinaryOp,
    Constant,
    Variable,
    eval_tree,
    gen_tree,
    tree_to_json,
)
from gsgp.selection import Geometric, UniformLastK, tournament_select
from gsgp.semantics import rmse, sigmoid


def two_leaf_archive():
    """Leaves with train semantics [1,2] and [3,4] (test split mirrors train)."""
    split = make_split([[1.0], [2.0]], [0.0, 0.0])
    return seeded_archive([Variable(0), BinaryOp("add", Variable(0), Constant(2.0))], split)


def crossover(i, j, random_tree):
    """Crossover record of two generation-0 individuals."""
    return records.crossover((0, i), (0, j), random_tree)


def evolved_split(rows=20):
    return split_70_30(synthetic_dataset("polynomial", rows, 2, 0.0, seed=5), seed=1)


def evolved_archive(pop=8, gens=5, seed=9, rows=20):
    cfg = EvolutionConfig(population_size=pop, generations=gens, seed=seed)
    return run_evolution(cfg, evolved_split(rows), keep_archive=True).archive


def no_regeneration(slot):
    raise AssertionError(f"slot {slot} was regenerated")


def test_seed_archive_shape(small_split, rng):
    trees = gen_tree(3, 2, [(3, "grow")] * 100, rng)
    archive = seed_archive(trees, small_split, regenerate=no_regeneration, hold=1)
    assert len(archive.generations) == 1
    assert len(archive.generations[0]) == 100
    assert archive.generations[0].packed.kind.tolist() == [_LEAF] * 100


def test_mean_constant_leaf_fitness_is_population_std(small_split):
    mean = float(np.mean(small_split.train.targets))
    archive = seeded_archive([Constant(mean)], small_split)
    ind = archive.generations[0][0]
    assert ind.train_fitness == pytest.approx(float(np.std(small_split.train.targets)), rel=1e-12)


def test_seeding_is_deterministic(small_split, rng):
    trees = gen_tree(3, 2, [(3, "grow")] * 10, rng)
    a = seed_archive(trees, small_split, regenerate=no_regeneration, hold=1)
    b = seed_archive(trees, small_split, regenerate=no_regeneration, hold=1)
    for x, y in zip(a.generations[0], b.generations[0]):
        assert np.array_equal(x.train_semantics, y.train_semantics)
        assert x.train_fitness == y.train_fitness


def test_seed_regenerates_nonfinite_trees(small_split):
    inf = Constant(float("inf"))
    redraws = {1: [inf, Constant(1.0)], 3: [Constant(2.0)]}
    calls = []

    def regenerate(slot):
        calls.append(slot)
        return redraws[slot].pop(0)

    archive = seed_archive(
        [Constant(0.5), inf, Constant(-0.5), inf], small_split, regenerate=regenerate, hold=1
    )
    # A failed slot is redrawn until it passes, before the next slot: slot 1
    # fails twice (its first redraw fails too) and slot 3 once.
    assert calls == [1, 1, 3]
    seeded = archive.generations[0]
    assert leaf_trees(seeded.packed) == [
        Constant(0.5), Constant(1.0), Constant(-0.5), Constant(2.0)
    ]
    assert all(ind.train_fitness < float("inf") for ind in seeded)


def test_seed_retry_bound(small_split):
    calls = []

    def regenerate(slot):
        calls.append(slot)
        return Constant(float("inf"))

    with pytest.raises(NonFiniteSemanticsError):
        seed_archive(
            [Constant(1.0), Constant(float("inf"))], small_split, regenerate=regenerate, hold=1
        )
    # the same cap as breeding: the slot aborts on its _SLOT_RETRIES + 1-th failure
    assert calls == [1] * evolve_module._SLOT_RETRIES


def test_a_seed_tree_that_fails_for_good_is_reported_in_its_own_slot():
    data = synthetic_dataset("polynomial", 30, 3, 0.0, seed=4)
    split = split_70_30(Dataset(data.name, data.inputs * 1e200, data.targets), seed=1)
    product = BinaryOp("mul", BinaryOp("mul", Variable(0), Variable(1)), Variable(2))
    calls = []

    def regenerate(slot):
        calls.append(slot)
        return product

    with pytest.raises(NonFiniteSemanticsError) as caught:
        seed_archive([Constant(1.0)] * 3 + [product], split, regenerate=regenerate, hold=1)
    assert caught.value.slot == 3
    assert "Leaf payload in slot 3 at row" in str(caught.value)
    assert "slot 0" not in str(caught.value)
    assert calls == [3] * evolve_module._SLOT_RETRIES


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
        archive.make_individual(records.crossover((0, 0), (1, 0), Constant(0.0)))
    with pytest.raises(ValueError):
        archive.make_individual(records.crossover((0, 5), (0, 0), Constant(0.0)))


def test_mutation_step_zero_is_identity():
    archive = two_leaf_archive()
    unmoved = mutation(reproduction((0, 0)), Constant(3.0), Constant(-1.0), 0.0)
    child = archive.make_individual(unmoved)
    assert np.array_equal(child.train_semantics, archive.generations[0][0].train_semantics)


def test_mutation_equal_trees_cancel():
    archive = two_leaf_archive()
    tree = BinaryOp("mul", Variable(0), Constant(0.7))
    child = archive.make_individual(mutation(reproduction((0, 0)), tree, tree, 0.1))
    assert np.array_equal(child.train_semantics, archive.generations[0][0].train_semantics)


def test_mutation_bounded_by_step(rng):
    archive = two_leaf_archive()
    parent = archive.generations[0][0]
    for _ in range(100):
        ra, rb = gen_tree(4, 1, [(4, "grow")] * 2, rng)
        child = archive.make_individual(mutation(reproduction((0, 0)), ra, rb, 0.1))
        assert np.all(np.abs(child.train_semantics - parent.train_semantics) <= 0.1 + 1e-12)


def test_mutation_raw_single_tree_form():
    archive = two_leaf_archive()
    child = archive.make_individual(mutation(reproduction((0, 0)), Constant(5.0), None, 0.1))
    parent = archive.generations[0][0]
    assert np.allclose(child.train_semantics, parent.train_semantics + 0.5)


def test_crossover_betweenness_sweep(rng):
    archive = evolved_archive()
    gens = archive.generations
    for _ in range(200):
        g1, g2 = rng.integers(len(gens), size=2)
        r1 = IndividualRef(int(g1), int(rng.integers(len(gens[g1]))))
        r2 = IndividualRef(int(g2), int(rng.integers(len(gens[g2]))))
        (tree,) = gen_tree(4, 2, [(4, "grow")], rng)
        child = archive.make_individual(records.crossover(r1, r2, tree))
        for which in ("train_semantics", "test_semantics"):
            c = getattr(child, which)
            a = getattr(archive.individual(r1), which)
            b = getattr(archive.individual(r2), which)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            eps = 1e-12 * (1.0 + np.abs(hi))
            assert np.all(c >= lo - eps) and np.all(c <= hi + eps)


def test_reference_copies_parent_semantics():
    archive = two_leaf_archive()
    parent = archive.generations[0][1]
    ind = archive.make_individual(reproduction((0, 1)))
    # A row of its own block with its parent's bits, so it pins no parent block.
    assert ind.semantics.tobytes() == parent.semantics.tobytes()
    assert not np.shares_memory(ind.semantics, parent.semantics)
    assert ind.train_semantics.tobytes() == parent.train_semantics.tobytes()
    assert ind.test_semantics.tobytes() == parent.test_semantics.tobytes()
    assert ind.train_fitness == parent.train_fitness
    # The individual keeps its record: appended, its slot reproduces (0, 1).
    archive.append_generation([ind, ind])
    assert archive.generations[1].packed.kind.tolist() == [_REF, _REF]
    assert archive.generations[1].packed.reads(1) == (IndividualRef(0, 1),)


def test_make_individual_takes_a_program_or_a_record_and_nothing_else():
    archive = two_leaf_archive()
    leaf_of_program = archive.make_individual(Variable(0))
    assert leaf_of_program.semantics.tobytes() == archive.generations[0][0].semantics.tobytes()
    # A ref is a tuple too, but not a program: it must come as a reproduction record.
    for payload in (IndividualRef(0, 1), [0], None):
        with pytest.raises(TypeError, match="is neither a program nor a one-slot Payloads"):
            archive.make_individual(payload)


def test_naive_eval_leaf_equals_eval_tree():
    archive = two_leaf_archive()
    tree = leaf_trees(archive.generations[0].packed)[1]
    for x in archive.train_inputs:
        assert archive.naive_eval(IndividualRef(0, 1), x) == eval_tree(tree, x)


def test_naive_eval_crossover_hand_expansion():
    archive = two_leaf_archive()
    rt = BinaryOp("mul", Variable(0), Constant(0.3))
    child = archive.make_individual(crossover(0, 1, rt))
    archive.append_generation([child, child])
    t1, t2 = leaf_trees(archive.generations[0].packed)
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


def test_a_plain_pair_reads_like_its_ref():
    archive = evolved_archive(pop=6, gens=3)
    x = archive.train_inputs[0]
    for g, i in ((0, 1), (3, 5)):
        ref = IndividualRef(g, i)
        assert archive.individual((g, i)) is archive.individual(ref)
        assert archive.naive_eval((g, i), x) == archive.naive_eval(ref, x)
    for pair, message in (
        ((4, 0), "no generation 4 in archive"),
        ((-1, 0), "no generation -1 in archive"),
        ((1, 6), "index 6 out of range in generation 1"),
        ((1, -1), "index -1 out of range in generation 1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            archive.individual(pair)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            archive.naive_eval(pair, x)


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
                mutation(reproduction((1, 0)), Constant(40.0), Constant(-800.0), 0.1)
            ),
            archive.make_individual(
                mutation(reproduction((1, 1)), Constant(-800.0), Constant(40.0), 0.1)
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
    trees = gen_tree(3, 2, [(3, "grow")] * 12, rng)
    archive = seeded_archive(trees, small_split)
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
        archive.append_generation([archive.make_individual(reproduction((0, 0)))])
    with pytest.raises(ValueError, match="empty"):
        archive.append_generation([])


def test_json_round_trip_recomputes_identical_semantics():
    archive = evolved_archive(pop=6, gens=3)
    blob = json.dumps(archive.to_json())
    clone = Archive.from_json(json.loads(blob), evolved_split())
    assert len(clone.generations) == len(archive.generations)
    for gen_a, gen_b in zip(archive.generations, clone.generations):
        assert gen_a.packed.kind.tobytes() == gen_b.packed.kind.tobytes()
        assert gen_a.packed.parents.tobytes() == gen_b.packed.parents.tobytes()
        for a, b in zip(gen_a, gen_b):
            assert np.array_equal(a.train_semantics, b.train_semantics)
            assert np.array_equal(a.test_semantics, b.test_semantics)
            assert a.train_fitness == b.train_fitness


@pytest.mark.parametrize("k, newest_first", [(1, True), (1, False), (3, True), (3, False)])
def test_released_generations_recompute_as_a_json_round_trip_does(k, newest_first):
    split = split_70_30(synthetic_dataset("polynomial", 30, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=UniformLastK(k), population_size=8, generations=12, seed=4)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    clone = Archive.from_json(archive.to_json(), split)  # computes every generation
    order = range(len(archive.generations))
    # Newest first, each read replays the released ancestry of the individual
    # read; oldest first, its parents already hold the rows it reads.
    for g in reversed(order) if newest_first else order:
        for a, b in zip(archive.generations[g], clone.generations[g]):
            assert a.semantics.tobytes() == b.semantics.tobytes()
            assert a.train_semantics.tobytes() == b.train_semantics.tobytes()
            assert a.test_semantics.tobytes() == b.test_semantics.tobytes()
            assert a.train_fitness == b.train_fitness


def test_recomputing_a_long_history_does_not_recurse():
    split = split_70_30(synthetic_dataset("polynomial", 10, 2, 0.0, seed=5), seed=1)
    generations = sys.getrecursionlimit() + 50
    cfg = EvolutionConfig(population_size=3, generations=generations, seed=2)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    clone = Archive.from_json(archive.to_json(), split)
    newest_released = archive.generations[-2]
    assert newest_released[0].semantics.tobytes() == clone.generations[-2][0].semantics.tobytes()


def counted_replays(monkeypatch) -> list:
    """A list that gets the generation of each `Archive._replay` call from now on."""
    replays = []
    replay = Archive._replay

    def counting_replay(self, ref):
        replays.append(ref.generation)
        return replay(self, ref)

    monkeypatch.setattr(Archive, "_replay", counting_replay)
    return replays


def test_generations_released_in_any_order_recompute_once_as_a_json_round_trip_does(
    monkeypatch,
):
    split = split_70_30(synthetic_dataset("polynomial", 30, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=UniformLastK(2), population_size=8, generations=9, seed=4)
    archive = run_evolution(cfg, split, keep_archive=True).archive  # holds generations 8 and 9
    clone = Archive.from_json(archive.to_json(), split)
    replays = counted_replays(monkeypatch)
    rng = np.random.default_rng(5)
    for _ in range(2):
        for g in (7, 3, 5, 2, 0):
            for a, b in zip(archive.generations[g], clone.generations[g]):
                assert a.semantics.tobytes() == b.semantics.tobytes()
                assert a.test_semantics.tobytes() == b.test_semantics.tobytes()
                assert a.train_fitness == b.train_fitness
        # A second read, through the view or the row, replays nothing.
        for g in (0, 5, 7):
            for i, b in enumerate(clone.generations[g]):
                assert archive.generations[g][i].semantics.tobytes() == b.semantics.tobytes()
                assert archive.row(IndividualRef(g, i)).tobytes() == b.semantics.tobytes()
        # each individual of a released generation is replayed on its first read only
        assert replays == [7] * 8 + [3] * 8 + [5] * 8 + [2] * 8 + [0] * 8
        # Appending a generation (u:2 reads only held ones) drops what the
        # reads brought back, and then each read replays again.
        next_generation(archive, cfg, rng)
        assert archive._replayed == {} and replays[40:] == []
        del replays[:]


def three_generation_archive():
    """Generations 0-2 of three slots, every payload kind in generations 1 and 2.

    (0, 0) is read by (1, 0) in generation 1 and directly by (2, 1)'s
    inline crossover in generation 2; (0, 1) by (1, 0) and (1, 1), both in
    generation 1.
    """
    split = make_split([[1.0], [2.0]], [0.0, 0.0])
    archive = seeded_archive([Variable(0), Constant(2.0), Constant(-1.0)], split)
    half = BinaryOp("mul", Variable(0), Constant(0.5))
    for payloads in (
        [
            records.crossover((0, 0), (0, 1), half),
            mutation(reproduction((0, 1)), Variable(0), Constant(1.0), 0.1),
            reproduction((0, 2)),
        ],
        [
            records.crossover((1, 0), (1, 1), half),
            mutation(records.crossover((1, 2), (0, 0), half), half, None, 0.1),
            reproduction((1, 0)),
        ],
    ):
        archive.append_generation([archive.make_individual(p) for p in payloads])
    return archive


def three_generation_records(child):
    """The packed payloads of three_generation_archive plus a generation 3 of `child` alone."""
    archive = three_generation_archive()
    archive.append_generation([archive.make_individual(child)] * 3)
    return [gen.packed for gen in archive.generations]


def test_ancestry_gives_the_closure_with_each_refs_newest_reader():
    child = records.crossover((2, 0), (2, 1), Constant(0.0))
    payloads = three_generation_records(child)
    visited = []

    def never(ref):
        visited.append(ref)
        return False

    found = archive_module.ancestry(payloads, IndividualRef(3, 0), never)
    assert found == {
        (2, 0): 3, (2, 1): 3,
        (1, 0): 2, (1, 1): 2, (1, 2): 2,
        (0, 0): 2, (0, 1): 1, (0, 2): 1,
    }
    # Reached over two paths each, (0, 0) and (0, 1) are asked about once.
    assert sorted(visited) == sorted(found)
    assert all(type(ref) is IndividualRef for ref in found)
    # The sorted keys put each ref after every ref that its payload reads.
    order = sorted(found)
    for k, ref in enumerate(order):
        assert all(r in order[:k] for r in payloads[ref.generation].reads(ref.index))
    # A generation-2 payload's own ancestry stops short of its generation.
    assert archive_module.ancestry(payloads, IndividualRef(2, 2), never) == {
        (1, 0): 2, (0, 0): 1, (0, 1): 1,
    }


def test_ancestry_does_not_pass_a_stopping_ref_and_a_leaf_has_none():
    child = records.crossover((2, 0), (2, 1), Constant(0.0))
    payloads = three_generation_records(child)
    ref = IndividualRef(3, 0)
    # Past (2, 0) lie (1, 0) and (1, 1), and (0, 1) only through them;
    # (0, 0) is still read through (2, 1).
    found = archive_module.ancestry(payloads, ref, lambda ref: ref == (2, 0))
    assert found == {(2, 1): 3, (1, 2): 2, (0, 0): 2, (0, 2): 1}
    held = archive_module.ancestry(payloads, ref, lambda ref: ref.generation == 2)
    assert held == {}
    for i in range(3):
        leaf = archive_module.ancestry(payloads, IndividualRef(0, i), lambda ref: False)
        assert leaf == {}


def test_ancestry_of_a_long_chain_does_not_recurse():
    depth = sys.getrecursionlimit() + 50
    # Generation g reproduces generation g - 1.
    payloads = [leaf(Variable(0))]
    payloads += [reproduction((g - 1, 0)) for g in range(1, depth + 1)]
    found = archive_module.ancestry(payloads, IndividualRef(depth, 0), lambda ref: False)
    assert found == {(g, 0): g + 1 for g in range(depth)}


def released_ancestry(archive, ref, holding) -> list:
    """Refs of ref's ancestors reached over individuals not in `holding`, a set of (g, i)."""
    found, todo = {}, [ref]
    while todo:
        g, i = todo.pop()
        for parent in archive.generations[g].packed.reads(i):
            key = (parent.generation, parent.index)
            if key not in holding and key not in found:
                found[key] = parent
                todo.append(parent)
    return [found[key] for key in sorted(found)]


def test_a_read_evaluates_exactly_the_released_ancestry_and_keeps_only_its_row(monkeypatch):
    split = split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(population_size=10, generations=12, seed=5)
    archive = run_evolution(cfg, split, keep_archive=True).archive  # u:1 holds only 12
    clone = Archive.from_json(archive.to_json(), split)
    holding = {(12, i) for i in range(10)}
    calls, blocks = [], []
    evaluate = archive_module.evaluate_block

    def recording_evaluate(payloads, programs, columns, rows_of, out=None):
        # u:1 parents are one generation back, so a replay holds at most the
        # rows of the generation before the one it evaluates.
        assert all(block() is None for block in blocks[:-1])
        calls.append(payloads)
        block = evaluate(payloads, programs, columns, rows_of, out)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(archive_module, "evaluate_block", recording_evaluate)
    for g, i in [(9, 3), (10, 3), (4, 0), (10, 7)]:
        ref = IndividualRef(g, i)
        ancestry = released_ancestry(archive, ref, holding)
        del calls[:], blocks[:]
        row = archive.individual(ref).semantics
        shares = sorted({a.generation for a in ancestry})
        # Each call evaluates one generation's share, in slot order, then the
        # read individual alone.
        expected = [(h, [a.index for a in ancestry if a.generation == h]) for h in shares]
        assert len(calls) == len(expected) + 1
        for call, (h, slots) in zip(calls, expected + [(g, [i])]):
            assert holds_slots(call, archive.generations[h].packed, slots)
        assert len(ancestry) > len(shares)  # some generation evaluates several individuals
        assert [block() is None for block in blocks] == [True] * len(shares) + [False]
        assert row.base is blocks[-1]() and row.base.shape == (1, len(archive.inputs))
        assert row.tobytes() == clone.individual(ref).semantics.tobytes()
        holding.add((g, i))
        # The window holds generation 12 alone, and the archive keeps the
        # replayed row of each individual read, and no other row.
        assert held_generations(archive) == {12}
        assert set(archive._replayed) == {r for r in holding if r[0] != 12}


def held_generations(archive) -> set:
    """The generations whose rows the archive's window holds: the latest len(window) - 1."""
    n = len(archive.generations)
    return set(range(max(0, n - len(archive._window) + 1), n))


def test_a_released_individual_that_outlives_its_archive_says_so():
    archive = evolved_archive(pop=4, gens=3)  # u:1 releases generation 0
    ind, newest = archive.generations[0][0], archive.generations[3]
    del archive
    with pytest.raises(RuntimeError, match="generation 0 was released and its archive is gone"):
        ind.semantics
    with pytest.raises(RuntimeError, match="generation 3 was released and its archive is gone"):
        newest[0]


@pytest.mark.parametrize(
    "distribution, held", [(UniformLastK(2), 2), (Geometric(0.25), None), (Geometric(0.75), 5)]
)
def test_a_run_keeps_semantics_only_for_the_generations_selection_can_read(
    monkeypatch, distribution, held
):
    """The window holds the latest `held` generations (None: all) and never grows."""

    def no_replay(self, ref):
        raise AssertionError(f"an individual of generation {ref.generation} replayed during the run")

    monkeypatch.setattr(Archive, "_replay", no_replay)
    split = split_70_30(synthetic_dataset("polynomial", 60, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=distribution, population_size=20, generations=15, seed=3)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    # One slot per generation selection can read, generation 0 counted,
    # plus the one being bred.
    slots = min(distribution.horizon, cfg.generations + 1) + 1
    assert archive._window.shape == (slots, 20, len(archive.inputs))
    first = len(archive.generations) - held if held else 0
    assert held_generations(archive) == set(range(first, len(archive.generations)))
    assert archive._replayed == {}
    monkeypatch.undo()
    assert archive.individual(IndividualRef(0, 0)).semantics.size == len(archive.inputs)


def test_releasing_a_generation_frees_its_blocks_though_the_next_reproduces_it(monkeypatch):
    """A released generation's window slot is reused, and its reproductions keep their bits."""
    split = split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=5), seed=1)
    rows = split.train.rows + split.test.rows
    monkeypatch.setattr(archive_module, "_BLOCK_ELEMENTS", 3 * rows)  # 3 children per block
    cfg = EvolutionConfig(population_size=10, generations=0, crossover_rate=0.0,
                          mutation_rate=0.0, seed=4)
    archive = run_evolution(cfg, split, keep_archive=True).archive  # holds generation 0 alone
    window = archive._window
    assert len(window) == 2
    # Generation 1 takes the free slot, and releases generation 0. Generation
    # 2 is all reproductions of generation 1, written into generation 0's
    # slot; generation 3 then reuses generation 1's.
    rng = np.random.default_rng(cfg.seed)
    for _ in range(3):
        next_generation(archive, cfg, rng)
    assert archive._window is window and held_generations(archive) == {3}
    reproduced = archive.generations[2].packed
    assert reproduced.kind.tolist() == [_REF] * 10
    assert set(reproduced.parents[:, 0].tolist()) == {1}
    clone = Archive.from_json(archive.to_json(), split)
    for gen, twin in zip(archive.generations, clone.generations):
        assert [ind.semantics.tobytes() for ind in gen] == [ind.semantics.tobytes() for ind in twin]


@dataclass(frozen=True)
class NearSighted:
    """Draws as Geometric(0.5) does, but a run holds only the given horizon."""

    horizon: Optional[int]

    def sample_many(self, current, n, rng):
        return Geometric(0.5).sample_many(current, n, rng)

    def label(self):
        return f"near:{self.horizon}"


def test_a_replayed_row_with_a_distant_reader_does_not_pin_its_block(monkeypatch):
    split = split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=NearSighted(1), population_size=10, generations=12, seed=5)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    clone = Archive.from_json(archive.to_json(), split)
    blocks = []
    evaluate = archive_module.evaluate_block

    def recording_evaluate(payloads, programs, columns, rows_of, out=None):
        # Parents come from up to several generations back, yet a block is
        # freed once the generation after it has been evaluated.
        assert all(block() is None for block in blocks[:-1])
        block = evaluate(payloads, programs, columns, rows_of, out)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(archive_module, "evaluate_block", recording_evaluate)
    for g, i in [(10, 0), (9, 4)]:
        del blocks[:]
        row = archive.individual(IndividualRef(g, i)).semantics
        assert len(blocks) > 3
        assert row.tobytes() == clone.individual(IndividualRef(g, i)).semantics.tobytes()


def test_a_winner_beyond_the_horizon_is_replayed_with_the_same_bits(monkeypatch):
    replays = counted_replays(monkeypatch)
    split = split_70_30(synthetic_dataset("polynomial", 60, 2, 0.1, seed=5), seed=1)

    def run(distribution):
        cfg = EvolutionConfig(distribution=distribution, population_size=20, generations=15, seed=3)
        return run_evolution(cfg, split, keep_archive=True)

    near = run(NearSighted(1))
    # most generations draw a winner from beyond the latest one
    assert len(set(replays)) > 5 and len(replays) > len(set(replays))
    assert near.replays == len(replays)
    # The bound holds after every replay: only the latest generation stays held.
    assert held_generations(near.archive) == {15} and near.archive._replayed == {}
    del replays[:]
    whole = run(NearSighted(16))  # holds all 16 generations of the run
    assert replays == [] and whole.replays == 0
    assert run(UniformLastK(1)).replays == 0 and replays == []
    assert np.array(near.train_rmse).tobytes() == np.array(whole.train_rmse).tobytes()
    assert np.array(near.test_rmse).tobytes() == np.array(whole.test_rmse).tobytes()
    assert near.final_best == whole.final_best
    assert near.offset_histogram == whole.offset_histogram
    assert near.archive.to_json() == whole.archive.to_json()
    clone = Archive.from_json(near.archive.to_json(), split)
    for gens in zip(near.archive.generations, whole.archive.generations, clone.generations):
        rows = [[ind.semantics.tobytes() for ind in gen] for gen in gens]
        assert rows[0] == rows[1] == rows[2]


def test_each_reported_test_rmse_is_its_best_individuals_replayed_or_not(monkeypatch):
    split = split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=Geometric(0.5), population_size=10, generations=25, seed=6)
    result = run_evolution(cfg, split, keep_archive=True)
    archive = result.archive
    assert min(held_generations(archive)) > 0  # horizon 9: the oldest generations were released
    replays = counted_replays(monkeypatch)
    for g in range(len(archive.generations)):
        best = archive.individual(archive.best_of_generation(g))
        assert result.test_rmse[g] == rmse(best.test_semantics, archive.test_targets)
    assert replays


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 5)), max_size=30),
    st.booleans(),
)
def test_reads_and_releases_in_any_order_match_a_json_round_trip(steps, small_blocks):
    """(True, g, i) reads slot i of generation g, and (False, _, _) appends a generation.

    g is taken modulo the generation count, and each append releases the
    oldest generation held. With small_blocks, the reads and appends
    evaluate one row per block, so a replay splits a generation's share
    into several blocks, while the run and the clone were evaluated one
    block per generation.
    """
    split = split_70_30(synthetic_dataset("polynomial", 30, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=NearSighted(2), population_size=6, generations=8, seed=2)
    archive = run_evolution(cfg, split, keep_archive=True).archive  # generations 7-8 held
    rng = np.random.default_rng(3)
    read = []

    def bits(generation, i):
        ind = generation[i]
        a, b, c = ind.train_semantics, ind.test_semantics, ind.semantics
        return a.tobytes(), b.tobytes(), c.tobytes(), ind.train_fitness

    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:
            patch.setattr(archive_module, "_BLOCK_ELEMENTS", 1)
        for is_read, g, i in steps:
            if is_read:
                g %= len(archive.generations)
                read.append((g, i, bits(archive.generations[g], i)))
            else:
                next_generation(archive, cfg, rng)
        for g in range(len(archive.generations)):
            read += [(g, i, bits(archive.generations[g], i)) for i in range(6)]
    clone = Archive.from_json(archive.to_json(), split)
    for g, i, seen in read:
        assert seen == bits(clone.generations[g], i)


@pytest.mark.parametrize("horizon", [0, -1, 1.5, True, None])
def test_a_run_rejects_a_horizon_that_is_not_an_int_of_at_least_1(horizon):
    # A config or a campaign refuses it when made, naming the field, so no
    # run of it starts.
    near = NearSighted(horizon)
    refused = re.escape(f"near:{horizon} has horizon {horizon!r}; expected an int >= 1")
    with pytest.raises(ValueError, match=f"^distribution {refused}$"):
        EvolutionConfig(distribution=near, population_size=6, generations=3)
    dataset = synthetic_dataset("polynomial", 30, 2, 0.1, seed=5)
    with pytest.raises(ValueError, match=rf"^strategies\[1\] {refused}$"):
        Campaign(dataset, ["u:1", near], runs=2)


@pytest.mark.parametrize("hold", [0, -1, 1.5, True, None])
def test_an_archive_rejects_a_hold_that_is_not_an_int_of_at_least_1(hold):
    # A hold of 0 would leave the next generation reading every parent by replay.
    with pytest.raises(ValueError, match="hold must be"):
        Archive(evolved_split(), hold=hold)


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
    return blob, evolved_split()


def test_json_schema_2_writes_refs_as_pairs():
    archive = evolved_archive(pop=6, gens=2)
    blob = archive.to_json()
    assert blob["schema_version"] == 2
    elite = blob["generations"][1][0]
    assert elite == [0, archive.best_of_generation(0).index]
    clone = Archive.from_json(json.loads(json.dumps(blob)), evolved_split())
    assert clone.generations[1].packed.kind[0] == archive.generations[1].packed.kind[0] == _REF
    assert clone.generations[1].packed.reads(0) == archive.generations[1].packed.reads(0)


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
        # json.loads reads a 401-digit literal as an int beyond float range.
        ({"random_tree": {"const": 10**400}}, r"constant 10{400} is not a finite number"),
        (
            {"kind": "mutation", "base": [0, 0], "random_tree_a": {"const": 1.0},
             "random_tree_b": {"const": 0.0}, "step": 10**400},
            r"mutation step 10{400} is not a finite number >= 0",
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
        archive.make_individual(mutation(reproduction((0, 0)), blowup, None, 1.0))
    assert exc.value.split == "test"
    assert exc.value.row == 1


def test_best_of_generation_rejects_a_generation_outside_the_archive():
    archive = evolved_archive(gens=3)
    assert len(archive.generations) == 4
    for generation in (-1, 4):
        with pytest.raises(ValueError, match=f"no generation {generation} in archive"):
            archive.best_of_generation(generation)


def test_fitness_table_is_each_generations_train_fitness():
    archive = evolved_archive(pop=6, gens=20)  # the table grows past its first 8 rows
    table = np.array([[ind.train_fitness for ind in gen] for gen in archive.generations])
    assert archive.train_fitness.shape == (21, 6)
    assert archive.train_fitness.tobytes() == table.tobytes()
    assert not archive.train_fitness.flags.writeable
    for g, row in enumerate(table):
        assert archive.best_of_generation(g) == IndividualRef(g, int(np.argmin(row)))


def test_generations_grow_only_through_append_generation():
    archive = evolved_archive(pop=4, gens=2)
    gens = archive.generations
    assert type(gens) is tuple and all(type(gen.packed) is Payloads for gen in gens)
    with pytest.raises(AttributeError):
        gens.append(gens[0])
    with pytest.raises(TypeError):
        gens[1] = gens[0]
    with pytest.raises(TypeError):
        gens[1][0] = gens[0][0]
    with pytest.raises(AttributeError):
        archive.generations = gens + (gens[0],)
    assert archive.generations is gens  # a read does not rebuild the tuple
    assert gens[2][1] is gens[2][1] and gens[2][-1] is gens[2][3]  # a view per slot
    with pytest.raises(IndexError):
        gens[2][4]
    # A read view keeps no record: a generation is appended from made individuals.
    with pytest.raises(TypeError, match="only individuals that make_individual made"):
        archive.append_generation(list(gens[0]))
    archive.append_generation([archive.make_individual(reproduction((0, i))) for i in range(4)])
    assert archive.generations[:3] == gens
    reproduced = archive.generations[3].packed
    assert [reproduced.reads(i) for i in range(4)] == [((0, i),) for i in range(4)]
    assert archive.train_fitness.shape == (4, 4)


def test_train_and_test_semantics_are_slices_of_one_vector():
    archive = evolved_archive(pop=6, gens=2)
    n_train = len(archive.train_inputs)
    for gen in archive.generations:
        for ind in gen:
            assert np.shares_memory(ind.train_semantics, ind.semantics)
            assert np.shares_memory(ind.test_semantics, ind.semantics)
            assert np.array_equal(ind.semantics[:n_train], ind.train_semantics)
            assert np.array_equal(ind.semantics[n_train:], ind.test_semantics)


def test_train_and_test_views_are_made_once_and_again_after_a_release():
    split = split_70_30(synthetic_dataset("polynomial", 30, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=UniformLastK(2), population_size=6, generations=4, seed=4)
    archive = run_evolution(cfg, split, keep_archive=True).archive  # generations 0-2 released
    n_train = archive.n_train

    def views_of(ind):
        train, test = ind.train_semantics, ind.test_semantics
        assert np.shares_memory(train, ind.semantics)
        assert np.shares_memory(test, ind.semantics)
        assert train.tobytes() == ind.semantics[:n_train].tobytes()
        assert test.tobytes() == ind.semantics[n_train:].tobytes()
        assert ind.train_semantics is train and ind.test_semantics is test
        return train, test

    first = [[views_of(ind) for ind in gen] for gen in archive.generations]
    assert all(archive.generations[4][i] is archive.generations[4][i] for i in range(6))
    # Appending generation 5 releases generation 3 and drops every view, so
    # each read of generation 3 (replayed) or 4 (held) makes a new one.
    next_generation(archive, cfg, np.random.default_rng(5))
    for g in (3, 4):
        for ind, (train, test) in zip(archive.generations[g], first[g]):
            new_train, new_test = views_of(ind)
            assert new_train is not train
            assert new_train.tobytes() == train.tobytes()
            assert new_test.tobytes() == test.tobytes()


def payload_refs(archive) -> list:
    """Every ref that the archive's payloads read, in archive order."""
    return [
        ref
        for gen in archive.generations
        for i in range(len(gen))
        for ref in gen.packed.reads(i)
    ]


def test_every_ref_is_an_immutable_pair_equal_to_its_slot():
    split = split_70_30(synthetic_dataset("polynomial", 30, 2, 0.1, seed=5), seed=1)
    cfg = EvolutionConfig(distribution=Geometric(0.5), population_size=10, generations=12, seed=4)
    result = run_evolution(cfg, split, keep_archive=True)
    archive = result.archive
    clone = Archive.from_json(json.loads(json.dumps(archive.to_json())), split)
    assert json.dumps(clone.to_json()) == json.dumps(archive.to_json())
    assert payload_refs(clone) == payload_refs(archive)
    for arch in (archive, clone):
        refs = payload_refs(arch)
        assert len(refs) > len(arch.generations) * 10
        best = [arch.best_of_generation(g) for g in range(len(arch.generations))]
        winners = tournament_select(arch, Geometric(0.5), 3, 200, np.random.default_rng(1))
        # Each ref, built on demand from the packed index arrays, is an
        # immutable IndividualRef, equal to and hashed as a new one and as
        # the tuple (g, i), which it unpacks to.
        for ref in refs + best + list(winners):
            assert type(ref) is IndividualRef and type(ref.generation) is int
            g, i = ref
            assert 0 <= g < len(arch.generations) and 0 <= i < 10
            assert ref == IndividualRef(g, i) == (g, i)
            assert hash(ref) == hash(IndividualRef(g, i)) == hash((g, i))
        for field, value in (("generation", 0), ("index", 0)):
            with pytest.raises(AttributeError):
                setattr(best[3], field, value)
        assert best == [arch.best_of_generation(b.generation) for b in best]
    assert result.final_best == archive.best_of_generation(len(archive.generations) - 1)


def test_a_kept_generation_adds_no_tracked_object_per_individual():
    split = split_70_30(synthetic_dataset("friedman-like", 60, 5, 0.0, seed=1), seed=2)
    cfg = EvolutionConfig(distribution=Geometric(0.25), population_size=50, seed=3)
    tracked = {}
    for generations in (40, 80):
        result = run_evolution(replace(cfg, generations=generations), split, keep_archive=True)
        assert len(result.archive.generations) == generations + 1
        gc.collect()
        tracked[generations] = len(gc.get_objects())
        del result
        gc.collect()
    # A generation is a few arrays and objects, not one object per slot,
    # per ref, per payload or per tree.
    per_generation = (tracked[80] - tracked[40]) / 40
    assert per_generation < cfg.population_size, per_generation


def mixed_payloads(archive, n, rng):
    """n payloads of every evaluated kind over the archive's first generation."""
    pop = len(archive.generations[0])
    trees = list(gen_tree(3, 2, [(3, "grow")] * (3 * n), rng))
    payloads = []
    for k in range(n):
        i, j = rng.integers(pop, size=2).tolist()
        ra, rb, rc = trees[3 * k : 3 * k + 3]
        payloads.append(
            [
                crossover(i, j, ra),
                mutation(reproduction((0, i)), ra, rb, 0.1),
                mutation(crossover(i, j, ra), rb, rc, 0.1),
                mutation(reproduction((0, j)), rc, None, 0.1),
                leaf(rb),
            ][k % 5]
        )
    return payloads


def test_evaluate_from_two_threads_matches_serial_calls():
    archive = evolved_archive(pop=20, gens=1, rows=400)
    rng = np.random.default_rng(3)
    batches = [mixed_payloads(archive, 40, rng) for _ in range(20)]

    def evaluate(payloads):
        return [archive.make_individual(payload) for payload in payloads]

    serial = [evaluate(payloads) for payloads in batches]
    # Switch threads as often as the interpreter allows, so the two callers
    # interleave inside each other's evaluations.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(evaluate, p) for p in batches]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, threaded):
        for a, b in zip(expected, got):
            assert a.semantics.tobytes() == b.semantics.tobytes()
            assert a.test_semantics.tobytes() == b.test_semantics.tobytes()
            assert a.train_fitness == b.train_fitness


def test_mutation_of_inline_crossover_payload():
    archive = two_leaf_archive()
    inner = crossover(0, 1, Constant(0.0))
    child = archive.make_individual(mutation(inner, Constant(9.0), Constant(-9.0), 0.1))
    midpoint = archive.make_individual(inner)
    delta = child.train_semantics - midpoint.train_semantics
    assert np.all(np.abs(delta) <= 0.1 + 1e-12)
    assert np.all(delta > 0.09)  # sig(9) - sig(-9) is nearly 1


def test_json_rejects_mutation_of_a_mutation():
    blob, split = json_archive_with()
    raw = {"random_tree_a": {"const": 1.0}, "random_tree_b": None, "step": 0.1}
    # A base nested 5000 mutations deep is refused without recursing into it.
    for depth in (1, 5000):
        payload = {"kind": "mutation", "base": [0, 0], **raw}
        for _ in range(depth):
            payload = {"kind": "mutation", "base": payload, **raw}
        blob["generations"][1][2] = payload
        with pytest.raises(ValueError, match=r"generation 1, slot 2: mutation base is neither"):
            Archive.from_json(blob, split)


def test_nonfinite_generation_names_the_first_failing_slot():
    split = make_split([[0.5], [1.0]], [0.0, 0.0], [[0.25], [10.0]], [0.0, 0.0])
    archive = seeded_archive([Variable(0)] * 5, split)
    ok = mutation(reproduction((0, 0)), Constant(1.0), None, 1.0)
    blowup = BinaryOp("mul", Variable(0), Constant(1e308))
    test_blowup = mutation(reproduction((0, 0)), blowup, None, 1.0)
    train_blowup = leaf(Constant(float("nan")))
    payloads = [reproduction((0, 0)), ok, test_blowup, ok, train_blowup]
    first = r"Mutation payload in slot 2 at row 1"
    rejects = archive.evaluate_next(generation(payloads), range(5))
    assert [(e.slot, e.split, e.row) for e in rejects] == [(2, "test", 1), (4, "train", 0)]
    assert re.search(first, str(rejects[0]))
    # A redraw round evaluates only its slots: with slot 2 drawn again, slot 4 fails alone.
    rejects = archive.evaluate_next(generation(payloads[:2] + [ok] + payloads[3:]), [2, 4])
    assert [(e.slot, e.split, e.row) for e in rejects] == [(4, "train", 0)]
    # from_json raises the first reject of the generation it evaluates (a
    # NaN constant is refused before evaluation, so slot 4 is replaced).
    blob = archive.to_json()
    raw = {"kind": "mutation", "base": [0, 0], "random_tree_b": None, "step": 1.0}
    fine, bad = ({**raw, "random_tree_a": tree_to_json(t)} for t in (Constant(1.0), blowup))
    blob["generations"].append([[0, 0], fine, bad, fine, fine])
    with pytest.raises(NonFiniteSemanticsError, match=first) as exc:
        Archive.from_json(blob, split)
    assert (exc.value.slot, exc.value.split, exc.value.row) == (2, "test", 1)


_trees = st.integers(0, 2**32 - 1).map(
    lambda seed: gen_tree(3, 2, [(3, "grow")], np.random.default_rng(seed))[0]
)
_refs = st.tuples(st.integers(0, 1), st.integers(0, 3))
_reproductions = st.builds(reproduction, _refs)
_crossovers = st.builds(records.crossover, _refs, _refs, _trees)
_steps = st.floats(0.0, 2.0)
_payloads = st.one_of(
    st.builds(leaf, _trees),
    _reproductions,
    _crossovers,
    st.builds(mutation, st.one_of(_reproductions, _crossovers), _trees, _trees, _steps),
    st.builds(mutation, st.one_of(_reproductions, _crossovers), _trees, st.none(), _steps),
)


@settings(max_examples=60)
@given(st.lists(_payloads, min_size=1, max_size=12))
def test_block_size_never_changes_semantics_or_fitness(payloads):
    split = split_70_30(synthetic_dataset("polynomial", 12, 2, 0.0, seed=5), seed=1)
    trees = [gen_tree(3, 2, [(3, "grow")], np.random.default_rng(i))[0] for i in range(4)]
    archive = seeded_archive(trees, split)
    crossovers = [crossover(i, (i + 1) % 4, trees[i]) for i in range(4)]
    archive.append_generation([archive.make_individual(c) for c in crossovers])
    # The payloads, padded with leaves, fill generations of the population
    # size, each evaluated in one block; the clone evaluates one child per block.
    padded = payloads + [leaf(trees[0])] * (-len(payloads) % 4)
    for start in range(0, len(padded), 4):
        packed = generation(padded[start : start + 4])
        assert archive.evaluate_next(packed, range(4)) == []
        archive.append_evaluated(packed)
        assert archive.generations[-1].packed is packed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(archive_module, "_BLOCK_ELEMENTS", 1)
        clone = Archive.from_json(archive.to_json(), split)
    assert archive.train_fitness.tobytes() == clone.train_fitness.tobytes()
    for k in range(len(payloads)):
        ref = IndividualRef(2 + k // 4, k % 4)
        row = archive.row(ref)
        assert row.tobytes() == clone.row(ref).tobytes()
        for x, memo in zip(archive.inputs, row):
            naive = archive.naive_eval(ref, x)
            assert abs(naive - memo) <= 1e-9 * (1.0 + abs(naive))


# Arbitrary JSON values, with the keys and kind names of schema 2 among
# their strings, so a mutated blob reaches the parser's deeper checks.
_KEYS = ("kind", "tree", "parent1", "parent2", "random_tree", "base", "random_tree_a",
         "random_tree_b", "step", "op", "left", "right", "const", "var", "generations")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats()
    | st.sampled_from(("leaf", "crossover", "mutation", "add", "pow", *_KEYS)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner),
    max_leaves=6,
)


@functools.cache
def fuzz_blob() -> tuple:
    """The JSON of a 5 x 3 run of every payload kind, its split, and the key path of each node."""
    split = evolved_split(rows=12)
    cfg = EvolutionConfig(population_size=5, generations=3, mutation_rate=0.5, seed=2)
    blob = run_evolution(cfg, split, keep_archive=True).archive.to_json()
    paths, todo = [], [((), blob)]
    while todo:
        path, node = todo.pop()
        paths.append(path)
        keys = node if isinstance(node, dict) else ()
        keys = range(len(node)) if isinstance(node, list) else keys
        todo += [((*path, key), node[key]) for key in keys]
    return blob, split, paths


@settings(max_examples=300)
@given(st.data())
def test_a_mutated_archive_blob_lets_only_a_positioned_value_error_escape(data):
    """Replace or delete one node of a valid blob: from_json raises ValueError or loads it.

    A message about a generation or a slot starts with its generation, and
    a NonFiniteSemanticsError (a ValueError) names its slot.
    """
    valid, split, paths = fuzz_blob()
    blob = copy.deepcopy(valid)
    *path, key = data.draw(st.sampled_from(paths)) or (None,)
    if key is None:
        blob = data.draw(_json_values)
    else:
        parent = functools.reduce(lambda node, k: node[k], path, blob)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_json_values)
    try:
        Archive.from_json(blob, split)
    except NonFiniteSemanticsError as exc:
        assert exc.slot is not None and f" slot {exc.slot} " in str(exc)
    except ValueError as exc:
        top = ("archive JSON is a ", "unsupported archive schema_version ",
               "archive JSON has no list of generations")
        assert str(exc).startswith(top) or re.match(r"generation \d+[ ,]", str(exc)), str(exc)
