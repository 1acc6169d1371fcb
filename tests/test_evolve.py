import math

import numpy as np
import pytest

import gsgp.archive as archive_module
import gsgp.evolve as evolve
from gsgp.archive import Archive, Crossover, IndividualRef, Leaf, Mutation
from gsgp.data import Dataset, split_70_30, synthetic_dataset
from gsgp.errors import NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig, next_generation, run_evolution
from gsgp.exprtree import MAX_TREE_DEPTH, Constant, eval_tree_many
from gsgp.selection import Geometric, UniformLastK


def small_cfg(**kw):
    base = dict(population_size=20, generations=10, seed=7)
    base.update(kw)
    return EvolutionConfig(**base)


@pytest.fixture
def split():
    return split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=2), seed=3)


def test_reproduction_only_copies_semantics(split):
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=0.0)
    result = run_evolution(cfg, split, keep_archive=True)
    archive = result.archive
    for g in range(1, len(archive.generations)):
        for ind in archive.generations[g]:
            assert isinstance(ind.payload, IndividualRef)
            assert ind.payload.generation == g - 1
            parent = archive.individual(ind.payload)
            assert ind.train_semantics is parent.train_semantics
            assert ind.test_semantics is parent.test_semantics


def test_elitism_makes_best_train_monotone(split):
    result = run_evolution(small_cfg(), split)
    curve = result.train_rmse
    assert all(curve[i + 1] <= curve[i] for i in range(len(curve) - 1))


def test_without_elitism_monotonicity_can_break(split):
    def regresses(elitism, seed):
        curve = run_evolution(small_cfg(elitism=elitism, seed=seed), split).train_rmse
        return any(b > a for a, b in zip(curve, curve[1:]))

    seeds = range(10)
    assert any(regresses(False, seed) for seed in seeds)
    assert not any(regresses(True, seed) for seed in seeds)


def test_run_is_deterministic(split):
    a = run_evolution(small_cfg(), split)
    b = run_evolution(small_cfg(), split)
    assert a.train_rmse == b.train_rmse
    assert a.test_rmse == b.test_rmse
    assert a.final_best == b.final_best
    assert a.offset_histogram == b.offset_histogram


def test_trajectory_length_is_generations_plus_one(split):
    assert len(run_evolution(small_cfg(), split).train_rmse) == 11
    zero = run_evolution(small_cfg(generations=0), split)
    assert len(zero.train_rmse) == 1
    assert zero.final_best.generation == 0


def test_total_individuals_created(split):
    result = run_evolution(small_cfg(), split, keep_archive=True)
    assert result.archive.record_count() == 20 * 11


def test_offset_histogram_support_for_uniform_k(split):
    result = run_evolution(small_cfg(distribution=UniformLastK(3)), split)
    assert result.offset_histogram
    assert all(offset <= 2 for offset in result.offset_histogram)


def test_offset_histogram_geometric_reaches_back(split):
    result = run_evolution(small_cfg(distribution=Geometric(0.25), generations=12), split)
    assert max(result.offset_histogram) > 2


def test_elite_slot_is_reference_to_previous_best(split):
    result = run_evolution(small_cfg(), split, keep_archive=True)
    archive = result.archive
    for g in range(1, len(archive.generations)):
        payload = archive.generations[g][0].payload
        assert payload == archive.best_of_generation(g - 1)


def test_forced_crossover_and_mutation_compose(split):
    cfg = small_cfg(crossover_rate=1.0, mutation_rate=1.0)
    result = run_evolution(cfg, split, keep_archive=True)
    for ind in result.archive.generations[1][1:]:
        assert isinstance(ind.payload, Mutation)
        assert isinstance(ind.payload.base, Crossover)
        assert ind.payload.random_tree_b is not None
        assert ind.payload.step == cfg.mutation_step


def test_raw_mutation_mode_drops_second_tree(split):
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=1.0, bounded_mutation=False)
    result = run_evolution(cfg, split, keep_archive=True)
    mutants = [
        ind.payload
        for ind in result.archive.generations[1]
        if isinstance(ind.payload, Mutation)
    ]
    assert mutants
    assert all(m.random_tree_b is None for m in mutants)


def test_selection_trace_recording(split):
    result = run_evolution(small_cfg(), split, record_trace=True)
    assert result.selection_trace
    assert all(ref.generation < 10 for ref in result.selection_trace)
    untraced = run_evolution(small_cfg(), split)
    assert untraced.selection_trace is None


def test_generation_zero_uses_leaves_only(split):
    result = run_evolution(small_cfg(), split, keep_archive=True)
    assert all(isinstance(i.payload, Leaf) for i in result.archive.generations[0])


def test_next_generation_requires_seeded_archive(split, rng):
    from gsgp.archive import Archive

    with pytest.raises(ValueError):
        next_generation(Archive(split), small_cfg(), rng)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(crossover_rate=1.2)
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=0)
    with pytest.raises(ValueError):
        EvolutionConfig(tournament_size=0)
    with pytest.raises(ValueError, match="max_initial_depth"):
        EvolutionConfig(max_initial_depth=-1)
    EvolutionConfig(max_initial_depth=MAX_TREE_DEPTH)
    with pytest.raises(ValueError, match="max_initial_depth must be <= MAX_TREE_DEPTH"):
        EvolutionConfig(max_initial_depth=MAX_TREE_DEPTH + 1)


def test_default_config_matches_benchmark_table():
    cfg = EvolutionConfig()
    assert cfg.population_size == 100
    assert cfg.generations == 100
    assert cfg.max_initial_depth == 4
    assert cfg.crossover_rate == 0.9
    assert cfg.mutation_rate == 0.3
    assert cfg.mutation_step == 0.1
    assert cfg.tournament_size == 4
    assert cfg.elitism is True
    assert cfg.distribution == UniformLastK(1)


def test_slot_failing_every_redraw_aborts_after_the_retry_cap(split, rng, monkeypatch):
    archive = run_evolution(small_cfg(generations=0), split, keep_archive=True).archive

    def overflowing_trees(cfg, slots, tree_rng):
        tree_rng.random(len(slots))  # draws stay consumed like real trees'
        return [Constant(math.inf) for _ in slots]

    monkeypatch.setattr(evolve, "gen_tree", overflowing_trees)
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=1.0, bounded_mutation=False)
    rejects = []
    with pytest.raises(NonFiniteSemanticsError) as exc:
        next_generation(archive, cfg, rng, rejects=rejects)
    # every slot but the elite (slot 0) fails in every round
    assert exc.value.slot == 1
    assert [e.slot for e in rejects] == list(range(1, 20)) * (evolve._SLOT_RETRIES + 1)
    assert rejects[-19] is exc.value
    assert len(archive.generations) == 1


def rounds(slots):
    """Split a run of reject slots into the rounds that drew them, each in slot order."""
    split = [[]]
    for slot in slots:
        if split[-1] and slot <= split[-1][-1]:
            split.append([])
        split[-1].append(slot)
    return split


def test_retry_cap_counts_one_slot_in_a_row(split, monkeypatch):
    archive = run_evolution(small_cfg(generations=0), split, keep_archive=True).archive

    def often_overflowing_trees(cfg, slots, tree_rng):
        return [Constant(math.inf if u < 0.8 else 1.0) for u in tree_rng.random(len(slots))]

    monkeypatch.setattr(evolve, "gen_tree", often_overflowing_trees)
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=1.0, bounded_mutation=False)
    rejects = []
    individuals = next_generation(archive, cfg, np.random.default_rng(3), rejects=rejects)
    assert len(rejects) > evolve._SLOT_RETRIES + 1  # more than the cap, over many slots
    slots = [e.slot for e in rejects]
    assert max(slots.count(s) for s in set(slots)) <= evolve._SLOT_RETRIES
    drawn = rounds(slots)
    assert all(set(later) <= set(earlier) for earlier, later in zip(drawn, drawn[1:]))
    assert all(np.isfinite(ind.semantics).all() for ind in individuals)


def random_trees(payload) -> int:
    """The random and generation-0 trees a payload evaluates."""
    if isinstance(payload, IndividualRef):
        return 0
    if isinstance(payload, (Leaf, Crossover)):
        return 1
    return random_trees(payload.base) + (1 if payload.random_tree_b is None else 2)


def evaluation_rounds(monkeypatch, cfg, wanted):
    """The evaluation rounds of the first generation for which wanted(rounds) holds.

    The archive is seeded from inputs x 1e150, where products of three
    inputs overflow, so some offspring fail. A round is one
    Archive.evaluate call: (slots, their payloads, trees evaluated, failed
    slots). Each round's trees are checked against its payloads, and each
    round after the first must evaluate exactly the slots that failed in the
    one before it.
    """
    data = synthetic_dataset("friedman-like", 200, 5, 0.0, seed=3)
    split = split_70_30(Dataset("scaled", data.inputs * 1e150, data.targets), seed=1)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    seen = []
    calls = []
    evaluate = Archive.evaluate

    def counting_eval(tree, inputs):
        seen.append(tree)
        return eval_tree_many(tree, inputs)

    def recording_evaluate(self, payloads, slots):
        before = len(seen)
        made, failed = evaluate(self, payloads, slots)
        evaluated = [payloads[s] for s in slots]
        calls.append((list(slots), evaluated, len(seen) - before, [e.slot for e in failed]))
        return made, failed

    monkeypatch.setattr(archive_module, "eval_tree_many", counting_eval)
    monkeypatch.setattr(Archive, "evaluate", recording_evaluate)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(30):
        calls.clear()
        next_generation(archive, cfg, rng)
        if wanted(calls):
            break
    assert wanted(calls), "no generation redrew the wanted slots"
    assert calls[0][0] == list(range(cfg.population_size))
    for (_, _, _, failed), (slots, _, _, _) in zip(calls, calls[1:]):
        assert slots == failed
    for _, payloads, trees, _ in calls:
        assert trees == sum(random_trees(p) for p in payloads)
    return calls


def test_redraw_evaluates_only_the_failed_slots(monkeypatch):
    cfg = EvolutionConfig(
        population_size=30, generations=0, seed=11, distribution=Geometric(0.25),
        bounded_mutation=False,
    )
    calls = evaluation_rounds(monkeypatch, cfg, lambda calls: len(calls) > 1)
    first = calls[0][2]
    redrawn = sum(trees for _, _, trees, _ in calls[1:])
    assert 0 < redrawn < first  # a whole-generation redraw would see >= first again


def test_without_elitism_a_failed_slot_0_is_redrawn_on_its_own(monkeypatch):
    # without elitism slot 0 is drawn like any other, not the elite ref
    cfg = EvolutionConfig(
        population_size=30, generations=0, seed=11, distribution=Geometric(0.25),
        bounded_mutation=False, elitism=False,
    )
    calls = evaluation_rounds(monkeypatch, cfg, lambda calls: 0 in calls[0][3])
    assert not isinstance(calls[0][1][0], IndividualRef)
    assert [slots for slots, _, _, _ in calls[1:]] == [[0]]
    assert calls[1][2] == random_trees(calls[1][1][0]) > 0
