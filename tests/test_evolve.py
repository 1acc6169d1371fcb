import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from records import leaf_trees

import gsgp.archive as archive_module
import gsgp.evolve as evolve
from gsgp.archive import _BOUNDED, _CROSSOVER, _LEAF, _RAW, _REF, Archive
from gsgp.data import Dataset, split_70_30, synthetic_dataset
from gsgp.errors import NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig, next_generation, run_evolution, seed_archive
from gsgp.exprtree import MAX_TREE_DEPTH, Constant, Trees, eval_tree_many
from gsgp.selection import Geometric, UniformLastK


def small_cfg(**kw):
    base = dict(population_size=20, generations=10, seed=7)
    base.update(kw)
    return EvolutionConfig(**base)


@pytest.fixture
def split():
    return split_70_30(synthetic_dataset("polynomial", 40, 2, 0.1, seed=2), seed=3)


def holding_archive(cfg, split, hold):
    """The generation 0 that a run of cfg seeds, in an archive that holds `hold` generations."""
    seeded = run_evolution(replace(cfg, generations=0), split, keep_archive=True).archive
    trees = leaf_trees(seeded.generations[0].packed)

    def no_regeneration(slot):
        raise AssertionError(f"slot {slot} was regenerated")

    return seed_archive(trees, split, regenerate=no_regeneration, hold=hold)


def test_reproduction_only_copies_semantics(split):
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=0.0)
    # This archive holds every generation bred into it, so every parent holds its row.
    grown = holding_archive(cfg, split, hold=cfg.generations + 1)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.generations):
        next_generation(grown, cfg, rng)
    # A u:1 run releases every generation but the newest, and a read of a
    # released individual replays it alone. Either way a child's row is a copy
    # of its parent's, in the child's own generation's block.
    released = run_evolution(cfg, split, keep_archive=True).archive
    for archive in (grown, released):
        clone = Archive.from_json(archive.to_json(), split)
        newest = len(archive.generations) - 1
        for g in range(1, newest + 1):
            packed = archive.generations[g].packed
            assert packed.kind.tolist() == [_REF] * cfg.population_size
            for i, (ind, twin) in enumerate(zip(archive.generations[g], clone.generations[g])):
                (ref,) = packed.reads(i)
                assert ref.generation == g - 1
                parent = archive.individual(ref)
                assert not np.shares_memory(ind.semantics, parent.semantics)
                assert ind.semantics.tobytes() == parent.semantics.tobytes()
                assert ind.train_fitness == parent.train_fitness
                assert ind.semantics.tobytes() == twin.semantics.tobytes()


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
        packed = archive.generations[g].packed
        assert packed.kind[0] == _REF
        assert packed.reads(0) == (archive.best_of_generation(g - 1),)


def test_forced_crossover_and_mutation_compose(split):
    cfg = small_cfg(crossover_rate=1.0, mutation_rate=1.0)
    result = run_evolution(cfg, split, keep_archive=True)
    packed = result.archive.generations[1].packed
    # A bounded mutation of a crossover: its random tree and both mutation trees are set.
    assert packed.kind[1:].tolist() == [_CROSSOVER + _BOUNDED] * (cfg.population_size - 1)
    assert np.all(packed.trees[1:] >= 0)
    assert packed.step[1:].tolist() == [cfg.mutation_step] * (cfg.population_size - 1)


def test_raw_mutation_mode_drops_second_tree(split):
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=1.0, bounded_mutation=False)
    result = run_evolution(cfg, split, keep_archive=True)
    packed = result.archive.generations[1].packed
    mutants = packed.kind >= _RAW
    assert mutants.any()
    assert np.all(packed.kind[mutants] < _BOUNDED) and np.all(packed.trees[mutants, 2] == -1)


def test_generation_zero_uses_leaves_only(split):
    result = run_evolution(small_cfg(), split, keep_archive=True)
    assert result.archive.generations[0].packed.kind.tolist() == [_LEAF] * 20


def test_next_generation_requires_seeded_archive(split, rng):
    from gsgp.archive import Archive

    with pytest.raises(ValueError):
        next_generation(Archive(split, hold=1), small_cfg(), rng)


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


@pytest.mark.parametrize(
    "name, bad",
    [
        ("mutation_step", math.nan),
        ("mutation_step", math.inf),
        ("mutation_step", -math.inf),
        ("mutation_step", -0.1),
        ("mutation_step", True),
        ("mutation_step", "0.1"),
        pytest.param("mutation_step", 10**400, id="mutation_step-10**400"),
        ("crossover_rate", True),
        ("crossover_rate", False),
        ("crossover_rate", math.nan),
        ("crossover_rate", 1.2),
        ("crossover_rate", "0.9"),
        pytest.param("crossover_rate", 10**400, id="crossover_rate-10**400"),
        ("mutation_rate", True),
        ("mutation_rate", math.nan),
        ("mutation_rate", -0.1),
        ("elitism", "no"),
        ("elitism", 1),
        ("elitism", None),
        ("bounded_mutation", "yes"),
        ("bounded_mutation", 0),
        ("seed", -1),
        ("seed", 2.5),
        ("seed", True),
        ("seed", "3"),
    ],
)
def test_a_bad_config_value_is_refused_naming_its_field(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        EvolutionConfig(**{name: bad})
    good = {"mutation_step": np.float64(0.0), "crossover_rate": 1, "mutation_rate": 0.0,
            "elitism": False, "bounded_mutation": False, "seed": np.int64(3)}[name]
    assert getattr(EvolutionConfig(**{name: good}), name) == good


def test_a_distribution_spec_is_parsed_and_anything_else_refused(split):
    cfg = small_cfg(distribution="u:1", generations=3)
    assert cfg.distribution == UniformLastK(1)
    same = run_evolution(small_cfg(distribution=UniformLastK(1), generations=3), split)
    assert run_evolution(cfg, split).train_rmse == same.train_rmse
    assert small_cfg(distribution="g:0.25").distribution == Geometric(0.25)
    for bad in (None, 3, object()):
        refused = f"distribution must be a u:<k> or g:<p> spec or a distribution, not {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            EvolutionConfig(distribution=bad)
    with pytest.raises(ValueError, match=r"^bad distribution spec 'u:0'"):
        EvolutionConfig(distribution="u:0")


def test_a_config_is_frozen_and_a_replaced_field_is_checked_again():
    cfg = small_cfg()
    for name, value in (("distribution", "u:0"), ("population_size", 0), ("seed", 3)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == small_cfg()
    with pytest.raises(ValueError, match=r"^bad distribution spec 'u:0'"):
        replace(cfg, distribution="u:0")
    with pytest.raises(ValueError, match="^population_size must be "):
        replace(cfg, population_size=0)
    # A replaced spec is parsed, as at construction.
    assert replace(cfg, distribution="g:0.25").distribution == Geometric(0.25)


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

    def overflowing_trees(max_depth, n_features, slots, tree_rng):
        tree_rng.random(len(slots))  # draws stay consumed like real trees'
        return Trees.pack([Constant(math.inf) for _ in slots])

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

    def often_overflowing_trees(max_depth, n_features, slots, tree_rng):
        return Trees.pack(
            [Constant(math.inf if u < 0.8 else 1.0) for u in tree_rng.random(len(slots))]
        )

    monkeypatch.setattr(evolve, "gen_tree", often_overflowing_trees)
    cfg = small_cfg(crossover_rate=0.0, mutation_rate=1.0, bounded_mutation=False)
    rejects = []
    next_generation(archive, cfg, np.random.default_rng(3), rejects=rejects)
    assert len(rejects) > evolve._SLOT_RETRIES + 1  # more than the cap, over many slots
    slots = [e.slot for e in rejects]
    assert max(slots.count(s) for s in set(slots)) <= evolve._SLOT_RETRIES
    drawn = rounds(slots)
    assert all(set(later) <= set(earlier) for earlier, later in zip(drawn, drawn[1:]))
    assert all(np.isfinite(ind.semantics).all() for ind in archive.generations[-1])


def random_trees(payloads) -> int:
    """The random and generation-0 trees that packed payloads evaluate."""
    return int(np.count_nonzero(payloads.trees >= 0))


def evaluation_rounds(monkeypatch, cfg, wanted):
    """The evaluation rounds of the first generation for which wanted(rounds) holds.

    The archive is seeded from inputs x 1e150, where products of three
    inputs overflow, so some offspring fail. A round is one
    Archive.evaluate_next call: (slots, their payloads, trees evaluated,
    failed slots). Each round's trees are checked against its payloads, and each
    round after the first must evaluate exactly the slots that failed in the
    one before it.
    """
    data = synthetic_dataset("friedman-like", 200, 5, 0.0, seed=3)
    split = split_70_30(Dataset("scaled", data.inputs * 1e150, data.targets), seed=1)
    bred = 30
    # Every generation bred stays held, so no entrant is replayed and every
    # tree counted is one of a round's payloads.
    archive = holding_archive(cfg, split, hold=bred + 1)
    seen = []
    calls = []
    evaluate = Archive.evaluate_next

    def counting_eval(programs, inputs, out=None):
        seen.extend([programs] if type(programs) is tuple else programs)  # one or a list
        return eval_tree_many(programs, inputs, out=out)

    def recording_evaluate(self, payloads, slots):
        before = len(seen)
        failed = evaluate(self, payloads, slots)
        evaluated = payloads.take(list(slots))
        calls.append((list(slots), evaluated, len(seen) - before, [e.slot for e in failed]))
        return failed

    monkeypatch.setattr(archive_module, "eval_tree_many", counting_eval)
    monkeypatch.setattr(Archive, "evaluate_next", recording_evaluate)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(bred):
        calls.clear()
        next_generation(archive, cfg, rng)
        if wanted(calls):
            break
    assert wanted(calls), "no generation redrew the wanted slots"
    assert calls[0][0] == list(range(cfg.population_size))
    for (_, _, _, failed), (slots, _, _, _) in zip(calls, calls[1:]):
        assert slots == failed
    for _, payloads, trees, _ in calls:
        assert trees == random_trees(payloads)
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
    assert calls[0][1].kind[0] != _REF
    assert [slots for slots, _, _, _ in calls[1:]] == [[0]]
    assert calls[1][2] == random_trees(calls[1][1]) > 0


def test_a_kept_nonfinite_error_pins_no_block():
    data = synthetic_dataset("friedman-like", 200, 5, 0.0, seed=3)
    split = split_70_30(Dataset("scaled", data.inputs * 1e150, data.targets), seed=1)
    cfg = EvolutionConfig(population_size=30, generations=0, seed=1)
    archive = run_evolution(cfg, split, keep_archive=True).archive
    rng = np.random.default_rng(3)
    kept = []
    for _ in range(5):
        next_generation(archive, cfg, rng, rejects=kept)
    # Each error still names its slot and row, but it holds no traceback and
    # no array, so keeping it pins no row of the window or of a block.
    assert kept and all(e.row is not None and "non-finite semantics" in str(e) for e in kept)
    for e in kept:
        assert e.__traceback__ is None and e.__context__ is None
        assert not any(isinstance(v, np.ndarray) for v in (*e.args, *vars(e).values()))
