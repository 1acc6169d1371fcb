"""Generational loop: breeding with the standard rates, elitism, trajectories.

Offspring composition per slot: with probability crossover_rate the slot is
a crossover of two tournament winners, otherwise a reproduction of one;
independently, with probability mutation_rate the result is wrapped in a
mutation record. Slot 0 is the previous generation's best individual when
elitism is on, exempt from variation.

Randomness follows RNG stream 2 (RNG_STREAM). A run first draws its
generation-0 trees, one `gen_tree` call over the `ramp_schedule` slots; a
seed tree with non-finite semantics is replaced at once by a `gen_tree`
call for its slot alone. Then `next_generation` draws the payloads of its
k open slots in bulk, one draw per kind, in this order:

1. crossover coins, `rng.random(k)`;
2. mutation coins, `rng.random(k)`;
3. one `tournament_select` call for all k + (crossovers) tournaments: the
   entrants' source generations, then their indices;
4. one `gen_tree` call for all random trees, grow at max_initial_depth:
   one per crossover and two per bounded mutation (one per raw mutation).

Winners and trees are handed out in slot order: a crossover takes the
next two winners and the next tree, a reproduction the next winner, and a
mutation then takes the next tree as random_tree_a and, when bounded, the
one after it as random_tree_b. The whole generation is then evaluated at
once. The slots whose semantics are not finite are drawn again the same
way, with k the number of failed slots, and only they are evaluated
again. A rejected draw stays consumed: its entrants stay tallied in
offset_counts.
"""

import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .archive import _SLOT_RETRIES, Archive, Crossover, IndividualRef, Mutation, seed_archive
from .data import SplitDataset
from .exprtree import MAX_TREE_DEPTH, TreeGenConfig, gen_tree, ramp_schedule
from .selection import UniformLastK, tournament_select

# The order in which a run draws its randomness (see the module docstring);
# campaign reports record it.
RNG_STREAM = 2


@dataclass
class EvolutionConfig:
    """One run's parameters; the defaults are the standard benchmark setup."""

    distribution: object = field(default_factory=lambda: UniformLastK(1))
    population_size: int = 100
    generations: int = 100
    max_initial_depth: int = 4
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    mutation_step: float = 0.1
    tournament_size: int = 4
    elitism: bool = True
    seed: int = 0
    bounded_mutation: bool = True  # False: raw single-tree perturbation

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.max_initial_depth < 0:
            raise ValueError("max_initial_depth must be >= 0")
        if self.max_initial_depth > MAX_TREE_DEPTH:
            raise ValueError(f"max_initial_depth must be <= MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.mutation_step < 0:
            raise ValueError("mutation_step must be >= 0")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")


@dataclass
class RunResult:
    """Per-generation best-on-training trajectory plus final-model summary.

    train_rmse[g] is the lowest training RMSE in generation g and
    test_rmse[g] the test RMSE of that same individual (the test set never
    steers selection). Lengths are generations+1, including generation 0.
    offset_histogram counts the generation offsets of every tournament
    entrant drawn during the run. nonfinite_retries counts the offspring
    draws rejected for non-finite semantics and redrawn, seed_regenerations
    the generation-0 trees regenerated for the same reason.
    """

    train_rmse: list
    test_rmse: list
    final_best: IndividualRef
    offset_histogram: dict
    duration_seconds: float
    archive: Optional[Archive] = None
    nonfinite_retries: int = 0
    seed_regenerations: int = 0


def next_generation(
    archive: Archive,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    offset_counts=None,
    rejects=None,
) -> list:
    """Breed, evaluate, and append one generation; returns its individuals.

    Every open slot's payload is drawn in bulk and the generation is
    evaluated at once (see the module docstring). A slot whose semantics
    are not finite is redrawn and evaluated again on its own, with the
    other failed slots of its round; each rejected draw's error is
    appended to `rejects` when given. A slot that fails _SLOT_RETRIES + 1
    times aborts the generation with its error, the same cap that
    seed_archive applies to generation 0.
    """
    if not archive.generations:
        raise ValueError("archive has no seeded generation")
    current = len(archive.generations)
    tree_cfg = TreeGenConfig(max_depth=cfg.max_initial_depth, n_features=archive.inputs.shape[1])
    trees_per_mutation = 2 if cfg.bounded_mutation else 1

    def draw(k):
        crossover = (rng.random(k) < cfg.crossover_rate).tolist()
        mutation = (rng.random(k) < cfg.mutation_rate).tolist()
        winners = tournament_select(
            archive, cfg.distribution, cfg.tournament_size, k + sum(crossover), rng,
            offset_counts,
        )
        n_trees = sum(crossover) + trees_per_mutation * sum(mutation)
        winners = iter(winners)
        trees = iter(gen_tree(tree_cfg, [(tree_cfg.max_depth, "grow")] * n_trees, rng))
        payloads = []
        for crossed, mutated in zip(crossover, mutation):
            base = Crossover(next(winners), next(winners), next(trees)) if crossed else next(winners)
            if mutated:
                ra = next(trees)
                rb = next(trees) if cfg.bounded_mutation else None
                base = Mutation(base, ra, rb, cfg.mutation_step)
            payloads.append(base)
        return payloads

    payloads = [archive.best_of_generation(current - 1)] if cfg.elitism else []
    payloads += draw(cfg.population_size - len(payloads))
    individuals = [None] * len(payloads)
    failures = [0] * len(payloads)
    slots = range(len(payloads))
    while True:
        made, failed = archive.evaluate(payloads, slots)
        for slot, individual in zip(slots, made):
            individuals[slot] = individual
        if not failed:
            break
        if rejects is not None:
            rejects.extend(failed)
        for exc in failed:
            failures[exc.slot] += 1
            if failures[exc.slot] > _SLOT_RETRIES:
                raise exc
        slots = [exc.slot for exc in failed]
        for slot, payload in zip(slots, draw(len(slots))):
            payloads[slot] = payload
    archive.append_generation(individuals)
    return individuals


def run_evolution(
    cfg: EvolutionConfig,
    split: SplitDataset,
    keep_archive: bool = False,
) -> RunResult:
    """Seed generation 0 and apply next_generation cfg.generations times.

    After each generation is appended, the archive releases the semantics
    of every generation older than the distribution's horizon
    (`Archive.hold_latest`), a generation that a replay brought back
    included. So a run holds the semantics of the last `horizon`
    generations and the rows their reproductions share. Reading a released
    generation's semantics, for a winner drawn from beyond the horizon or
    from the archive that keep_archive=True returns, recomputes it and
    every earlier released generation, oldest first; a recomputed row is a
    new array with the same bits. That archive holds the payloads and
    fitnesses of every generation, so it still answers every read.

    A horizon that is not an int >= 1 (None and a bool included) raises
    ValueError naming the distribution's label, before anything is drawn.
    """
    horizon = cfg.distribution.horizon
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ValueError(
            f"distribution {cfg.distribution.label()} has horizon {horizon!r}; "
            "expected an int >= 1"
        )
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    tree_cfg = TreeGenConfig(max_depth=cfg.max_initial_depth, n_features=split.train.n_features)
    schedule = ramp_schedule(tree_cfg, cfg.population_size)

    regenerated = []

    def regenerate(slot):
        regenerated.append(slot)
        return gen_tree(tree_cfg, [schedule[slot]], rng)[0]

    archive = seed_archive(gen_tree(tree_cfg, schedule, rng), split, regenerate=regenerate)

    offset_counts = np.zeros(max(cfg.generations, 1), dtype=np.int64)
    rejects = []
    train_curve = []
    test_curve = []

    def record_best(generation):
        best = archive.individual(archive.best_of_generation(generation))
        train_curve.append(best.train_fitness)
        test_curve.append(best.test_fitness)

    record_best(0)
    for _ in range(cfg.generations):
        next_generation(archive, cfg, rng, offset_counts=offset_counts, rejects=rejects)
        archive.hold_latest(horizon)
        record_best(len(archive.generations) - 1)

    histogram = {
        int(o): int(c) for o, c in enumerate(offset_counts) if c > 0
    }
    return RunResult(
        train_rmse=train_curve,
        test_rmse=test_curve,
        final_best=archive.best_of_generation(len(archive.generations) - 1),
        offset_histogram=histogram,
        duration_seconds=time.perf_counter() - start,
        archive=archive if keep_archive else None,
        nonfinite_retries=len(rejects),
        seed_regenerations=len(regenerated),
    )
