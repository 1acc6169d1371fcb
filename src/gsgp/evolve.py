"""Generational loop: breeding with the standard rates, elitism, trajectories.

Offspring composition per slot: with probability crossover_rate the slot is
a crossover of two tournament winners, otherwise a reproduction of one;
independently, with probability mutation_rate the result is wrapped in a
mutation record. Slot 0 is the previous generation's best individual when
elitism is on, exempt from variation.

A generation is built in two phases: every slot's payload is drawn, in slot
order, and then `Archive.make_generation` evaluates them all in blocks. A
draw with non-finite semantics is redrawn under the replay rule of
`next_generation`, which keeps the RNG stream, the offset histogram and the
selection trace exactly what evaluating each slot as soon as it is drawn
would give.
"""

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .archive import _SLOT_RETRIES, Archive, Crossover, IndividualRef, Mutation, seed_archive
from .data import SplitDataset
from .errors import NonFiniteSemanticsError
from .exprtree import TreeGenConfig, gen_tree, ramp_schedule
from .selection import UniformLastK, tournament_select


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
    selection_trace: Optional[list] = None
    archive: Optional[Archive] = None
    nonfinite_retries: int = 0
    seed_regenerations: int = 0


def next_generation(
    archive: Archive,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    offset_counts=None,
    trace=None,
    rejects=None,
) -> list:
    """Breed, evaluate, and append one generation; returns its individuals.

    Every slot's payload is drawn first, in slot order, and then the whole
    generation is evaluated at once. A draw whose semantics are not finite
    is redrawn exactly as if each slot were evaluated as soon as it was
    drawn: the RNG state, offset_counts and trace go back to the last
    checkpoint, the draws are replayed up to and including the failed one
    (so its draws stay consumed and tallied) and drawing resumes at the
    failed slot. Each rejected draw's error is appended to `rejects` when
    given; a slot that fails _SLOT_RETRIES + 1 times in a row aborts, the
    same cap that seed_archive applies to generation 0.
    """
    if not archive.generations:
        raise ValueError("archive has no seeded generation")
    current = len(archive.generations)
    tree_cfg = TreeGenConfig(max_depth=cfg.max_initial_depth, n_features=archive.inputs.shape[1])

    def select():
        ref = tournament_select(
            archive, cfg.distribution, cfg.tournament_size, rng, offset_counts
        )
        if trace is not None:
            trace.append(ref)
        return ref

    def random_tree():
        return gen_tree(tree_cfg, "grow", rng)

    def build_slot():
        if rng.random() < cfg.crossover_rate:
            base = Crossover(select(), select(), random_tree())
        else:
            base = select()  # reproduction: the bare ref is the payload
        if rng.random() < cfg.mutation_rate:
            rb = random_tree() if cfg.bounded_mutation else None
            return Mutation(base, random_tree(), rb, cfg.mutation_step)
        return base

    def checkpoint():
        counts = None if offset_counts is None else offset_counts.copy()
        return rng.bit_generator.state, counts, None if trace is None else len(trace)

    def restore(mark):
        state, counts, traced = mark
        rng.bit_generator.state = state
        if counts is not None:
            offset_counts[:] = counts
        if traced is not None:
            del trace[traced:]

    # Slots before `settled` hold their final payloads.
    payloads = [archive.best_of_generation(current - 1)] if cfg.elitism else []
    settled = len(payloads)
    failures = 0
    while True:
        mark = checkpoint()
        payloads[settled:] = [build_slot() for _ in range(cfg.population_size - settled)]
        try:
            individuals = archive.make_generation(payloads)
            break
        except NonFiniteSemanticsError as exc:
            if rejects is not None:
                rejects.append(exc)
            failures = failures + 1 if exc.slot == settled else 1
            if failures > _SLOT_RETRIES:
                raise
            restore(mark)
            for _ in range(exc.slot + 1 - settled):
                build_slot()
            settled = exc.slot
    archive.append_generation(individuals)
    return individuals


def run_evolution(
    cfg: EvolutionConfig,
    split: SplitDataset,
    keep_archive: bool = False,
    record_trace: bool = False,
) -> RunResult:
    """Seed generation 0 and apply next_generation cfg.generations times."""
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    tree_cfg = TreeGenConfig(max_depth=cfg.max_initial_depth, n_features=split.train.n_features)
    schedule = ramp_schedule(tree_cfg, cfg.population_size)

    regenerated = []

    def slot_tree(slot):
        depth, method = schedule[slot]
        return gen_tree(replace(tree_cfg, max_depth=depth), method, rng)

    def regenerate(slot):
        regenerated.append(slot)
        return slot_tree(slot)

    trees = [slot_tree(i) for i in range(cfg.population_size)]
    archive = seed_archive(trees, split, regenerate=regenerate)

    offset_counts = np.zeros(max(cfg.generations, 1), dtype=np.int64)
    trace = [] if record_trace else None
    rejects = []
    train_curve = []
    test_curve = []

    def record_best(generation):
        best = archive.individual(archive.best_of_generation(generation))
        train_curve.append(best.train_fitness)
        test_curve.append(best.test_fitness)

    record_best(0)
    for _ in range(cfg.generations):
        next_generation(
            archive, cfg, rng, offset_counts=offset_counts, trace=trace, rejects=rejects
        )
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
        selection_trace=trace,
        archive=archive if keep_archive else None,
        nonfinite_retries=len(rejects),
        seed_regenerations=len(regenerated),
    )
