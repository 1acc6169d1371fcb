"""Generational loop: breeding with the standard rates, elitism, trajectories.

Offspring composition per slot: with probability crossover_rate the slot is
a crossover of two tournament winners, otherwise a reproduction of one;
independently, with probability mutation_rate the slot then mutates that
base, and its kind code says both. Slot 0 is the previous generation's
best individual when elitism is on, exempt from variation.

Randomness follows RNG stream 2 (RNG_STREAM). A run first draws its
generation-0 trees, one `gen_tree` call over the `ramp_schedule` slots, and
`seed_archive` hands each program to `Archive.make_individual` in slot
order, as a leaf; a seed tree with non-finite semantics is replaced at once
by a `gen_tree` call for its slot alone. Then `next_generation` draws the
payloads of its k open slots in bulk, one draw per kind, in this order:

1. crossover coins, `rng.random(k)`;
2. mutation coins, `rng.random(k)`;
3. one `tournament_select` call for all k + (crossovers) tournaments: the
   entrants' source generations, then their indices;
4. one `gen_tree` call for all random trees, grow at max_initial_depth:
   one per crossover and two per bounded mutation (one per raw mutation).

Winners and trees are handed out in slot order: a crossover takes the next
two winners and the next tree, a reproduction the next winner, and a
mutation then takes the next tree as its tree a and, when bounded, the one
after it as its tree b. `Payloads.bred` computes this as index arrays from
the coins: a slot's first winner and first tree are running sums of what
the slots before it take, so no Python loop visits a slot, and the
generation's packed payloads keep the winners' generations and indices and
the `Trees` table that `gen_tree` returns. The whole generation is then
evaluated at once, straight into its slot of the archive's window. The
slots whose semantics are not finite are drawn again the same way, with k
the number of failed slots, and only they are evaluated again. A rejected
draw stays consumed: its entrants stay tallied in offset_counts, and its
trees stay, unread, in the generation's table.

Seeding and breeding share one cap on these redraws, _SLOT_RETRIES: a
slot whose semantics are not finite _SLOT_RETRIES + 1 times in a row
aborts the run with its NonFiniteSemanticsError, which names the slot.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .archive import Archive, IndividualRef, Payloads
from .data import SplitDataset
from .errors import NonFiniteSemanticsError, checked_int, finite_number
from .exprtree import MAX_TREE_DEPTH, gen_tree, ramp_schedule
from .selection import UniformLastK, checked_distribution, tournament_select
from .semantics import rmse

# The order in which a run draws its randomness (see the module docstring);
# campaign reports record it.
RNG_STREAM = 2

# The cap on a slot's non-finite redraws, in seeding and breeding alike
# (see the module docstring).
_SLOT_RETRIES = 25


@dataclass(frozen=True)
class EvolutionConfig:
    """One run's parameters; the defaults are the standard benchmark setup.

    distribution is a u:<k> or g:<p> spec, parsed here, or an object with
    `sample_many`, `label` and a `horizon` that is an int >= 1; anything
    else raises ValueError. A config is frozen, so every field keeps the
    value checked here: `dataclasses.replace` makes a changed copy, checked
    again.
    """

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
        distribution = checked_distribution("distribution", self.distribution)
        object.__setattr__(self, "distribution", distribution)
        for name, least in (
            ("population_size", 1), ("generations", 0), ("max_initial_depth", 0),
            ("tournament_size", 1), ("seed", 0),
        ):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        if self.max_initial_depth > MAX_TREE_DEPTH:
            raise ValueError(f"max_initial_depth must be <= MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not (finite_number(rate) and 0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], not {rate!r}")
        if not (finite_number(self.mutation_step) and self.mutation_step >= 0):
            raise ValueError(
                f"mutation_step must be a finite number >= 0, not {self.mutation_step!r}"
            )
        for name in ("elitism", "bounded_mutation"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, not {getattr(self, name)!r}")


@dataclass
class RunResult:
    """Per-generation best-on-training trajectory plus final-model summary.

    train_rmse[g] is the lowest training RMSE in generation g and
    test_rmse[g] the test RMSE of that same individual, computed for it
    alone (the test set never steers selection, so the archive keeps no
    test fitness). Lengths are generations+1, including generation 0.
    offset_histogram counts the generation offsets of every tournament
    entrant drawn during the run. nonfinite_retries counts the offspring
    draws rejected for non-finite semantics and redrawn, seed_regenerations
    the generation-0 trees regenerated for the same reason. replays counts
    the tournament winners from beyond the distribution's horizon whose
    semantics the run replayed (`Archive.replays`); a replay reads the
    same bits, so it changes no result.
    """

    train_rmse: list
    test_rmse: list
    final_best: IndividualRef
    offset_histogram: dict
    duration_seconds: float
    archive: Optional[Archive] = None
    nonfinite_retries: int = 0
    seed_regenerations: int = 0
    replays: int = 0


def seed_archive(
    trees: list, split: SplitDataset, *, regenerate, fitness=rmse, hold: int
) -> Archive:
    """Build a one-generation archive from generation-0 trees.

    A tree whose semantics come out non-finite (protected division keeps
    this rare) is replaced by `regenerate(slot)`, a new tree for that slot.
    A slot that fails _SLOT_RETRIES + 1 times in a row aborts the seed with
    the diagnostic, which names the tree's slot, rather than clamping values.
    trees is not empty: `Archive.append_generation` refuses an empty one.
    hold is the number of latest generations whose semantics the archive
    holds (see `Archive`).
    """
    archive = Archive(split, fitness=fitness, hold=hold)
    individuals = []
    for slot, tree in enumerate(trees):
        failures = 0
        while True:
            try:
                individuals.append(archive.make_individual(tree))
                break
            except NonFiniteSemanticsError as exc:
                failures += 1
                if failures > _SLOT_RETRIES:
                    # make_individual names slot 0 of its generation of one.
                    message = str(exc).replace(" slot 0 ", f" slot {slot} ", 1)
                    raise NonFiniteSemanticsError(message, exc.split, exc.row, slot) from None
                tree = regenerate(slot)
    archive.append_generation(individuals)
    return archive


def next_generation(
    archive: Archive,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    offset_counts=None,
    rejects=None,
) -> Payloads:
    """Breed, evaluate, and append one generation; returns its packed payloads.

    Every open slot's payload is drawn in bulk and the generation is
    evaluated at once (see the module docstring). A slot whose semantics
    are not finite is redrawn and evaluated again on its own, with the
    other failed slots of its round; each rejected draw's error is
    appended to `rejects` when given. A slot that fails _SLOT_RETRIES + 1
    times aborts the generation with its error (see the module docstring).
    The archive holds at least its seeded generation (`seed_archive`).
    """
    current = len(archive.generations)
    depth, n_features = cfg.max_initial_depth, archive.inputs.shape[1]
    trees_per_mutation = 2 if cfg.bounded_mutation else 1

    def draw(k, elite=()):
        crossover = rng.random(k) < cfg.crossover_rate
        mutation = rng.random(k) < cfg.mutation_rate
        n_crossovers = int(np.count_nonzero(crossover))
        winners = tournament_select(
            archive, cfg.distribution, cfg.tournament_size, k + n_crossovers, rng, offset_counts
        )
        n_trees = n_crossovers + trees_per_mutation * int(np.count_nonzero(mutation))
        trees = gen_tree(depth, n_features, [(depth, "grow")] * n_trees, rng)
        return Payloads.bred(
            crossover, mutation, winners, trees, cfg.bounded_mutation, cfg.mutation_step, elite
        )

    elite = [archive.best_of_generation(current - 1)] if cfg.elitism else []
    payloads = draw(cfg.population_size - len(elite), elite)
    failures = [0] * len(payloads)
    slots = range(len(payloads))
    while failed := archive.evaluate_next(payloads, slots):
        if rejects is not None:
            rejects.extend(failed)
        for exc in failed:
            failures[exc.slot] += 1
            if failures[exc.slot] > _SLOT_RETRIES:
                raise exc
        slots = [exc.slot for exc in failed]
        payloads = payloads.put(slots, draw(len(slots)))
    archive.append_evaluated(payloads)
    return payloads


def run_evolution(
    cfg: EvolutionConfig,
    split: SplitDataset,
    keep_archive: bool = False,
) -> RunResult:
    """Seed generation 0 and apply next_generation cfg.generations times.

    The archive holds the semantics of its latest min(horizon, generations
    + 1) generations, those selection can read, in one window array with
    one slot more for the generation being bred, which is evaluated
    straight into its slot (see `Archive`). The hold counts generation 0,
    so a run shorter than its horizon releases nothing. There is no
    per-block or per-individual storage. Appending a generation releases
    the one that leaves the horizon and drops every row a read brought
    back, and releasing a generation only frees its slot for reuse: a
    reproduction's row is a copy in its own generation's slot, so no held
    row depends on a released one. Reading a released individual's
    semantics, for a winner drawn from beyond the horizon or from the
    archive that keep_archive=True returns, replays only the released part
    of its own ancestry and keeps only its row, a new array with the same
    bits. That archive holds the payloads and fitnesses of every
    generation, so it still answers every read, and the views it hands out
    copy their rows, so they keep their bits after their slot is reused.
    Each generation's best train RMSE and the test RMSE of that individual
    are read from the window directly.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    depth, n_features = cfg.max_initial_depth, split.train.n_features
    schedule = ramp_schedule(depth, cfg.population_size)

    regenerated = []

    def regenerate(slot):
        regenerated.append(slot)
        return gen_tree(depth, n_features, [schedule[slot]], rng)[0]

    trees = gen_tree(depth, n_features, schedule, rng)
    hold = min(cfg.distribution.horizon, cfg.generations + 1)
    archive = seed_archive(trees, split, regenerate=regenerate, hold=hold)

    offset_counts = np.zeros(max(cfg.generations, 1), dtype=np.int64)
    rejects = []
    train_curve = []
    test_curve = []

    def record_best(generation):
        best = archive.best_of_generation(generation)
        train_curve.append(float(archive.train_fitness[best]))
        test = archive.fitness(archive.row(best)[None, archive.n_train :], archive.test_targets)
        test_curve.append(float(test[0]))

    record_best(0)
    for _ in range(cfg.generations):
        next_generation(archive, cfg, rng, offset_counts=offset_counts, rejects=rejects)
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
        replays=archive.replays,
    )
