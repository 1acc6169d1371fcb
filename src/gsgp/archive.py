"""Append-only, generation-indexed archive of every individual ever created.

An individual is stored as a payload, the record of how it was made, plus
its memoized semantics. There are four payload kinds:

- `Leaf`: a generation-0 syntax tree.
- `IndividualRef`: reproduction, a bare reference to an earlier individual.
  The child shares its parent's arrays and fitnesses.
- `Crossover`: two earlier individuals and the random tree that weighs them.
- `Mutation`: a base (a ref, or an inline `Crossover` made in the same
  breeding step) plus the random trees and step of the perturbation.

The archive evaluates over one stacked input matrix, the train rows followed
by the test rows. A payload's semantics are one vector over those rows,
computed once from the stored vectors of its parents and the outputs of its
own random trees. `train_semantics` and `test_semantics` are views of that
vector. Nothing is ever re-expanded, which is what makes whole-history
selection free: reading any archived individual is a list lookup.

`to_json` writes schema 2: each generation is a list of payloads, where a
ref (a reproduction, a parent, a mutation base) is the pair `[g, i]` and
every other payload is an object with a "kind" of "leaf", "crossover" or
"mutation". Semantics are not stored; `from_json` recomputes them.

Completed generations are immutable; appending a generation requires
exclusive access.
"""

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .data import SplitDataset
from .errors import EvalBudgetExceededError, NonFiniteSemanticsError
from .exprtree import (
    ExprTree,
    eval_tree,
    eval_tree_many,
    tree_from_json,
    tree_size,
    tree_to_json,
)
from .semantics import check_finite, rmse, sigmoid

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class IndividualRef:
    generation: int
    index: int


@dataclass(frozen=True)
class Leaf:
    tree: ExprTree


@dataclass(frozen=True)
class Crossover:
    parent1: IndividualRef
    parent2: IndividualRef
    random_tree: ExprTree


@dataclass(frozen=True)
class Mutation:
    """Semantic mutation record.

    random_tree_b set: bounded two-tree form, child = base + step*(sig(Ra)-sig(Rb)).
    random_tree_b None: literal raw form, child = base + step*Ra.
    base is an earlier individual's IndividualRef (a mutated reproduction)
    or an inline Crossover (a freshly crossed child mutated in the same
    breeding step). The base's semantics come from the same walker as any
    payload's, over the stacked train-then-test rows, and the random trees
    are evaluated once over those rows. In JSON (schema 2) the base is the
    pair [g, i] or a nested crossover object.
    """

    base: Union[IndividualRef, Crossover]
    random_tree_a: ExprTree
    random_tree_b: Optional[ExprTree]
    step: float


Payload = Union[Leaf, IndividualRef, Crossover, Mutation]


@dataclass
class Individual:
    """A payload with its semantics over the stacked train-then-test rows.

    train_semantics and test_semantics are views of `semantics`.
    """

    payload: Payload
    semantics: np.ndarray
    train_semantics: np.ndarray
    test_semantics: np.ndarray
    train_fitness: float
    test_fitness: float


class Archive:
    """All generations of one run, with memoized train/test semantics."""

    def __init__(self, split: SplitDataset, fitness=rmse):
        self.split = split
        self.train_inputs = split.train.inputs
        self.test_inputs = split.test.inputs
        self.train_targets = split.train.targets
        self.test_targets = split.test.targets
        self.inputs = np.concatenate([self.train_inputs, self.test_inputs])
        self.n_train = split.train.rows
        self.fitness = fitness
        self.generations: list[list[Individual]] = []

    # -- addressing ---------------------------------------------------

    def individual(self, ref: IndividualRef) -> Individual:
        if not 0 <= ref.generation < len(self.generations):
            raise ValueError(f"no generation {ref.generation} in archive")
        if not 0 <= ref.index < len(self.generations[ref.generation]):
            raise ValueError(
                f"index {ref.index} out of range in generation {ref.generation}"
            )
        return self.generations[ref.generation][ref.index]

    def best_of_generation(self, generation: int) -> IndividualRef:
        """Ref of the lowest-training-error individual (first on ties)."""
        gen = self.generations[generation]
        idx = min(range(len(gen)), key=lambda i: gen[i].train_fitness)
        return IndividualRef(generation, idx)

    # -- creation -----------------------------------------------------

    def make_individual(self, payload: Payload) -> Individual:
        """Compute memoized semantics and fitness for a payload (not appended).

        A reproduction (a bare IndividualRef) shares its parent's arrays and
        fitnesses. Any other payload raises NonFiniteSemanticsError naming
        the split and the row within it if a value is not finite.
        """
        if isinstance(payload, IndividualRef):
            return replace(self.individual(payload), payload=payload)
        values = self._semantics(payload)
        train, test = values[: self.n_train], values[self.n_train :]
        context = f"{type(payload).__name__} payload"
        check_finite(train, context, split="train")
        check_finite(test, context, split="test")
        return Individual(
            payload=payload,
            semantics=values,
            train_semantics=train,
            test_semantics=test,
            train_fitness=self.fitness(train, self.train_targets),
            test_fitness=self.fitness(test, self.test_targets),
        )

    def _semantics(self, payload: Payload) -> np.ndarray:
        """One vector over the stacked rows; refs read the stored vector."""

        def raw(tree):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return eval_tree_many(tree, self.inputs)

        if isinstance(payload, IndividualRef):
            return self.individual(payload).semantics
        if isinstance(payload, Leaf):
            return raw(payload.tree)
        if isinstance(payload, Crossover):
            w = sigmoid(raw(payload.random_tree))
            return w * self._semantics(payload.parent1) + (1.0 - w) * self._semantics(
                payload.parent2
            )
        if isinstance(payload, Mutation):
            base = self._semantics(payload.base)
            if payload.random_tree_b is None:
                delta = payload.step * raw(payload.random_tree_a)
            else:
                delta = payload.step * (
                    sigmoid(raw(payload.random_tree_a))
                    - sigmoid(raw(payload.random_tree_b))
                )
            return base + delta
        raise TypeError(f"unknown payload {payload!r}")

    def append_generation(self, individuals: list):
        if not individuals:
            raise ValueError("cannot append an empty generation")
        if self.generations and len(individuals) != len(self.generations[0]):
            raise ValueError(
                f"generation size {len(individuals)} != population size "
                f"{len(self.generations[0])}"
            )
        self.generations.append(list(individuals))

    # -- oracle -------------------------------------------------------

    def naive_eval(self, ref: IndividualRef, x, max_expansions: int = 1_000_000) -> float:
        """Evaluate an individual by full recursive expansion on one row.

        Never touches memoized semantics; cost is exponential in the
        generation count, so this is a testing oracle for tiny archives
        only. Exceeding max_expansions payload visits raises instead of
        hanging.
        """
        budget = [max_expansions]

        def eval_payload(payload):
            budget[0] -= 1
            if budget[0] < 0:
                raise EvalBudgetExceededError(
                    f"naive_eval exceeded {max_expansions} payload expansions; "
                    "archive too large for the oracle"
                )
            if isinstance(payload, IndividualRef):
                return eval_payload(self.individual(payload).payload)
            if isinstance(payload, Leaf):
                return eval_tree(payload.tree, x)
            if isinstance(payload, Crossover):
                w = sigmoid(eval_tree(payload.random_tree, x))
                return w * eval_payload(payload.parent1) + (1.0 - w) * eval_payload(
                    payload.parent2
                )
            if isinstance(payload, Mutation):
                base = eval_payload(payload.base)
                if payload.random_tree_b is None:
                    return base + payload.step * eval_tree(payload.random_tree_a, x)
                return base + payload.step * (
                    sigmoid(eval_tree(payload.random_tree_a, x))
                    - sigmoid(eval_tree(payload.random_tree_b, x))
                )
            raise TypeError(f"unknown payload {payload!r}")

        return eval_payload(ref)

    # -- accounting ---------------------------------------------------

    def record_count(self) -> int:
        """Stored individual records: population size x generation count."""
        return sum(len(g) for g in self.generations)

    def count_nodes(self) -> int:
        """Records plus nodes of every distinct stored tree.

        Trees shared between records count once; nothing here ever expands
        ancestry.
        """
        seen = {}

        def visit(payload):
            if isinstance(payload, Leaf):
                trees = [payload.tree]
            elif isinstance(payload, Crossover):
                trees = [payload.random_tree]
            elif isinstance(payload, Mutation):
                trees = [payload.random_tree_a]
                if payload.random_tree_b is not None:
                    trees.append(payload.random_tree_b)
                visit(payload.base)
            else:
                trees = []
            for t in trees:
                if id(t) not in seen:
                    seen[id(t)] = tree_size(t)

        for gen in self.generations:
            for ind in gen:
                visit(ind.payload)
        return self.record_count() + sum(seen.values())

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """JSON form of the structure (schema 2); semantics are recomputed on load."""
        return {
            "schema_version": SCHEMA_VERSION,
            "generations": [
                [_payload_to_json(ind.payload) for ind in gen]
                for gen in self.generations
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, split: SplitDataset) -> "Archive":
        """Rebuild an archive from `to_json` output.

        Foreign input raises ValueError naming the generation and slot: an
        unknown kind, a missing key, or a ref that does not point into an
        earlier generation.
        """
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported archive schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        archive = cls(split)
        for g, gen in enumerate(obj["generations"]):
            individuals = []
            for i, item in enumerate(gen):
                try:
                    payload = _payload_from_json(item, archive.generations)
                except KeyError as exc:
                    raise ValueError(f"generation {g}, slot {i}: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"generation {g}, slot {i}: {exc}") from None
                individuals.append(archive.make_individual(payload))
            archive.append_generation(individuals)
        return archive


def _payload_to_json(payload: Payload):
    if isinstance(payload, IndividualRef):
        return [payload.generation, payload.index]
    if isinstance(payload, Leaf):
        return {"kind": "leaf", "tree": tree_to_json(payload.tree)}
    if isinstance(payload, Crossover):
        return {
            "kind": "crossover",
            "parent1": _payload_to_json(payload.parent1),
            "parent2": _payload_to_json(payload.parent2),
            "random_tree": tree_to_json(payload.random_tree),
        }
    return {
        "kind": "mutation",
        "base": _payload_to_json(payload.base),
        "random_tree_a": tree_to_json(payload.random_tree_a),
        "random_tree_b": (
            None if payload.random_tree_b is None else tree_to_json(payload.random_tree_b)
        ),
        "step": payload.step,
    }


def _ref_from_json(obj, earlier: list) -> IndividualRef:
    """Parse a `[g, i]` pair that must point into the `earlier` generations."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(type(v) is int for v in obj)):
        raise ValueError(f"ref {obj!r} is not a [generation, index] pair")
    g, i = obj
    if not 0 <= g < len(earlier):
        raise ValueError(f"ref {obj} is not to an earlier generation")
    if not 0 <= i < len(earlier[g]):
        raise ValueError(f"ref {obj} index out of range")
    return IndividualRef(g, i)


def _payload_from_json(obj, earlier: list) -> Payload:
    if isinstance(obj, list):
        return _ref_from_json(obj, earlier)
    kind = obj["kind"]
    if kind == "leaf":
        return Leaf(tree_from_json(obj["tree"]))
    if kind == "crossover":
        return Crossover(
            _ref_from_json(obj["parent1"], earlier),
            _ref_from_json(obj["parent2"], earlier),
            tree_from_json(obj["random_tree"]),
        )
    if kind == "mutation":
        rb = obj["random_tree_b"]
        return Mutation(
            _payload_from_json(obj["base"], earlier),
            tree_from_json(obj["random_tree_a"]),
            None if rb is None else tree_from_json(rb),
            float(obj["step"]),
        )
    raise ValueError(f"unknown payload kind {kind!r}")


def seed_archive(
    trees: list,
    split: SplitDataset,
    *,
    regenerate=None,
    rng=None,
    max_retries: int = 25,
    fitness=rmse,
) -> Archive:
    """Build a one-generation archive from generation-0 trees.

    A tree whose semantics come out non-finite (protected division keeps
    this rare) is regenerated via `regenerate(slot_index, rng)` up to
    max_retries times; without a regenerator, or past the bound, the seed
    aborts with the diagnostic rather than clamping values.
    """
    if not trees:
        raise ValueError("cannot seed an archive from an empty tree list")
    archive = Archive(split, fitness=fitness)
    individuals = []
    for slot, tree in enumerate(trees):
        attempt = 0
        while True:
            try:
                individuals.append(archive.make_individual(Leaf(tree)))
                break
            except NonFiniteSemanticsError:
                attempt += 1
                if regenerate is None or attempt > max_retries:
                    raise
                tree = regenerate(slot, rng)
    archive.append_generation(individuals)
    return archive
