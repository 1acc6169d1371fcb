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

`make_generation` evaluates a list of payloads in blocks of children sized
so that a block holds at most `_BLOCK_ELEMENTS` stacked values. Per block it
evaluates each random tree once into a row of a reused buffer, applies one
`sigmoid` to the rows that need it, mixes crossovers and adds mutation
deltas as matrix operations, checks finiteness once and computes each
split's fitness once, row by row. Every entry undergoes the same IEEE
operations, in the same order, as evaluating the payload alone would apply,
so the block size never changes a result. `evaluate` reports every slot
whose semantics are not finite and computes no fitness for it;
`make_generation` raises the first such slot's NonFiniteSemanticsError, and
`make_individual` is a generation of one.

`to_json` writes schema 2: each generation is a list of payloads, where a
ref (a reproduction, a parent, a mutation base) is the pair `[g, i]` and
every other payload is an object with a "kind" of "leaf", "crossover" or
"mutation". Semantics are not stored; `from_json` recomputes them.

Completed generations are immutable; appending a generation, and evaluating
payloads (which writes the archive's block buffers), require exclusive
access.
"""

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .data import SplitDataset
from .errors import EvalBudgetExceededError, NonFiniteSemanticsError
from .exprtree import (
    ExprTree,
    _finite_number,
    eval_tree,
    eval_tree_many,
    tree_from_json,
    tree_to_json,
)
from .semantics import check_finite, rmse, sigmoid

SCHEMA_VERSION = 2

# Children are evaluated in blocks of at most this many stacked values
# (children x rows), so the buffers behind a block stay small at any row count.
_BLOCK_ELEMENTS = 1 << 16

# A slot whose semantics come out non-finite is redrawn, in seeding and in
# breeding alike; one that fails _SLOT_RETRIES + 1 times in a row aborts.
_SLOT_RETRIES = 25


@dataclass(frozen=True, slots=True)
class IndividualRef:
    generation: int
    index: int


@dataclass(frozen=True, slots=True)
class Leaf:
    tree: ExprTree


@dataclass(frozen=True, slots=True)
class Crossover:
    parent1: IndividualRef
    parent2: IndividualRef
    random_tree: ExprTree


@dataclass(frozen=True, slots=True)
class Mutation:
    """Semantic mutation record.

    random_tree_b set: bounded two-tree form, child = base + step*(sig(Ra)-sig(Rb)).
    random_tree_b None: literal raw form, child = base + step*Ra.
    base is an earlier individual's IndividualRef (a mutated reproduction)
    or an inline Crossover (a freshly crossed child mutated in the same
    breeding step). The base's semantics, the stored vector of the ref or
    the crossover's mix, are computed in the same block as the child's, and
    the random trees are evaluated once over the stacked train-then-test
    rows. In JSON (schema 2) the base is the pair [g, i] or a nested
    crossover object.
    """

    base: Union[IndividualRef, Crossover]
    random_tree_a: ExprTree
    random_tree_b: Optional[ExprTree]
    step: float


Payload = Union[Leaf, IndividualRef, Crossover, Mutation]


@dataclass(slots=True)
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
    """All generations of one run, with memoized train/test semantics.

    fitness(pred, targets) takes a 2-d block with one vector per row and
    returns one error per row, as `rmse` does.
    """

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
        self._buffers = {}

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
        """The individual of one payload (not appended); see make_generation."""
        return self.make_generation([payload])[0]

    def make_generation(self, payloads: list) -> list:
        """Individuals of these payloads, in order (not appended).

        If a value is not finite, the NonFiniteSemanticsError of the first
        such slot in order is raised; see `evaluate`.
        """
        individuals, rejects = self.evaluate(payloads, range(len(payloads)))
        if rejects:
            raise rejects[0]
        return individuals

    def evaluate(self, payloads: list, slots) -> tuple:
        """(individuals, rejects) of payloads[s] for s in slots, in order.

        A reproduction (a bare IndividualRef) shares its parent's arrays and
        fitnesses. The other payloads are evaluated in blocks of at most
        _BLOCK_ELEMENTS stacked values, each child getting its own copy of
        its row. A slot whose semantics are not all finite gets None in
        `individuals` and one NonFiniteSemanticsError in `rejects` naming
        the slot, the split and the row within it; rejects are in slot
        order, and no fitness is computed for them.
        """
        slots = list(slots)
        individuals = [None] * len(slots)
        fresh = []
        for pos, slot in enumerate(slots):
            payload = payloads[slot]
            if isinstance(payload, IndividualRef):
                individuals[pos] = replace(self.individual(payload), payload=payload)
            else:
                fresh.append(pos)
        rejects = []
        size = max(1, _BLOCK_ELEMENTS // len(self.inputs))
        for start in range(0, len(fresh), size):
            positions = fresh[start : start + size]
            block = self._evaluate([payloads[slots[pos]] for pos in positions])
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                for i in np.flatnonzero(~finite).tolist():
                    slot = slots[positions[i]]
                    rejects.append(self._nonfinite(payloads[slot], slot, block[i]))
                positions = [pos for pos, ok in zip(positions, finite.tolist()) if ok]
                block = block[finite]
            train_fitness = self.fitness(block[:, : self.n_train], self.train_targets)
            test_fitness = self.fitness(block[:, self.n_train :], self.test_targets)
            for i, pos in enumerate(positions):
                values = block[i].copy()
                individuals[pos] = Individual(
                    payload=payloads[slots[pos]],
                    semantics=values,
                    train_semantics=values[: self.n_train],
                    test_semantics=values[self.n_train :],
                    train_fitness=float(train_fitness[i]),
                    test_fitness=float(test_fitness[i]),
                )
        return individuals, rejects

    def _nonfinite(self, payload, slot, values) -> NonFiniteSemanticsError:
        """The error for a slot's non-finite values, naming a train row before a test row."""
        context = f"{type(payload).__name__} payload in slot {slot}"
        try:
            check_finite(values[: self.n_train], context, split="train", slot=slot)
            check_finite(values[self.n_train :], context, split="test", slot=slot)
        except NonFiniteSemanticsError as exc:
            return exc

    def _evaluate(self, payloads: list) -> np.ndarray:
        """Stacked semantics of non-reference payloads, one row each.

        Each random tree is evaluated once into a row of a tree buffer; the
        trees under a sigmoid come first and go through one sigmoid call.
        Crossover mixing and mutation deltas are then whole-matrix
        operations, in the order child = w*p1 + (1-w)*p2 and
        child = base + step*(sig(a) - sig(b)) (or base + step*a for raw
        mutation). The result is a view of a buffer the next call reuses.
        """
        block = self._buffer("block", len(payloads))
        leaves, ref_bases, crossovers, bounded, raw = [], [], [], [], []
        for row, payload in enumerate(payloads):
            base = payload.base if isinstance(payload, Mutation) else payload
            if isinstance(base, Leaf):
                leaves.append((row, base.tree))
            elif isinstance(base, Crossover):
                crossovers.append((row, base))
            elif isinstance(base, IndividualRef):
                ref_bases.append((row, base))
            else:
                raise TypeError(f"unknown payload {payload!r}")
            if isinstance(payload, Mutation):
                (raw if payload.random_tree_b is None else bounded).append((row, payload))
        n_cross, n_bounded = len(crossovers), len(bounded)
        n_sigmoid = n_cross + 2 * n_bounded
        trees = self._buffer("trees", n_sigmoid + len(raw))
        tree_list = (
            [c.random_tree for _, c in crossovers]
            + [m.random_tree_a for _, m in bounded]
            + [m.random_tree_b for _, m in bounded]
            + [m.random_tree_a for _, m in raw]
        )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j, tree in enumerate(tree_list):
                trees[j] = eval_tree_many(tree, self.inputs)
            for row, tree in leaves:
                block[row] = eval_tree_many(tree, self.inputs)
            for row, ref in ref_bases:
                block[row] = self.individual(ref).semantics
            if n_sigmoid:
                sigmoid(trees[:n_sigmoid], out=trees[:n_sigmoid])
            if crossovers:
                w = trees[:n_cross]
                p1 = self._stack("parent1", [c.parent1 for _, c in crossovers])
                p2 = self._stack("parent2", [c.parent2 for _, c in crossovers])
                np.multiply(w, p1, out=p1)
                np.subtract(1.0, w, out=w)
                np.multiply(w, p2, out=p2)
                block[[row for row, _ in crossovers]] = np.add(p1, p2, out=p1)
            if bounded:
                delta = trees[n_cross : n_cross + n_bounded]
                np.subtract(delta, trees[n_cross + n_bounded : n_sigmoid], out=delta)
                self._add_steps(block, bounded, delta)
            if raw:
                self._add_steps(block, raw, trees[n_sigmoid:])
        return block

    def _add_steps(self, block, mutations, delta):
        """block[row] += step * delta[j] for the j-th (row, mutation) pair."""
        steps = np.array([[m.step] for _, m in mutations])
        np.multiply(steps, delta, out=delta)
        rows = [row for row, _ in mutations]
        # The crossovers are mixed by now, so their buffer is free; a mode
        # other than "raise" lets take write into it unbuffered (rows are valid).
        base = np.take(block, rows, axis=0, out=self._buffer("parent1", len(rows)), mode="clip")
        block[rows] = np.add(base, delta, out=base)

    def _stack(self, name, refs) -> np.ndarray:
        """The semantics of these refs, one per row, in the named buffer."""
        rows = [self.individual(ref).semantics for ref in refs]
        return np.stack(rows, out=self._buffer(name, len(rows)))

    def _buffer(self, name, rows) -> np.ndarray:
        """A rows x stacked-rows view of a buffer kept for this archive.

        A buffer is allocated once, at the size of the first request, and
        again only when a later request is larger.
        """
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < rows:
            buffer = self._buffers[name] = np.empty((rows, len(self.inputs)))
        return buffer[:rows]

    def append_generation(self, individuals: list):
        g = len(self.generations)
        if not individuals:
            raise ValueError(f"generation {g} is empty")
        if self.generations and len(individuals) != len(self.generations[0]):
            raise ValueError(
                f"generation {g} has {len(individuals)} payloads, not the population size "
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

        Foreign input raises ValueError. A generation that is empty or not
        of generation 0's size is named by its index. Within a payload the
        message names the generation and slot: an unknown kind, a missing
        key, a ref that does not point into an earlier generation, a tree
        that `tree_from_json` rejects (one deeper than MAX_TREE_DEPTH among
        them), or a step that is not a finite number >= 0.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"archive JSON is a {type(obj).__name__}, not an object")
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported archive schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        generations = obj.get("generations")
        if not isinstance(generations, list):
            raise ValueError("archive JSON has no list of generations")
        archive = cls(split)
        for g, gen in enumerate(generations):
            if not isinstance(gen, list):
                raise ValueError(f"generation {g} is not a list of payloads")
            payloads = []
            for i, item in enumerate(gen):
                try:
                    payloads.append(
                        _payload_from_json(item, archive.generations, split.train.n_features)
                    )
                except KeyError as exc:
                    raise ValueError(f"generation {g}, slot {i}: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"generation {g}, slot {i}: {exc}") from None
            archive.append_generation(archive.make_generation(payloads))
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


def _payload_from_json(obj, earlier: list, n_features: int) -> Payload:
    if isinstance(obj, list):
        return _ref_from_json(obj, earlier)
    kind = obj["kind"]
    if kind == "leaf":
        return Leaf(tree_from_json(obj["tree"], n_features))
    if kind == "crossover":
        return Crossover(
            _ref_from_json(obj["parent1"], earlier),
            _ref_from_json(obj["parent2"], earlier),
            tree_from_json(obj["random_tree"], n_features),
        )
    if kind == "mutation":
        base = _payload_from_json(obj["base"], earlier, n_features)
        if not isinstance(base, (IndividualRef, Crossover)):
            raise ValueError("mutation base is neither a ref nor a crossover")
        rb = obj["random_tree_b"]
        step = obj["step"]
        if not (_finite_number(step) and step >= 0):
            raise ValueError(f"mutation step {step!r} is not a finite number >= 0")
        return Mutation(
            base,
            tree_from_json(obj["random_tree_a"], n_features),
            None if rb is None else tree_from_json(rb, n_features),
            float(step),
        )
    raise ValueError(f"unknown payload kind {kind!r}")


def seed_archive(
    trees: list,
    split: SplitDataset,
    *,
    regenerate=None,
    fitness=rmse,
) -> Archive:
    """Build a one-generation archive from generation-0 trees.

    A tree whose semantics come out non-finite (protected division keeps
    this rare) is replaced by `regenerate(slot)`, a new tree for that slot.
    Without a regenerator, or when a slot fails _SLOT_RETRIES + 1 times in a
    row, the seed aborts with the diagnostic rather than clamping values.
    """
    if not trees:
        raise ValueError("cannot seed an archive from an empty tree list")
    archive = Archive(split, fitness=fitness)
    individuals = []
    for slot, tree in enumerate(trees):
        failures = 0
        while True:
            try:
                individuals.append(archive.make_individual(Leaf(tree)))
                break
            except NonFiniteSemanticsError:
                failures += 1
                if regenerate is None or failures > _SLOT_RETRIES:
                    raise
                tree = regenerate(slot)
    archive.append_generation(individuals)
    return archive
