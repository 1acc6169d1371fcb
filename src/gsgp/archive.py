"""Append-only, generation-indexed archive of every individual ever created.

An individual is stored as a payload, the record of how it was made, plus
its memoized semantics. There are four payload kinds, each a
`typing.NamedTuple`:

- `Leaf`: a generation-0 syntax tree.
- `IndividualRef`: reproduction, a bare reference to an earlier individual.
  The child shares its parent's arrays and train fitness.
- `Crossover`: two earlier individuals and the random tree that weighs them.
- `Mutation`: a base (a ref, or an inline `Crossover` made in the same
  breeding step) plus the random trees and step of the perturbation.

A payload is the tuple of its fields, so a ref equals the tuple `(g, i)`,
unpacks like it and sorts as it does, and setting a field raises
AttributeError. A payload holds each of its trees as a program, the plain
postfix tuple of the exprtree module, so a kept archive holds one object
per tree and no object per node, and the cycle collector stops tracking a
tree after its first collection. It never stops tracking a payload or a
ref: CPython untracks plain tuples only, not tuple subclasses.

The archive evaluates over one stacked input matrix, the train rows followed
by the test rows. A payload's semantics are one vector over those rows,
computed once from the stored vectors of its parents and the outputs of its
own random trees. `train_semantics` and `test_semantics` are views of that
vector, made on its first read of either. Nothing is ever re-expanded, which
is what makes whole-history selection free: reading a held individual is a
tuple lookup. The train fitnesses are also kept as one generation x slot
table (`Archive.train_fitness`), filled by `append_generation`, so
tournaments and elitism read every fitness they need with one array index.
`append_generation` also makes the generation's refs, one `IndividualRef`
per archived slot, and tournaments, `best_of_generation` and `from_json`
hand out those objects rather than new ones. So a payload that names an
earlier individual holds no ref of its own, and a tournament winner costs
a tuple lookup, not a new object.
`Archive.generations` is a tuple of per-generation tuples that only
`append_generation` extends, so no generation lacks its table row.

The stacked matrix is stored column-major. A tree reads its variables as
columns, so each operator on a variable is then one unit-stride pass over
the rows, not a strided one; at 6000 rows `x_i * c` takes about 3 us on a
contiguous column against about 7 us on a strided one (2-vCPU x86-64 Xeon,
numpy 2.4). The archive prepares the matrix once as exprtree `Columns` and
evaluates every random tree and leaf against it: the column views are
built once, and a division by a variable whose column has no entry within
DIV_EPS of zero needs no guard, with the same bits (see the exprtree
module).

`evaluate` evaluates a list of payloads in blocks of children sized so
that a block holds at most `_BLOCK_ELEMENTS` stacked values. Per block it
evaluates each random tree once into a row of a temporary, applies one
`sigmoid` to the rows that need it, mixes crossovers and adds mutation
deltas as matrix operations, checks finiteness once and computes the train
fitness once, row by row (selection reads no test fitness, so none is
kept). Every entry undergoes the same IEEE operations, in the same order,
as evaluating the payload alone would apply, so the block size never
changes a result. `evaluate` is the archive's one way to evaluate
payloads: it reports every slot whose semantics are not finite and
computes no fitness for it, and `make_individual` and `from_json` raise the
first such slot's NonFiniteSemanticsError.

Each block is a new array and is the storage of the children it holds: a
child's `semantics` is its row of the block, written once and only read
after that. A block holds children of one `evaluate` call, so it never
spans two generations.

`to_json` writes schema 2: each generation is a list of payloads, where a
ref (a reproduction, a parent, a mutation base) is the pair `[g, i]` and
every other payload is an object with a "kind" of "leaf", "crossover" or
"mutation". Semantics are not stored; `from_json` recomputes them.

Semantics are needed only for the generations that selection can still
read. `release(g)` drops generation g's rows from its individuals but keeps
their payloads and fitnesses, and `run_evolution` calls `hold_latest(h)`
after each generation with the distribution's horizon h, so the semantics a
run holds grow with h, not with the run length. Reading a released
individual's semantics (through `individual`, `generations[g][i]` or
iterating a generation) replays only the released part of its own
ancestry, oldest generation first, and keeps only the row that was read:
the individual holds it until its generation is released again. A replayed
row is a new array with the same bits, even where a later reproduction
still holds the original. Payloads and fitnesses are read without a
replay, so `to_json`, `naive_eval`, tournaments and elitism never trigger
one.

An archive belongs to one thread: nothing in it is locked. Completed
generations change only by being released or read, which changes no value
that can be read, and evaluating payloads whose parents hold their rows
writes only arrays that the call allocates.
"""

import weakref
from itertools import repeat
from typing import NamedTuple, Optional, Union

import numpy as np

from .data import SplitDataset
from .errors import EvalBudgetExceededError, NonFiniteSemanticsError
from .exprtree import (
    Columns,
    Program,
    _finite_number,
    eval_tree,
    eval_tree_many,
    tree_from_json,
    tree_to_json,
)
from .semantics import check_finite, rmse, sigmoid

SCHEMA_VERSION = 2

# Children are evaluated in blocks of at most this many stacked values
# (children x rows), so a block and its temporaries stay small at any row count.
_BLOCK_ELEMENTS = 1 << 16

# A slot whose semantics come out non-finite is redrawn, in seeding and in
# breeding alike; one that fails _SLOT_RETRIES + 1 times in a row aborts.
_SLOT_RETRIES = 25


class IndividualRef(NamedTuple):
    generation: int
    index: int


class Leaf(NamedTuple):
    tree: Program


class Crossover(NamedTuple):
    parent1: IndividualRef
    parent2: IndividualRef
    random_tree: Program


class Mutation(NamedTuple):
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
    random_tree_a: Program
    random_tree_b: Optional[Program]
    step: float


Payload = Union[Leaf, IndividualRef, Crossover, Mutation]


class Individual:
    """A payload with its train fitness and its semantics over the stacked train-then-test rows.

    train_semantics and test_semantics are views of `semantics`, made on the
    first read of either; later reads return the same two objects, and a
    reproduction shares its parent's. When the archive has released the
    individual's generation (see `Archive.release`), reading any of the
    three first replays the individual from the released part of its
    ancestry (see `Archive._replay`). It then holds the replayed row, a new
    array with the same bits, until its generation is released again, and
    its views are made again on their first read.
    """

    __slots__ = ("payload", "_views", "train_fitness")

    def __init__(self, payload, views: tuple, train_fitness):
        self.payload = payload
        # One attribute, so that release and replay each swap one value:
        # (semantics, n_train) until the train or test view is first read,
        # (semantics, train_semantics, test_semantics) after it, or its
        # generation's _Released stand-in while released.
        self._views = views
        self.train_fitness = train_fitness

    @property
    def semantics(self) -> np.ndarray:
        return self._stored()[0]

    @property
    def train_semantics(self) -> np.ndarray:
        return self._held()[1]

    @property
    def test_semantics(self) -> np.ndarray:
        return self._held()[2]

    def _stored(self) -> tuple:
        """The current views tuple, the individual replayed first if released."""
        views = self._views
        if type(views) is _Released:
            views.restore(self)
            views = self._views
        return views

    def _held(self) -> tuple:
        """(semantics, train_semantics, test_semantics), the views made on first call."""
        views = self._stored()
        if len(views) == 2:
            row, n_train = views
            views = self._views = (row, row[:n_train], row[n_train:])
        return views


class _Released:
    """What the views of a released generation's individuals are replaced by.

    It holds its archive weakly, so a released individual does not keep the
    archive alive; reading it after the archive is gone raises RuntimeError.
    """

    __slots__ = ("archive", "generation")

    def __init__(self, archive, generation: int):
        self.archive = weakref.ref(archive)
        self.generation = generation

    def restore(self, individual: Individual):
        archive = self.archive()
        if archive is None:
            raise RuntimeError(
                f"generation {self.generation} was released and its archive is gone"
            )
        archive._replay(individual, self.generation)


class Archive:
    """All generations of one run, with memoized train/test semantics (see `release`).

    fitness(pred, targets) takes a 2-d block with one vector per row and
    returns one error per row, as `rmse` does. `replays` counts the reads
    that replayed a released individual (see `_replay`).
    """

    def __init__(self, split: SplitDataset, fitness=rmse):
        self.split = split
        self.train_inputs = split.train.inputs
        self.test_inputs = split.test.inputs
        self.train_targets = split.train.targets
        self.test_targets = split.test.targets
        self.inputs = np.asfortranarray(np.concatenate([self.train_inputs, self.test_inputs]))
        self._columns = Columns(self.inputs)
        self.n_train = split.train.rows
        self.fitness = fitness
        self._generations = ()
        self._slot_refs = ()  # _slot_refs[g][i] is IndividualRef(g, i), one object per slot
        # Row g holds generation g's train fitnesses; rows past the last
        # completed generation are unfilled capacity.
        self._train_fitness = np.empty((0, 0))
        self._held = set()  # generations where at least one individual holds its row
        self.replays = 0

    # -- addressing ---------------------------------------------------

    @property
    def generations(self) -> tuple:
        """The completed generations, a tuple of per-generation tuples.

        Only `append_generation` extends it, so every generation has its
        row in the fitness table.
        """
        return self._generations

    def individual(self, ref: IndividualRef) -> Individual:
        generations = self._generations
        if not 0 <= ref.generation < len(generations):
            raise ValueError(f"no generation {ref.generation} in archive")
        if not 0 <= ref.index < len(generations[ref.generation]):
            raise ValueError(
                f"index {ref.index} out of range in generation {ref.generation}"
            )
        return generations[ref.generation][ref.index]

    @property
    def train_fitness(self) -> np.ndarray:
        """Generation x slot table of train fitnesses (a read-only view).

        Entry [g, i] is generations[g][i].train_fitness; `append_generation`
        writes each row, so selection reads any archived fitness by index.
        """
        table = self._train_fitness[: len(self._generations)]
        table.flags.writeable = False
        return table

    def best_of_generation(self, generation: int) -> IndividualRef:
        """Ref of the lowest-training-error individual (first on ties)."""
        if not 0 <= generation < len(self._generations):
            raise ValueError(f"no generation {generation} in archive")
        return self._slot_refs[generation][int(np.argmin(self._train_fitness[generation]))]

    # -- creation -----------------------------------------------------

    def make_individual(self, payload: Payload) -> Individual:
        """The individual of one payload (not appended).

        A ref that does not point into the archive raises ValueError, as
        `individual` does. Semantics that are not all finite raise the
        NonFiniteSemanticsError that `evaluate([payload], [0])` reports,
        which names slot 0.
        """
        for ref in _refs(payload):
            self.individual(ref)
        (individual,), rejects = self.evaluate([payload], [0])
        if rejects:
            raise rejects[0]
        return individual

    def evaluate(self, payloads: list, slots) -> tuple:
        """(individuals, rejects) of payloads[s] for s in slots, in order.

        A reproduction (a bare IndividualRef) shares its parent's arrays and
        train fitness. The other payloads are evaluated in blocks of at most
        _BLOCK_ELEMENTS stacked values. Each block is a new array that
        stores the children it computed: a child's `semantics` is its row,
        not a copy (when a block has a rejected slot, its row of the finite
        rows). A slot whose semantics are not all finite gets None in
        `individuals` and one NonFiniteSemanticsError in `rejects` naming
        the slot, the split and the row within it; rejects are in slot
        order. The others get their train fitness, one `fitness` call per
        block. This is the archive's one way to evaluate payloads:
        `make_individual` and `from_json` raise the first reject.

        Every ref must point into the archive, as the refs of
        `tournament_select` and `from_json` do: `evaluate` indexes the
        generations without the checks of `individual`.
        """
        slots = list(slots)
        individuals = [None] * len(slots)
        fresh = []
        generations = self._generations
        for pos, slot in enumerate(slots):
            payload = payloads[slot]
            if isinstance(payload, IndividualRef):
                parent = generations[payload.generation][payload.index]
                individuals[pos] = Individual(payload, parent._held(), parent.train_fitness)
            else:
                fresh.append(pos)
        rejects = []
        n_train = self.n_train
        size = max(1, _BLOCK_ELEMENTS // len(self.inputs))
        for start in range(0, len(fresh), size):
            positions = fresh[start : start + size]
            block = self._evaluate([payloads[slots[pos]] for pos in positions], self._row)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                for i in np.flatnonzero(~finite).tolist():
                    slot = slots[positions[i]]
                    rejects.append(self._nonfinite(payloads[slot], slot, block[i]))
                positions = [pos for pos, ok in zip(positions, finite.tolist()) if ok]
                block = block[finite]
            train_fitness = self.fitness(block[:, :n_train], self.train_targets).tolist()
            for pos, row, train in zip(positions, block, train_fitness):
                individuals[pos] = Individual(payloads[slots[pos]], (row, n_train), train)
        return individuals, rejects

    def _nonfinite(self, payload, slot, values) -> NonFiniteSemanticsError:
        """The error for a slot's non-finite values, naming a train row before a test row."""
        context = f"{type(payload).__name__} payload in slot {slot}"
        try:
            check_finite(values[: self.n_train], context, split="train", slot=slot)
            check_finite(values[self.n_train :], context, split="test", slot=slot)
        except NonFiniteSemanticsError as exc:
            # Its traceback's frames hold `values`, a view of the whole block,
            # and a caller may keep the error for the rest of a run.
            return exc.with_traceback(None)

    def _evaluate(self, payloads: list, row_of) -> np.ndarray:
        """Stacked semantics of payloads, one row each, in a new block.

        row_of(ref) is the semantics row of a ref that a payload reads. A
        reproduction's row is a copy of its parent's. Each random tree is
        evaluated once into a row of a tree temporary; the trees under a
        sigmoid come first and go through one sigmoid call. Crossover mixing
        and mutation deltas are then whole-matrix operations, in the order
        child = w*p1 + (1-w)*p2 and child = base + step*(sig(a) - sig(b))
        (or base + step*a for raw mutation). The block and the temporaries
        are allocated per call and shared with nothing.
        """
        block = np.empty((len(payloads), len(self.inputs)))
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
        trees = np.empty((n_sigmoid + len(raw), len(self.inputs)))
        tree_list = (
            [c.random_tree for _, c in crossovers]
            + [m.random_tree_a for _, m in bounded]
            + [m.random_tree_b for _, m in bounded]
            + [m.random_tree_a for _, m in raw]
        )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for tree, row in zip(tree_list, trees):
                eval_tree_many(tree, self._columns, out=row)
            for row, tree in leaves:
                eval_tree_many(tree, self._columns, out=block[row])
            for row, ref in ref_bases:
                block[row] = row_of(ref)
            if n_sigmoid:
                sigmoid(trees[:n_sigmoid], out=trees[:n_sigmoid])
            if crossovers:
                w = trees[:n_cross]
                p1 = _stack([row_of(c.parent1) for _, c in crossovers])
                p2 = _stack([row_of(c.parent2) for _, c in crossovers])
                np.multiply(w, p1, out=p1)
                np.subtract(1.0, w, out=w)
                np.multiply(w, p2, out=p2)
                block[[row for row, _ in crossovers]] = np.add(p1, p2, out=p1)
            if bounded:
                delta = trees[n_cross : n_cross + n_bounded]
                np.subtract(delta, trees[n_cross + n_bounded : n_sigmoid], out=delta)
                _add_steps(block, bounded, delta)
            if raw:
                _add_steps(block, raw, trees[n_sigmoid:])
        return block

    def _row(self, ref: IndividualRef) -> np.ndarray:
        """The semantics row of an archived individual, replayed first if released."""
        individual = self._generations[ref.generation][ref.index]
        views = individual._views
        return individual.semantics if type(views) is _Released else views[0]

    def append_generation(self, individuals: list):
        """Complete the next generation: its individuals, fitness row and refs.

        The refs are made once here, `IndividualRef(g, i)` for each slot i,
        and every ref the archive hands out for the slot is that object, so
        a kept archive holds one ref per slot and a tournament makes none.
        """
        generations = self._generations
        g, n = len(generations), len(individuals)
        if not individuals:
            raise ValueError(f"generation {g} is empty")
        if generations and n != len(generations[0]):
            raise ValueError(
                f"generation {g} has {n} payloads, not the population size "
                f"{len(generations[0])}"
            )
        table = self._train_fitness
        if g == len(table):  # full: double the capacity
            grown = np.empty((max(8, 2 * g), n))
            if g:
                grown[:g] = table
            self._train_fitness = table = grown
        table[g] = [ind.train_fitness for ind in individuals]
        self._slot_refs += (tuple(map(IndividualRef, repeat(g, n), range(n))),)
        self._generations = generations + (tuple(individuals),)
        self._held.add(g)

    # -- release and replay -------------------------------------------

    def release(self, generation: int):
        """Drop a completed generation's semantics from all its individuals.

        The generation keeps its payloads and fitnesses. Its blocks are freed
        once nothing else references their rows. Reading one of its
        individuals afterwards replays that individual alone (see
        `_replay`), which then holds its row, a new array with the same
        bits, until the generation is released again.
        """
        if not 0 <= generation < len(self._generations):
            raise ValueError(f"no generation {generation} in archive")
        if generation not in self._held:
            return
        self._held.discard(generation)
        released = _Released(self, generation)
        for ind in self._generations[generation]:
            ind._views = released

    def hold_latest(self, count: int):
        """Release every held generation but the latest `count`.

        This visits only the held generations, so a run that calls it after
        each generation keeps at most `count` of them held, whatever reads
        brought back, without a scan of the history. A count below 1 raises
        ValueError: it would release the newest generation too, and the next
        generation would replay every parent it reads.
        """
        if count < 1:
            raise ValueError(f"hold_latest needs a count >= 1, not {count!r}")
        cutoff = len(self._generations) - count
        for g in [g for g in self._held if g < cutoff]:
            self.release(g)

    def _replay(self, individual: Individual, generation: int):
        """Recompute a released individual of `generation` and hold its row there.

        Its released ancestry is found by walking back over payload refs,
        stopping at every individual that holds its row. That ancestry is
        evaluated oldest generation first, each generation's share in blocks
        as `evaluate` sizes them, reading parent rows from the rows replayed
        so far; each replayed row is dropped after the last generation that
        reads it. A row that a generation beyond the next evaluated one
        reads is first copied out of its block, so no block outlives the
        next generation's evaluation. Only `individual` keeps its row, in a
        block of its own.
        """
        self.replays += 1
        generations = self._generations
        last_read = {}  # released ancestor -> the newest generation that reads it
        todo = [(generation, individual.payload)]
        while todo:
            reader, payload = todo.pop()
            for ref in _refs(payload):
                parent = generations[ref.generation][ref.index]
                if type(parent._views) is _Released:
                    if ref not in last_read:
                        todo.append((ref.generation, parent.payload))
                    last_read[ref] = max(reader, last_read.get(ref, reader))
        shares, expiring = {}, {}
        for ref in sorted(last_read):
            shares.setdefault(ref.generation, []).append(ref)
            expiring.setdefault(last_read[ref], []).append(ref)
        rows = {}

        def row_of(ref):
            row = rows.get(ref)
            return self._row(ref) if row is None else row

        size = max(1, _BLOCK_ELEMENTS // len(self.inputs))  # as `evaluate` sizes a block
        steps = [*shares, generation]
        for g, after in zip(steps, steps[1:]):
            share = shares[g]
            for start in range(0, len(share), size):
                refs = share[start : start + size]
                block = self._evaluate([generations[g][r.index].payload for r in refs], row_of)
                # A row that a later step than the next one reads is copied
                # out, so the block is freed once the next step has read it.
                rows.update(
                    (ref, row if last_read[ref] <= after else row.copy())
                    for ref, row in zip(refs, block)
                )
            for ref in expiring.pop(g, ()):
                del rows[ref]
        row = self._evaluate([individual.payload], row_of)[0]
        individual._views = (row, self.n_train)
        self._held.add(generation)

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
                        _payload_from_json(item, archive._slot_refs, split.train.n_features)
                    )
                except KeyError as exc:
                    raise ValueError(f"generation {g}, slot {i}: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"generation {g}, slot {i}: {exc}") from None
            individuals, rejects = archive.evaluate(payloads, range(len(payloads)))
            if rejects:
                raise rejects[0]
            archive.append_generation(individuals)
        return archive


def _refs(payload: Payload) -> tuple:
    """The refs whose semantics evaluating this payload reads."""
    if isinstance(payload, Mutation):
        payload = payload.base
    if isinstance(payload, IndividualRef):
        return (payload,)
    if isinstance(payload, Crossover):
        return (payload.parent1, payload.parent2)
    return ()


def _stack(rows) -> np.ndarray:
    """These rows, one per row of a new array."""
    return np.concatenate(rows).reshape(len(rows), -1)


def _add_steps(block, mutations, delta):
    """block[row] += step * delta[j] for the j-th (row, mutation) pair."""
    np.multiply(np.array([[m.step] for _, m in mutations]), delta, out=delta)
    block[[row for row, _ in mutations]] += delta


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


def _ref_from_json(obj, earlier: tuple) -> IndividualRef:
    """The ref that a `[g, i]` pair names in `earlier`, the archive's refs so far."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(type(v) is int for v in obj)):
        raise ValueError(f"ref {obj!r} is not a [generation, index] pair")
    g, i = obj
    if not 0 <= g < len(earlier):
        raise ValueError(f"ref {obj} is not to an earlier generation")
    if not 0 <= i < len(earlier[g]):
        raise ValueError(f"ref {obj} index out of range")
    return earlier[g][i]


def _payload_from_json(obj, earlier: tuple, n_features: int) -> Payload:
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
    row, the seed aborts with the diagnostic, which names the tree's slot,
    rather than clamping values.
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
            except NonFiniteSemanticsError as exc:
                failures += 1
                if regenerate is None or failures > _SLOT_RETRIES:
                    # make_individual names slot 0 of its generation of one.
                    message = str(exc).replace(" slot 0 ", f" slot {slot} ", 1)
                    raise NonFiniteSemanticsError(message, exc.split, exc.row, slot) from None
                tree = regenerate(slot)
    archive.append_generation(individuals)
    return archive
