"""Append-only, generation-indexed archive of every individual ever created.

An individual is stored as a payload, the record of how it was made, plus
its memoized semantics. A payload is one slot of a generation's packed
record (`Payloads`), and the slot's kind code tells which of four kinds it
is:

- leaf: a generation-0 syntax tree.
- reproduction: a bare reference to an earlier individual. The child's row
  is a copy of its parent's, in its own generation's slot, and has its
  parent's train fitness.
- crossover: two earlier individuals and the random tree that weighs them.
  The child lies entry by entry between its parents. Its train RMSE is at
  most the row-wise worse parent's, sqrt(mean(max(e1^2, e2^2))), but it is
  not bounded by the worse parent's RMSE: the weight varies from row to
  row, and in 100 x 100 runs on 200 rows 2-9% of crossovers gave a child
  worse than both parents, by up to 22%.
- mutation: a base (a reproduction, or a crossover made in the same
  breeding step) plus the random trees and step of the perturbation. A
  bounded mutation moves each entry of its base by at most its step.

A generation's record is one kind code, four parent ints (generation and
index of parent 1 or the base, then of parent 2), three tree indices and a
step per slot, in four arrays, and every random or generation-0 tree of
the generation in one `Trees` table of three arrays (node codes,
constants, ends). Breeding fills these arrays straight from its bulk draws
(`Payloads.bred`), so a kept archive holds a few arrays per generation,
about 9 KB for 100 slots, and no object per individual, per tree or per
constant that the cycle collector would track. There is no payload object:
`to_json`, `from_json`, `naive_eval` and the non-finite diagnostics read
and write the arrays and the table directly. A ref (`IndividualRef`) is
the tuple of its fields, so it equals the tuple `(g, i)`, unpacks like it
and sorts as it does, and setting a field raises AttributeError. Program
tuples exist only while their generation is evaluated or read.

The archive evaluates over one stacked input matrix, the train rows followed
by the test rows. A payload's semantics are one row over those rows,
computed once from the stored rows of its parents and the outputs of its
own random trees. Nothing is ever re-expanded, which is what makes
whole-history selection free. The train fitnesses are kept as one
generation x slot table (`Archive.train_fitness`), so tournaments and
elitism read every fitness they need with one array index, and hand out
their winners as index arrays (`Refs`).

The stacked matrix is stored column-major. A tree reads its variables as
columns, so each operator on a variable is then one unit-stride pass over
the rows, not a strided one; at 6000 rows `x_i * c` takes about 3 us on a
contiguous column against about 7 us on a strided one (2-vCPU x86-64 Xeon,
numpy 2.4). The archive prepares the matrix once as exprtree `Columns` and
evaluates every random tree and leaf against it: the column views are
built once, and a division by a variable whose column has no entry within
DIV_EPS of zero needs no guard, with the same bits (see the exprtree
module).

The window is a fixed ring. An archive holds the semantics of its latest
`hold` generations in one float64 array of shape (hold + 1, population,
train + test rows): row i of `window[g % (hold + 1)]` is the semantics of
slot i of generation g while g is held, and the one slot more is the
generation being bred. There is no per-block or per-individual storage.
Which generations are held follows from their count alone: generation g
has its row in the window exactly when g >= len(generations) - hold, so
nothing records it. Appending generation g releases generation g - hold,
whose slot is the next generation's. So the window never grows, and the
semantics a run holds grow with its horizon, not with its length. `run_evolution` holds
min(horizon, generations + 1) generations, those selection can read, and
`from_json` holds every generation it loads.

The module function `evaluate_block(payloads, programs, columns, rows_of,
out)` computes one block: the stacked semantics of packed payloads,
written into `out`. It sorts the slots by their kind codes, evaluates each
random tree once into a row of a temporary, applies one `sigmoid` to the
rows that need it, and mixes crossovers and adds mutation deltas as
matrix operations. It reads its parents' rows with one `rows_of` call per
kind, on index arrays: the reproductions and mutation bases that are refs,
then the crossover parents. The archive's `rows_of` gathers them with one
advanced index into the window, `window[g % (hold + 1), i]`; a ref of a
released generation is read through the replay path. Every entry
undergoes the same IEEE operations, in the same order, as evaluating the
payload alone would apply, so the block size never changes a result. The
archive cuts payloads into blocks of at most `_BLOCK_ELEMENTS` stacked
values in one place, `Archive._spans`.

A run evaluates each generation in place: `evaluate_next` writes each
block straight into the new generation's window slot and each train
fitness straight into its table row (selection reads no test fitness, so
none is kept), and a redraw round writes only its failed slots' rows.
`append_evaluated` then completes the generation. So a run makes no
object per individual. `make_individual` evaluates one payload, a
generation-0 program or a one-slot `Payloads`, into a row of its own and
returns an `Individual` view of it that keeps the one-slot record;
`append_generation` copies such individuals into the next generation.
`evaluate_next` reports every slot whose semantics are not finite, and
`make_individual` and `from_json` raise the first such slot's
NonFiniteSemanticsError.

The module function `ancestry(payloads, ref, stop)` walks back over the
parent index arrays, with a stack and no recursion, and returns {ref: the
newest generation that reads it} for every ref that evaluating the
individual reads, directly or through the refs it reaches, leaving out a
ref where `stop(ref)` holds and all that only it reads. Its sorted keys
are that closure in an order where each ref follows the refs it reads.

Reads. `generations[g][i]` and `individual(ref)` return an `Individual`, a
read view made on its first read. A view owns its row: a copy of the
window row, so it never shows a later generation that reused the slot, or
the row a replay computed.

A released generation keeps its payloads and fitnesses. Reading one of
its individuals' semantics (through a view, or as a parent that a block
reads) replays only the released part of its own ancestry (its
`ancestry`, stopping at every individual that has a row), oldest
generation first. A replayed row is a new array with the same bits.
Payloads and fitnesses are read without a replay, so `to_json`,
tournaments and elitism never trigger one. What a read brings back, a
view or a replayed row, is kept until the next generation is appended.

`to_json` writes schema 2, each slot straight from the arrays: each
generation is a list of payloads, where a ref (a reproduction, a parent, a
mutation base) is the pair `[g, i]` and every other payload is an object
with a "kind" of "leaf", "crossover" or "mutation". `from_json` parses each
slot straight into its array rows and the generation's table. Semantics
are not stored; `from_json` recomputes them.

An archive belongs to one thread: nothing in it is locked.
`make_individual` writes only arrays that the call allocates when the
parents it reads hold their rows.
"""

import weakref
from collections.abc import Sequence
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .data import SplitDataset
from .errors import EvalBudgetExceededError, NonFiniteSemanticsError, checked_int, finite_number
from .exprtree import (
    Columns,
    Trees,
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

# A packed slot's kind code (see `Payloads`): its base's, plus _RAW or
# _BOUNDED when the slot is a mutation of that base.
_LEAF, _REF, _CROSSOVER = 0, 1, 2
_RAW, _BOUNDED = 3, 6


class IndividualRef(NamedTuple):
    generation: int
    index: int


class Refs:
    """Refs packed as two int arrays: refs[k] is IndividualRef(generation[k], index[k]).

    `tournament_select` hands out its winners so. A Refs equals only
    itself, so it hashes.
    """

    __slots__ = ("generation", "index")

    def __init__(self, generation, index):
        self.generation, self.index = generation, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, k) -> IndividualRef:
        return IndividualRef(int(self.generation[k]), int(self.index[k]))


class Payloads:
    """The payloads of a generation's slots, packed into arrays: the one payload form.

    kind[s] (int8) is slot s's kind: _LEAF, _REF or _CROSSOVER for its base,
    plus _RAW or _BOUNDED when it mutates that base. parents[s] (int32) is
    (g1, i1, g2, i2): the generation and index of a ref base or of a
    crossover's first parent, then of its second, -1 where there is none.
    trees[s] (int32) indexes `table`, a `Trees`: the leaf's tree or the
    crossover's random tree, then a mutation's random trees a and b, -1
    where there is none. step[s] (float64) is a mutation's step, 0.0
    otherwise. A bounded mutation is base + step*(sig(a) - sig(b)), a raw
    one base + step*a. A table may also hold trees that no slot reads,
    those of a redrawn slot's rejected draws (see `put`).
    """

    __slots__ = ("kind", "parents", "trees", "step", "table")

    def __init__(self, kind, parents, trees, step, table: Trees):
        self.kind, self.parents, self.trees, self.step = kind, parents, trees, step
        self.table = table

    @classmethod
    def bred(
        cls, crossover, mutation, winners: Refs, trees: Trees, bounded: bool, step: float, elite=()
    ) -> "Payloads":
        """The payloads of slots drawn in bulk, handed out in slot order, after the elite.

        The refs of elite take the first slots, as reproductions. crossover
        and mutation are the other slots' bool coin arrays, winners their
        tournament winners and trees their random trees. A crossed slot
        takes the next two winners and the next tree, any other slot the
        next winner; a mutated slot then takes the next tree as its tree a
        and, when bounded, the one after it as its tree b, with `step`.
        """
        if elite:
            generation, index = zip(*elite)
            kept = np.zeros(len(elite), bool)
            crossover = np.concatenate([kept, crossover])
            mutation = np.concatenate([kept, mutation])
            generation = np.concatenate([generation, winners.generation])
            winners = Refs(generation, np.concatenate([index, winners.index]))
        takes = 1 + crossover
        first = np.cumsum(takes) - takes  # each slot's first winner
        crossed, mutated = np.flatnonzero(crossover), np.flatnonzero(mutation)
        parents = np.full((len(crossover), 4), -1, np.int32)
        parents[:, 0], parents[:, 1] = winners.generation[first], winners.index[first]
        second = first[crossed] + 1
        parents[crossed, 2], parents[crossed, 3] = winners.generation[second], winners.index[second]
        uses = crossover + (1 + bounded) * mutation
        start = np.cumsum(uses) - uses  # each slot's first tree
        slot_trees = np.full((len(crossover), 3), -1, np.int32)
        slot_trees[crossed, 0] = start[crossed]
        slot_trees[mutated, 1] = start[mutated] + crossover[mutated]
        if bounded:
            slot_trees[mutated, 2] = slot_trees[mutated, 1] + 1
        kind = _REF + crossover + (_BOUNDED if bounded else _RAW) * mutation
        return cls(kind.astype(np.int8), parents, slot_trees, np.where(mutation, step, 0.0), trees)

    def take(self, slots) -> "Payloads":
        """The payloads of these slots, in this order, over the same table."""
        return Payloads(
            self.kind[slots], self.parents[slots], self.trees[slots], self.step[slots], self.table
        )

    def put(self, slots, other: "Payloads") -> "Payloads":
        """These payloads with slots[k] replaced by other[k]; the table keeps the trees of both."""
        kind, parents, step = self.kind.copy(), self.parents.copy(), self.step.copy()
        kind[slots], parents[slots], step[slots] = other.kind, other.parents, other.step
        trees = self.trees.copy()
        trees[slots] = np.where(other.trees >= 0, other.trees + len(self.table), -1)
        return Payloads(kind, parents, trees, step, Trees.join([self.table, other.table]))

    def reads(self, s) -> tuple:
        """The refs whose rows evaluating slot s reads: a ref base, or both crossover parents."""
        g1, i1, g2, i2 = self.parents[s].tolist()
        if g2 >= 0:
            return (IndividualRef(g1, i1), IndividualRef(g2, i2))
        return (IndividualRef(g1, i1),) if g1 >= 0 else ()

    def __len__(self) -> int:
        return len(self.kind)


class Individual:
    """A read view of one individual: its train fitness and semantics.

    `semantics` is its row over the stacked train-then-test rows, and the
    view owns it: the row that `make_individual` computed, or, for a view
    of an archived generation, a copy of its window row or its replayed row
    (see `Archive.row`), taken on the first read of its semantics. So a
    view never shows a later generation that reused its slot: read after
    its generation was released, it replays its row. Until that read a
    view holds a weak reference to its archive, and a first read after the
    archive is gone raises RuntimeError. train_semantics and test_semantics
    are views of `semantics`, each made on its first read; later reads
    return the same object. An individual that `make_individual` returned
    also keeps its one-slot `Payloads`, for `append_generation`; a view of
    an archived generation keeps none (its generation's record holds it).
    """

    def __init__(self, train_fitness: float, n_train: int, source, record=None):
        self.train_fitness = train_fitness
        self._n_train = n_train
        self._source = source  # the row, or (weak archive ref, IndividualRef)
        self._record = record

    @cached_property
    def semantics(self) -> np.ndarray:
        if type(self._source) is not tuple:
            return self._source
        archive, ref = self._source[0](), self._source[1]
        if archive is None:
            raise RuntimeError(f"generation {ref.generation} was released and its archive is gone")
        row = archive.row(ref)
        return row.copy() if row.base is archive._window else row

    @cached_property
    def train_semantics(self) -> np.ndarray:
        return self.semantics[: self._n_train]

    @cached_property
    def test_semantics(self) -> np.ndarray:
        return self.semantics[self._n_train :]


class _Generation(Sequence):
    """The one record of a completed generation, read as a view per slot (see `Archive._view`).

    `packed` holds its payloads (see `Payloads`). It holds a weak reference
    to its archive; reading a view after the archive is gone raises
    RuntimeError, as a view's first read does.
    """

    def __init__(self, archive: weakref.ref, generation: int, packed: Payloads):
        self._archive, self.generation, self.packed = archive, generation, packed

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        archive, g = self._archive(), self.generation
        if archive is None:
            raise RuntimeError(f"generation {g} was released and its archive is gone")
        return archive._view(g, i)


class Archive:
    """All generations of one run, the latest `hold` ones' semantics in one window array.

    fitness(pred, targets) takes a 2-d block with one vector per row and
    returns one error per row, as `rmse` does. hold, an int >= 1, is the
    number of latest generations whose semantics the window holds (see
    the module docstring). `replays` counts the released individuals whose
    rows were replayed (see `row`).
    """

    def __init__(self, split: SplitDataset, fitness=rmse, *, hold: int):
        self.train_inputs = split.train.inputs
        self.test_inputs = split.test.inputs
        self.train_targets = split.train.targets
        self.test_targets = split.test.targets
        self.inputs = np.asfortranarray(np.concatenate([self.train_inputs, self.test_inputs]))
        self._columns = Columns(self.inputs)
        self.n_train = split.train.rows
        self.fitness = fitness
        self._hold = checked_int("hold", hold, 1)
        self._generations = ()
        # Made for generation 0: the window, and the fitness table, whose row
        # g holds generation g's train fitnesses (rows past the next are spare).
        self._window = self._train_fitness = None
        # Emptied when a generation is appended: ref: row of a released
        # individual (see `row`), and ref: view (see `_view`).
        self._replayed, self._views = {}, {}
        self._weak = weakref.ref(self)
        self.replays = 0

    # -- addressing ---------------------------------------------------

    @property
    def generations(self) -> tuple:
        """The completed generations: a tuple with one read-only sequence of views each.

        Only `append_evaluated` extends it, so every generation has its row
        in the fitness table. generations[g][i] is slot i's view (see
        `Individual`) and generations[g].packed the generation's packed
        payloads.
        """
        return self._generations

    def individual(self, ref: IndividualRef) -> Individual:
        g, i = ref
        if not 0 <= g < len(self._generations):
            raise ValueError(f"no generation {g} in archive")
        if not 0 <= i < len(self._generations[g]):
            raise ValueError(f"index {i} out of range in generation {g}")
        return self._generations[g][i]

    @property
    def train_fitness(self) -> np.ndarray:
        """Generation x slot table of train fitnesses (a read-only view).

        Entry [g, i] is generations[g][i].train_fitness; each generation's
        evaluation writes its row, so selection reads any archived fitness
        by index.
        """
        table = self._train_fitness[: len(self._generations)]
        table.flags.writeable = False
        return table

    def best_of_generation(self, generation: int) -> IndividualRef:
        """Ref of the lowest-training-error individual (first on ties)."""
        if not 0 <= generation < len(self._generations):
            raise ValueError(f"no generation {generation} in archive")
        return IndividualRef(generation, int(np.argmin(self._train_fitness[generation])))

    def row(self, ref: IndividualRef) -> np.ndarray:
        """The semantics row of an archived individual.

        While its generation g is held, that is while g >= len(generations)
        - hold, this is a view of its window row, which the slot's next
        generation overwrites. Once it is released, it is the row the
        archive replayed for it (see `_replay`) on its first read, kept until
        the next generation is appended. The ref must point into the archive.
        """
        g, i = ref
        if g >= len(self._generations) - self._hold:
            return self._window[g % len(self._window), i]
        if ref not in self._replayed:
            self._replayed[ref] = self._replay(ref)
        return self._replayed[ref]

    def _view(self, g: int, i: int) -> Individual:
        """The view of slot i of generation g (see `Individual`), made on its first read.

        It is kept until the next generation is appended, so until then
        each read returns the same object.
        """
        ref = IndividualRef(g, i)
        if ref not in self._views:
            fitness = float(self._train_fitness[g, i])
            self._views[ref] = Individual(fitness, self.n_train, (self._weak, ref))
        return self._views[ref]

    # -- creation -----------------------------------------------------

    def make_individual(self, payload) -> Individual:
        """The individual of one payload (not appended), a view of a row of its own.

        The payload is a program (a plain tuple), a generation-0 leaf, or a
        one-slot `Payloads`; it is evaluated as `evaluate_next` evaluates a
        slot. Anything else, a bare ref among them, raises TypeError. A ref
        that does not point into the archive raises ValueError, as
        `individual` does. Semantics that are not all finite raise the
        NonFiniteSemanticsError that names slot 0, the split and the row
        within it.
        """
        if isinstance(payload, Payloads):
            record, programs = payload, list(payload.table)
        elif type(payload) is not tuple:
            raise TypeError(f"{payload!r} is neither a program nor a one-slot Payloads")
        else:
            programs, kind = [payload], np.zeros(1, np.int8)  # a leaf, _LEAF
            parents, trees = np.full((1, 4), -1, np.int32), np.array([[0, -1, -1]], np.int32)
            record = Payloads(kind, parents, trees, np.zeros(1), Trees.pack(programs))
        for ref in record.reads(0):
            self.individual(ref)
        row, fitness = np.empty((1, self._columns.rows)), np.empty(1)
        rejects = self._evaluate(record, [0], row, fitness, programs)
        if rejects:
            raise rejects[0]
        return Individual(float(fitness[0]), self.n_train, row[0], record)

    def evaluate_next(self, payloads: Payloads, slots) -> list:
        """Evaluate payloads[s] for s in slots into slot s of the next generation; the rejects.

        payloads is the whole next generation, packed, and slots the ones
        to evaluate now: first all of them, then each redraw round's. Each
        row goes straight into the generation's window slot and each train
        fitness into its table row. A reproduction (a bare ref) gets a copy
        of its parent's row and, from its block's `fitness` call, its
        parent's train fitness bit for bit. Each slot whose semantics are
        not all finite gets one NonFiniteSemanticsError in the rejects, in
        slot order, naming the slot, the split and the row within it; its
        row holds its non-finite values until it is evaluated again.
        `append_evaluated` completes the generation. A generation that is
        empty or not of the population size raises ValueError.

        Every ref must point into the archive, as the winners of
        `tournament_select` and the refs of `from_json` do: the window is
        indexed without the checks of `individual`.
        """
        return self._evaluate(payloads, list(slots), *self._next(len(payloads)))

    def _evaluate(self, payloads: Payloads, slots: list, rows, fitness, programs=None) -> list:
        """Evaluate payloads[s] into rows[s] and its train fitness into fitness[s]; the rejects.

        programs are the programs of the payloads' table, built from it once
        for every block when None. A block of
        consecutive slots is evaluated straight into their rows, any other
        block into a new array whose rows are then copied into theirs. Per
        block, finiteness is checked once and the train fitness computed
        with one `fitness` call, row by row (a rejected slot's is not
        finite, and is overwritten when it is evaluated again).
        """
        rejects = []
        programs = list(payloads.table) if programs is None else programs
        for span in self._spans(slots):
            start, size = span[0], len(span)
            direct = span == list(range(start, start + size))
            block = rows[start : start + size] if direct else np.empty((size, rows.shape[1]))
            part = payloads if direct and size == len(payloads) else payloads.take(span)
            evaluate_block(part, programs, self._columns, self._gather, block)
            if not direct:
                rows[span] = block
            for k in np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist():
                rejects.append(self._nonfinite(int(payloads.kind[span[k]]), span[k], block[k]))
            fitness[span] = self.fitness(block[:, : self.n_train], self.train_targets)
        return rejects

    def _spans(self, keys: list) -> list:
        """keys cut into consecutive runs whose blocks hold at most _BLOCK_ELEMENTS values.

        This is the one place that sizes blocks, for `_evaluate` and
        `_replay` alike.
        """
        size = max(1, _BLOCK_ELEMENTS // self._columns.rows)
        return [keys[k : k + size] for k in range(0, len(keys), size)]

    def _gather(self, g, i) -> np.ndarray:
        """The rows of the refs (g[k], i[k]), one per row of a new array.

        One advanced index reads them from the window; a ref whose
        generation the window no longer holds is then read through `row`.
        """
        rows = self._window[g % len(self._window), i]
        for k in np.flatnonzero(g < len(self._generations) - self._hold).tolist():
            rows[k] = self.row(IndividualRef(int(g[k]), int(i[k])))
        return rows

    def _nonfinite(self, kind, slot, values) -> NonFiniteSemanticsError:
        """The error for a slot's non-finite values, naming a train row before a test row.

        kind is the slot's kind code, named as the payload kind it codes.
        """
        name = ("Leaf", "IndividualRef", "Crossover")[kind] if kind < _RAW else "Mutation"
        context = f"{name} payload in slot {slot}"
        try:
            check_finite(values[: self.n_train], context, split="train", slot=slot)
            check_finite(values[self.n_train :], context, split="test", slot=slot)
        except NonFiniteSemanticsError as exc:
            # Its traceback's frames hold `values`, a view of the window or
            # of a block, and a caller may keep the error for the rest of a run.
            return exc.with_traceback(None)

    def _next(self, n: int) -> tuple:
        """(rows, fitness): the next generation's window slot and fitness table row.

        A generation of n = 0 slots, or not of the population size, raises
        ValueError. The window and the table are made for generation 0,
        and the table doubles when it is full.
        """
        g = len(self._generations)
        if not n:
            raise ValueError(f"generation {g} is empty")
        if self._window is None:
            self._window = np.empty((self._hold + 1, n, self._columns.rows))
            self._train_fitness = np.empty((8, n))
        elif n != len(self._window[0]):
            size = len(self._window[0])
            raise ValueError(f"generation {g} has {n} payloads, not the population size {size}")
        if g == len(self._train_fitness):  # full: double the table
            self._train_fitness = np.concatenate([self._train_fitness, np.empty((g, n))])
        return self._window[g % len(self._window)], self._train_fitness[g]

    def append_evaluated(self, payloads: Payloads):
        """Complete the next generation from its packed payloads, its rows and fitnesses in place.

        `evaluate_next` puts them there, and the generation's record keeps
        the packed payloads as they are. Appending generation g releases
        generation g - hold (see `row`), whose slot is the next generation's,
        and drops every view and replayed row that reads brought back.
        """
        self._next(len(payloads))
        self._replayed, self._views = {}, {}
        self._generations += (_Generation(self._weak, len(self._generations), payloads),)

    def append_generation(self, individuals: list):
        """Complete the next generation from individuals that `make_individual` returned.

        Each one's row and train fitness are copied into the generation's
        window slot and table row, and their one-slot records are joined
        into the generation's record, over one table. A generation that is
        empty or not of the population size raises ValueError, and a read
        view, which keeps no record, TypeError.
        """
        rows, fitness = self._next(len(individuals))
        records = [individual._record for individual in individuals]
        if None in records:
            raise TypeError("append_generation takes only individuals that make_individual made")
        for row, individual in zip(rows, individuals):
            row[:] = individual.semantics
        fitness[:] = [individual.train_fitness for individual in individuals]
        kind, parents, trees, step = (
            np.concatenate([getattr(record, name) for record in records])
            for name in ("kind", "parents", "trees", "step")
        )
        starts = np.cumsum([0] + [len(record.table) for record in records[:-1]], dtype=np.int32)
        trees = np.where(trees >= 0, trees + starts[:, None], -1)
        table = Trees.join([record.table for record in records])
        self.append_evaluated(Payloads(kind, parents, trees, step, table))

    # -- replay -----------------------------------------------------

    def _replay(self, ref: IndividualRef) -> np.ndarray:
        """Recompute the row of a released individual, a new array with the same bits.

        Its released ancestry is its `ancestry`, stopping at every
        individual that has a row (held in the window, or replayed before).
        That ancestry is evaluated oldest generation first, each
        generation's share in the blocks of `_spans`, reading parent rows
        from the rows replayed so far; each replayed row is dropped after the
        last generation that reads it. A row that a generation beyond the
        next evaluated one reads is first copied out of its block, so no
        block outlives the next generation's evaluation. Only the returned
        row, in a block of its own, outlives the call.
        """
        self.replays += 1
        payloads = [generation.packed for generation in self._generations]
        first_held, replayed = len(payloads) - self._hold, self._replayed

        def has_row(r):
            return r[0] >= first_held or r in replayed

        last_read = ancestry(payloads, ref, has_row)
        shares, expiring = {}, {}
        for r in sorted(last_read):
            shares.setdefault(r.generation, []).append(r.index)
            expiring.setdefault(last_read[r], []).append(r)
        rows = {}

        def rows_of(g, i):
            refs = map(IndividualRef, g.tolist(), i.tolist())
            return np.array([rows[r] if r in rows else self.row(r) for r in refs])

        steps = [*shares, ref[0]]
        for g, after in zip(steps, steps[1:]):
            programs = list(payloads[g].table)
            for span in self._spans(shares[g]):
                block = evaluate_block(payloads[g].take(span), programs, self._columns, rows_of)
                # A row that a later step than the next one reads is copied
                # out, so the block is freed once the next step has read it.
                for r, row in zip(map(IndividualRef, repeat(g), span), block):
                    rows[r] = row if last_read[r] <= after else row.copy()
            for r in expiring.pop(g, ()):
                del rows[r]
        g, i = ref
        programs = list(payloads[g].table)
        return evaluate_block(payloads[g].take([i]), programs, self._columns, rows_of)[0]

    # -- oracle -------------------------------------------------------

    def naive_eval(self, ref: IndividualRef, x, max_expansions: int = 1_000_000) -> float:
        """Evaluate an individual by full recursive expansion on one row.

        Never touches memoized semantics: it recurses over the kind codes
        and parent ints of the packed records and evaluates each tree of
        their tables on the row. Its cost is exponential in the generation
        count, so this is a testing oracle for tiny archives only.
        Exceeding max_expansions payload visits raises instead of hanging.
        A ref that does not point into the archive raises ValueError, as
        `individual` does.
        """
        self.individual(ref)
        budget = [max_expansions]

        def value(g, i):
            budget[0] -= 1
            if budget[0] < 0:
                raise EvalBudgetExceededError(
                    f"naive_eval exceeded {max_expansions} payload expansions; "
                    "archive too large for the oracle"
                )
            packed = self._generations[g].packed
            kind, step = int(packed.kind[i]), float(packed.step[i])
            g1, i1, g2, i2 = packed.parents[i].tolist()
            tree, a, b = (packed.table[t] if t >= 0 else None for t in packed.trees[i].tolist())
            if kind % _RAW == _LEAF:
                v = eval_tree(tree, x)
            elif kind % _RAW == _REF:
                v = value(g1, i1)
            else:
                w = sigmoid(eval_tree(tree, x))
                v = w * value(g1, i1) + (1.0 - w) * value(g2, i2)
            if kind >= _BOUNDED:
                return v + step * (sigmoid(eval_tree(a, x)) - sigmoid(eval_tree(b, x)))
            return v + step * eval_tree(a, x) if kind >= _RAW else v

        return value(*ref)

    # -- accounting ---------------------------------------------------

    def record_count(self) -> int:
        """Stored individual records: population size x generation count."""
        return sum(len(g) for g in self._generations)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """JSON form of the structure (schema 2); semantics are recomputed on load."""
        return {
            "schema_version": SCHEMA_VERSION,
            "generations": [_generation_to_json(gen.packed) for gen in self._generations],
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
        archive = cls(split, hold=max(1, len(generations)))
        n_features = split.train.n_features
        for g, gen in enumerate(generations):
            if not isinstance(gen, list):
                raise ValueError(f"generation {g} is not a list of payloads")
            columns, programs = ([], [], [], []), []
            for i, item in enumerate(gen):
                try:
                    slot = _slot_from_json(item, archive.generations, n_features, programs)
                except KeyError as exc:
                    raise ValueError(f"generation {g}, slot {i}: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"generation {g}, slot {i}: {exc}") from None
                for column, value in zip(columns, slot):
                    column.append(value)
            kind, parents, trees, step = columns
            packed = Payloads(
                np.array(kind, np.int8),
                np.array(parents, np.int32).reshape(-1, 4),
                np.array(trees, np.int32).reshape(-1, 3),
                np.array(step, float),
                Trees.pack(programs),
            )
            rejects = archive.evaluate_next(packed, range(len(packed)))
            if rejects:
                raise rejects[0]
            archive.append_evaluated(packed)
        return archive


def evaluate_block(payloads: Payloads, programs, columns: Columns, rows_of, out=None) -> np.ndarray:
    """Stacked semantics of packed payloads, one row each, written into out and returned.

    programs[t] is tree t of the payloads' table as a program (the list of
    the table, built once for all the blocks of a generation). out is a 2-d
    array with a row per payload, a new block when None. rows_of(g, i)
    returns the semantics rows of the refs (g[k], i[k]) for two int arrays,
    one per row of a new array; it is called once for the reproductions and
    mutation bases that are refs, then once for the crossover parents, all
    first parents before all second ones. The slots are grouped by their
    kind codes. A reproduction's row is a copy of its parent's. Each random
    tree is evaluated once into a row of a tree temporary; the trees under
    a sigmoid come first and go through one sigmoid call. Crossover mixing
    and mutation deltas are then whole-matrix operations, in the order
    child = w*p1 + (1-w)*p2 and child = base + step*(sig(a) - sig(b))
    (or base + step*a for raw mutation).
    """
    block = np.empty((len(payloads), columns.rows)) if out is None else out
    parents, trees = payloads.parents, payloads.trees.tolist()
    of_kind = [[] for _ in range(_BOUNDED + _RAW)]  # the slots of each kind code
    for s, kind in enumerate(payloads.kind.tolist()):
        of_kind[kind].append(s)
    leaves, refs, crossovers = (
        of_kind[base] + of_kind[base + _RAW] + of_kind[base + _BOUNDED]
        for base in (_LEAF, _REF, _CROSSOVER)
    )
    raw, bounded = sum(of_kind[_RAW:_BOUNDED], []), sum(of_kind[_BOUNDED:], [])
    n_cross, n_bounded = len(crossovers), len(bounded)
    n_sigmoid = n_cross + 2 * n_bounded
    tree_ids = (
        [trees[s][0] for s in crossovers]
        + [trees[s][1] for s in bounded]
        + [trees[s][2] for s in bounded]
        + [trees[s][1] for s in raw]
    )
    values = np.empty((len(tree_ids), columns.rows))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, row in zip(tree_ids, values):
            eval_tree_many(programs[t], columns, out=row)
        for s in leaves:
            eval_tree_many(programs[trees[s][0]], columns, out=block[s])
        if refs:
            block[refs] = rows_of(parents[refs, 0], parents[refs, 1])
        if n_sigmoid:
            sigmoid(values[:n_sigmoid], out=values[:n_sigmoid])
        if n_cross:
            w = values[:n_cross]
            g1, i1, g2, i2 = parents[crossovers].T
            rows = rows_of(np.concatenate([g1, g2]), np.concatenate([i1, i2]))
            p1, p2 = rows[:n_cross], rows[n_cross:]
            np.multiply(w, p1, out=p1)
            np.subtract(1.0, w, out=w)
            np.multiply(w, p2, out=p2)
            block[crossovers] = np.add(p1, p2, out=p1)
        if n_bounded:
            delta = values[n_cross : n_cross + n_bounded]
            np.subtract(delta, values[n_cross + n_bounded : n_sigmoid], out=delta)
            _add_steps(block, bounded, payloads.step, delta)
        if raw:
            _add_steps(block, raw, payloads.step, values[n_sigmoid:])
    return block


def ancestry(payloads, ref: IndividualRef, stop) -> dict:
    """{ref: the newest generation that reads it} over the ancestry of an archived individual.

    payloads[g] is the `Payloads` of generation g, and ref names one of
    their slots. The ancestry is every ref that evaluating its payload
    reads, directly or through the payloads of refs already in it. The walk
    keeps a stack, not recursion, and does not pass a ref where stop(ref)
    holds: that ref and what only it reads are left out. Sorted, the keys
    (IndividualRefs) are the closure oldest generation first, an order in
    which every ref comes after the refs it reads. A leaf's slot gives {}.
    """
    last_read = {}
    todo = [ref]
    while todo:
        reader, i = todo.pop()
        for read in payloads[reader].reads(i):
            if read in last_read:
                last_read[read] = max(reader, last_read[read])
            elif not stop(read):
                last_read[read] = reader
                todo.append(read)
    return last_read


def _add_steps(block, rows, step, delta):
    """block[rows[j]] += step[rows[j]] * delta[j] for each j."""
    np.multiply(step[rows, None], delta, out=delta)
    block[rows] += delta


def _generation_to_json(packed: Payloads) -> list:
    """Each slot's payload in schema 2: a ref as its [g, i] pair, any other as an object.

    The object holds the kind, then the fields in order: a leaf's tree; a
    crossover's parent1, parent2 and random_tree; a mutation's base (the
    pair, or the crossover's object), random_tree_a, random_tree_b (None
    in the raw form) and step. A tree is written by `tree_to_json`.
    """
    programs, payloads = list(packed.table), []
    slots = zip(*(getattr(packed, name).tolist() for name in ("kind", "parents", "trees", "step")))
    for kind, (g1, i1, g2, i2), (t, a, b), step in slots:
        if kind % _RAW == _LEAF:
            obj = {"kind": "leaf", "tree": tree_to_json(programs[t])}
        elif kind % _RAW == _REF:
            obj = [g1, i1]
        else:
            obj = {"kind": "crossover", "parent1": [g1, i1], "parent2": [g2, i2],
                   "random_tree": tree_to_json(programs[t])}
        if kind >= _RAW:
            obj = {"kind": "mutation", "base": obj, "random_tree_a": tree_to_json(programs[a]),
                   "random_tree_b": tree_to_json(programs[b]) if kind >= _BOUNDED else None,
                   "step": step}
        payloads.append(obj)
    return payloads


def _ref_from_json(obj, earlier: tuple) -> IndividualRef:
    """The ref that a `[g, i]` pair names in `earlier`, the archive's generations so far."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(type(v) is int for v in obj)):
        raise ValueError(f"ref {obj!r} is not a [generation, index] pair")
    g, i = obj
    if not 0 <= g < len(earlier):
        raise ValueError(f"ref {obj} is not to an earlier generation")
    if not 0 <= i < len(earlier[g]):
        raise ValueError(f"ref {obj} index out of range")
    return IndividualRef(g, i)


def _slot_from_json(obj, earlier: tuple, n_features: int, programs: list) -> tuple:
    """(kind code, parents, trees, step) of a slot's schema-2 payload; its trees go to programs.

    earlier is the archive's generations so far. A tree is parsed by
    `tree_from_json` and appended to programs, the generation's trees so
    far; the slot's trees are their indices there.
    """

    def tree(obj) -> int:
        programs.append(tree_from_json(obj, n_features))
        return len(programs) - 1

    if isinstance(obj, list):
        return _REF, (*_ref_from_json(obj, earlier), -1, -1), (-1, -1, -1), 0.0
    kind = obj["kind"]
    if kind == "leaf":
        return _LEAF, (-1, -1, -1, -1), (tree(obj["tree"]), -1, -1), 0.0
    if kind == "crossover":
        first, second = (_ref_from_json(obj[key], earlier) for key in ("parent1", "parent2"))
        parents = (*first, *second)
        return _CROSSOVER, parents, (tree(obj["random_tree"]), -1, -1), 0.0
    if kind == "mutation":
        # The base is told by its form before it is parsed, so a payload is
        # parsed at most two levels deep however deeply its base nests.
        base = obj["base"]
        crossover = isinstance(base, dict) and base.get("kind") == "crossover"
        if not (isinstance(base, list) or crossover):
            raise ValueError("mutation base is neither a ref nor a crossover")
        code, parents, (t, _, _), _ = _slot_from_json(base, earlier, n_features, programs)
        rb = obj["random_tree_b"]
        step = obj["step"]
        if not (finite_number(step) and step >= 0):
            raise ValueError(f"mutation step {step!r} is not a finite number >= 0")
        a = tree(obj["random_tree_a"])
        code += _RAW if rb is None else _BOUNDED
        return code, parents, (t, a, -1 if rb is None else tree(rb)), float(step)
    raise ValueError(f"unknown payload kind {kind!r}")
