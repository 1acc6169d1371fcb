"""One-slot packed records for tests, and checks of a generation's children against theirs.

`leaf`, `reproduction`, `crossover` and `mutation` build the one-slot
`Payloads` that `Archive.make_individual` takes, and `generation` makes a
generation's record of one-slot records. The checks read kind codes,
parent ints and `table[t]`; the engine has no other payload form.
"""

import numpy as np

from gsgp.archive import _BOUNDED, _CROSSOVER, _LEAF, _RAW, _REF, IndividualRef, Payloads
from gsgp.exprtree import Trees, eval_tree_many
from gsgp.semantics import sigmoid


def _record(kind, parents, trees, step, programs) -> Payloads:
    arrays = ((kind, np.int8), (parents, np.int32), (trees, np.int32), (step, float))
    return Payloads(*(np.array([value], dtype) for value, dtype in arrays), Trees.pack(programs))


def leaf(tree) -> Payloads:
    return _record(_LEAF, (-1, -1, -1, -1), (0, -1, -1), 0.0, [tree])


def reproduction(ref) -> Payloads:
    return _record(_REF, (*ref, -1, -1), (-1, -1, -1), 0.0, [])


def crossover(parent1, parent2, random_tree) -> Payloads:
    return _record(_CROSSOVER, (*parent1, *parent2), (0, -1, -1), 0.0, [random_tree])


def mutation(base, random_tree_a, random_tree_b, step) -> Payloads:
    """A reproduction or crossover record, mutated; random_tree_b None is the raw form."""
    n, raw = len(base.table), random_tree_b is None
    programs = [*base.table, random_tree_a] + ([] if raw else [random_tree_b])
    kind = int(base.kind[0]) + (_RAW if raw else _BOUNDED)
    trees = (int(base.trees[0, 0]), n, -1 if raw else n + 1)
    return _record(kind, base.parents[0].tolist(), trees, step, programs)


def generation(records) -> Payloads:
    """One generation's record: slot k is the one slot of records[k]."""
    packed = records[0].take([0] * len(records))
    for k, record in enumerate(records[1:], 1):
        packed = packed.put([k], record)
    return packed


def leaf_trees(packed) -> list:
    """The tree of each slot of a generation of leaves, in slot order."""
    return [packed.table[t] for t in packed.trees[:, 0].tolist()]


def holds_slots(record, packed, slots) -> bool:
    """Whether record holds the slots of packed, in this order, over packed's table."""
    names = ("kind", "parents", "trees", "step")
    same = all(getattr(record, n).tobytes() == getattr(packed, n)[slots].tobytes() for n in names)
    return same and record.table is packed.table


def ulps(*blocks, k=4):
    """k units in the last place of the largest magnitude among blocks, entry by entry."""
    return k * np.spacing(np.max(np.abs(blocks), axis=0))


def parent_rows(archive, packed, slots, first) -> np.ndarray:
    """The rows of the parents in columns first, first + 1 of packed.parents, via `Archive.row`."""
    pairs = packed.parents[slots, first : first + 2].tolist()
    return np.array([archive.row(IndividualRef(g, i)) for g, i in pairs])


def check_children(archive, packed, children, fitness, checked):
    """Check a generation's children against their parents.

    children[s] is the row of slot s of packed, the generation's record,
    and fitness[s] its train fitness. A crossover child lies between its
    parents, and a mutated one leaves their box by at most its step; a
    bounded mutation of a ref moves each entry of its base by at most its
    step. A plain crossover child's train RMSE is at most the row-wise
    worse parent's, sqrt(mean(max(e1^2, e2^2))) over the train rows,
    within 2 ulps. And every child is the row its definition gives
    (`defined_row`), within 4 ulps. Each parent is read through
    `Archive.row`. checked counts the plain crossovers, the mutations of a
    ref and the children weighed.
    """
    kind, step = packed.kind, packed.step
    mixes = np.flatnonzero(kind % _RAW == _CROSSOVER)
    moves = np.flatnonzero((kind % _RAW == _REF) & (kind >= _RAW))
    assert np.all(kind[moves] == _REF + _BOUNDED)  # the default, bounded form
    if len(mixes):
        child = children[mixes]
        p1, p2 = parent_rows(archive, packed, mixes, 0), parent_rows(archive, packed, mixes, 2)
        slack = step[mixes, None] * (1 + 1e-15) + ulps(p1, p2, child)
        assert np.all(child >= np.minimum(p1, p2) - slack)
        assert np.all(child <= np.maximum(p1, p2) + slack)
        plain = kind[mixes] == _CROSSOVER
        n, targets = archive.n_train, archive.train_targets
        e1, e2 = p1[plain, :n] - targets, p2[plain, :n] - targets
        worse = np.sqrt(np.mean(np.maximum(e1**2, e2**2), axis=1))
        assert np.all(fitness[mixes[plain]] <= worse + 2 * np.spacing(worse))
        checked["crossovers"] += int(np.count_nonzero(plain))
    if len(moves):
        child, base = children[moves], parent_rows(archive, packed, moves, 0)
        bound = step[moves, None] * (1 + 1e-15) + ulps(base, child)
        assert np.all(np.abs(child - base) <= bound)
        checked["mutations"] += len(moves)
    expected = np.array([defined_row(archive, packed, s) for s in range(len(packed))])
    assert np.all(np.abs(children - expected) <= ulps(children, expected))
    checked["weighed"] += len(packed)


def defined_row(archive, packed, s) -> np.ndarray:
    """The row that slot s's definition gives, computed for it alone.

    Its own trees are read from the table by the slot's tree ids and
    evaluated with `eval_tree_many` and `sigmoid`, and its parents' rows
    read through `Archive.row`: a crossover is w*p1 + (1-w)*p2 with w the
    sigmoid of its random tree, and a mutation adds step*(sig(a) - sig(b))
    (step*a for the raw form) to its base. So a child mixed with the wrong
    weight, the wrong parent order or the wrong step fails, though it may
    keep to its parents' box.
    """
    columns, table = archive._columns, packed.table
    kind, step = int(packed.kind[s]), float(packed.step[s])
    g1, i1, g2, i2 = packed.parents[s].tolist()
    t, a, b = packed.trees[s].tolist()

    def weight(t):
        return sigmoid(eval_tree_many(table[t], columns))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind % _RAW == _REF:
            row = archive.row(IndividualRef(g1, i1)).copy()
        elif kind % _RAW == _CROSSOVER:
            w = weight(t)
            p1, p2 = archive.row(IndividualRef(g1, i1)), archive.row(IndividualRef(g2, i2))
            row = w * p1 + (1.0 - w) * p2
        else:
            row = eval_tree_many(table[t], columns)
        if kind >= _RAW:
            delta = weight(a) - weight(b) if kind >= _BOUNDED else eval_tree_many(table[a], columns)
            row += step * delta
    return row
