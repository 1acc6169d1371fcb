"""Syntax trees for generation-0 individuals and operator random trees.

Trees are immutable and are never modified after creation; all later
variation happens in semantic space (see the archive module). The function
set is {+, -, *, protected /} over variables and ephemeral constants.

Every tree the engine evaluates is a program: a plain tuple of the tree's
nodes in postfix order (the left subtree, then the right subtree, then the
node itself). A float is a constant, an int the index of a variable, and a
str one of OP_KINDS, applied to the values of the two subtrees before it.
`Program` is only a name for `tuple` in annotations. One stack loop
evaluates a program, over the rows of an input matrix (`eval_tree_many`)
or over one row (`eval_tree`). `Constant(v)`, `Variable(i)` and
`BinaryOp(kind, left, right)` write a program by hand, checked as it is
built.

Many trees are kept as a `Trees` table: every program's nodes packed into
one array of small int codes, its constants into one float64 array, and
the end of each program into a third. A table builds its programs on
demand, equal to the ones it was packed from, so a kept table costs three
arrays, not an object per tree or per constant, and nothing the cycle
collector tracks.

Protected division yields 1.0 where the divisor is not above DIV_EPS in
magnitude. `eval_tree_many` reads its matrix as `Columns`, which the caller
prepares once per matrix and passes to every call: its column views are
built once, and each column is marked safe when every entry is above
DIV_EPS in magnitude. A division whose divisor is a lone variable leaf on a
safe column then divides with no guard. The guard would pass on every row
of such a column, so the quotient has the same bits. Every other division
keeps the guard.

Random trees are drawn in bulk (RNG stream 2). `gen_tree` returns them as
one `Trees` table. It lays every tree it draws out on a heap of depth
max_depth, where node j sits at depth floor(log2(j + 1)) and has children
2j + 1 and 2j + 2, and makes five array draws over all the trees at once,
in this order:

1. grow-stop uniforms, one per internal node (`rng.random`);
2. operators, one per internal node (`rng.integers(len(OP_KINDS))`);
3. constant flags, one per node (`rng.random`);
4. constant values, one per node (`rng.uniform(*CONSTANT_RANGE)`);
5. variable indices, one per node (`rng.integers(n_features)`).

A tree is the live part of its heap: the root, and both children of every
live node that is an operator. The draws of dead nodes are consumed unread.
A tree's nodes are its live nodes in the postorder of the heap. The heap's
postorder, node depths and ancestors are worked out once per max_depth, on
the first `gen_tree` call for that depth.

`gen_tree` and `ramp_schedule` take plain ints and check none of them:
their callers guarantee the slots and the depths. `EvolutionConfig` bounds
max_initial_depth, the depth of every generated tree, by MAX_TREE_DEPTH,
and a `Dataset` has at least one feature. MAX_TREE_DEPTH also bounds the
trees that are written by hand and the trees `tree_from_json` accepts.
"""

import functools
import operator
import sys
from itertools import accumulate

import numpy as np

from .errors import finite_number

OP_KINDS = ("add", "sub", "mul", "div")

# Protected division: a denominator that is not above DIV_EPS in magnitude
# (NaN included) yields 1.0.
DIV_EPS = 1e-9

# Deepest tree (root at depth 0) that is generated, built or parsed. A
# heap of this depth has 2^(MAX_TREE_DEPTH+1) - 1 nodes per tree.
MAX_TREE_DEPTH = 10


# A tree as its nodes in postfix order (see the module docstring). Any
# tuple is a program to the evaluator; `gen_tree`, `tree_from_json` and the
# `Constant`, `Variable` and `BinaryOp` constructors make only well-formed
# ones, whose every variable index is a non-negative int.
Program = tuple


class Constant:
    """`Constant(v)` is the program of the constant float(v)."""

    def __new__(cls, value) -> Program:
        return (float(value),)


class Variable:
    """`Variable(i)` is the program that reads input column i, an index >= 0.

    A bool is refused, as `tree_from_json` refuses it, although Python
    counts it as an integer. Whether the input has column i is checked when
    the program is run.
    """

    def __new__(cls, index) -> Program:
        if isinstance(index, bool):
            raise ValueError(f"variable index {index!r} is a bool, not a feature index")
        index = operator.index(index)
        if index < 0:
            raise ValueError(f"variable index {index} is negative")
        return (index,)


class BinaryOp:
    """`BinaryOp(kind, left, right)` is the program of `kind` applied to two programs.

    A kind not in OP_KINDS, or a result deeper than MAX_TREE_DEPTH, raises
    ValueError. An operand that is not a well-formed program raises
    TypeError: one that is not a tuple, or a tuple with a node that is not
    an OP_KINDS str, a non-bool int >= 0 or a float, or whose operators do
    not each find two operands and leave one value.
    """

    def __new__(cls, kind, left, right) -> Program:
        if kind not in OP_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if max(_depth(left), _depth(right)) >= MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        # The OP_KINDS str itself: _run tells an operator by `type(node) is str`.
        kind = OP_KINDS[OP_KINDS.index(kind)]
        return left + right + (kind,)


def _depth(program) -> int:
    """The depth of a program's tree (a lone leaf has depth 0); TypeError if malformed."""
    depths = []
    if type(program) is tuple:
        for node in program:
            kind = type(node)
            if kind is str and node in OP_KINDS and len(depths) >= 2:
                right = depths.pop()
                depths[-1] = max(depths[-1], right) + 1
            elif kind is float or (kind is int and node >= 0):
                depths.append(0)
            else:
                break
        else:
            if len(depths) == 1:
                return depths[0]
    raise TypeError(f"{program!r} is not a tree")


# Terminals are ephemeral constants, drawn uniformly from CONSTANT_RANGE,
# with probability P_CONSTANT, and variables otherwise. The grow method
# stops early at a node above its depth limit with probability
# P_GROW_TERMINAL.
CONSTANT_RANGE = (-1.0, 1.0)
P_CONSTANT = 0.3
P_GROW_TERMINAL = 0.3


def gen_tree(max_depth: int, n_features: int, slots, rng: np.random.Generator) -> "Trees":
    """One random tree per (depth, method) slot, from five bulk draws, as a `Trees` table.

    max_depth (root at depth 0: a lone leaf has depth 0) is the depth of
    the heap every tree is drawn on, so it fixes the shapes of the draws
    (see the module docstring for their order); variables index the
    features 0..n_features-1. The caller guarantees that max_depth is an
    int in [0, MAX_TREE_DEPTH], n_features an int >= 1, and each slot an
    int depth in [0, max_depth] with the method "grow" or "full"; none of
    this is checked here. A heap node above the slot's depth is an
    operator, except that under the grow method its grow-stop uniform makes
    it a terminal with probability P_GROW_TERMINAL; a node at the slot's
    depth is a terminal. So full puts every leaf at exactly the slot's
    depth, and depth 0 gives a single terminal. A terminal is a constant
    with probability P_CONSTANT and a variable otherwise.

    The heap's layout comes from `_heap_plan(max_depth)`, built on the
    first call for that depth. A node is live when all its ancestors are
    operators: one gather of the operator flags by the plan's ancestor
    columns. Each later draw keeps the shape of the whole heap and is cut
    to the live nodes that read it with one flat `take`, and the cuts are
    the table's arrays.
    """
    depths = np.array([depth for depth, _ in slots], dtype=int)
    grow = np.array([method == "grow" for _, method in slots], dtype=bool)
    n = len(depths)
    internal, nodes, node_depth, postorder, ancestors = _heap_plan(max_depth)
    # is_op[t, j] for every heap node j, plus a last column that is always
    # True: the ancestor columns of a node shallower than max_depth pad
    # with it.
    is_op = np.zeros((n, nodes + 1), dtype=bool)
    is_op[:, nodes] = True
    ops_part = is_op[:, :internal]
    np.less(node_depth[:internal], depths[:, None], out=ops_part)
    stop = rng.random((n, internal)) < P_GROW_TERMINAL
    stop &= grow[:, None]
    ops_part &= ~stop
    # live[t, p]: the node at postorder position p of tree t is live.
    live = is_op[:, ancestors].all(axis=2)
    rows, positions = np.nonzero(live)
    cols = postorder[positions]
    heap = rows * nodes + cols  # flat index of each live node in an (n, nodes) draw
    branch = is_op.take(heap + rows)  # the same node in the (n, nodes + 1) flags
    leaf = ~branch
    ops = rng.integers(len(OP_KINDS), size=(n, internal)).take((rows * internal + cols)[branch])
    leaf_heap = heap[leaf]
    constant = rng.random((n, nodes)).take(leaf_heap) < P_CONSTANT
    values = rng.uniform(*CONSTANT_RANGE, size=(n, nodes)).take(leaf_heap[constant])
    variables = rng.integers(n_features, size=(n, nodes)).take(leaf_heap[~constant])

    codes = np.empty(len(rows), dtype=_code_type(n_features - 1))
    codes[branch] = _CONSTANT - 1 - ops
    leaves = np.flatnonzero(leaf)
    codes[leaves[constant]] = _CONSTANT
    codes[leaves[~constant]] = variables
    return Trees(codes, values, np.cumsum(np.count_nonzero(live, axis=1), dtype=np.int32))


# A packed node (see `Trees`): a variable is its index, a constant
# _CONSTANT, and operator OP_KINDS[k] is _CONSTANT - 1 - k.
_CONSTANT = -1
_OP_CODES = {kind: _CONSTANT - 1 - k for k, kind in enumerate(OP_KINDS)}


def _code_type(top: int) -> np.dtype:
    """The smallest signed int type of the codes of variables up to index top (and operators)."""
    return np.min_scalar_type(-1 - max(top, 0))


class Trees:
    """Programs packed into three arrays; trees[t] is program t, built on each read.

    codes holds the nodes of every program, one program after another, as
    small ints: a variable is its index (>= 0), a constant _CONSTANT (-1)
    and operator OP_KINDS[k] -2 - k. constants holds the constants, in node
    order, and ends[t] is the end of program t's nodes in codes. Reading a
    tree or iterating the table builds plain program tuples, equal to
    the ones the table was packed from (for the programs that `gen_tree`,
    `tree_from_json` and the constructors make, node by node and type by
    type); the table keeps none of them.
    """

    __slots__ = ("codes", "constants", "ends")

    def __init__(self, codes, constants, ends):
        self.codes, self.constants, self.ends = codes, constants, ends

    @classmethod
    def pack(cls, programs) -> "Trees":
        """The table of a sequence of well-formed programs."""
        flat = [node for program in programs for node in program]
        codes = [
            _OP_CODES[node] if type(node) is str else node if type(node) is int else _CONSTANT
            for node in flat
        ]
        constants = [node for node, code in zip(flat, codes) if code == _CONSTANT]
        ends = np.array([*accumulate(map(len, programs))], np.int32)
        codes = np.array(codes, _code_type(max(codes, default=0)))
        return cls(codes, np.array(constants, float), ends)

    @classmethod
    def join(cls, tables) -> "Trees":
        """One table of the trees of tables, in order."""
        starts = np.cumsum([0] + [len(t.codes) for t in tables[:-1]]).tolist()
        return cls(
            np.concatenate([t.codes for t in tables]),
            np.concatenate([t.constants for t in tables]),
            np.concatenate([t.ends + start for t, start in zip(tables, starts)]),
        )

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, t: int) -> Program:
        t = range(len(self))[t]
        return self._programs(t, t + 1)[0]

    def __iter__(self):
        return iter(self._programs(0, len(self)))

    def _programs(self, first: int, last: int) -> list:
        """The programs of trees first..last - 1."""
        if first == last:
            return []
        start = int(self.ends[first - 1]) if first else 0
        ends = self.ends[first:last].tolist()
        codes = self.codes[start : ends[-1]]
        nodes = _node_objects(int(codes.max(initial=0))).take(codes)
        constant = codes == _CONSTANT
        skipped = np.count_nonzero(self.codes[:start] == _CONSTANT) if start else 0
        nodes[constant] = self.constants[skipped : skipped + np.count_nonzero(constant)]
        flat = nodes.tolist()
        return [tuple(flat[a - start : b - start]) for a, b in zip([start] + ends[:-1], ends)]


@functools.cache
def _node_objects(top: int) -> np.ndarray:
    """The node object of each code up to top, a negative code counted from the end.

    Entry c is the Python int c, a variable index, for c in 0..top; entry
    -2 - k is OP_KINDS[k] itself, and entry _CONSTANT (-1) is None, the
    place of a constant. So `take` of a table's codes gives its nodes, but
    for the constants.
    """
    return np.array([*range(top + 1), *reversed(OP_KINDS), None], dtype=object)


@functools.cache
def _heap_plan(max_depth: int) -> tuple:
    """(internal, nodes, depth, postorder, ancestors) of the heap of max_depth.

    The heap has `internal` operator-capable nodes and `nodes` in all.
    depth[j] is the depth of heap node j; postorder lists the heap's nodes
    in postorder, and ancestors[p] the ancestors of the node at postorder
    position p, one per depth above it, padded to max_depth columns with
    `nodes` (the always-True column of `gen_tree`'s operator flags). It is
    built on the first call for max_depth and kept; its arrays are read-only.
    """
    internal = (1 << max_depth) - 1
    nodes = 2 * internal + 1
    heap = np.arange(nodes)
    depth = np.repeat(np.arange(max_depth + 1), 1 << np.arange(max_depth + 1))
    # Postorder: sorted by the rightmost bottom-level node below each node
    # (j -> 2j + 2 down to depth max_depth; postorder ends the subtree
    # there), a deeper node first among those sharing it.
    last = ((heap + 2) << (max_depth - depth)) - 2
    postorder = np.lexsort((-depth, last))
    # Node j's ancestor at depth d < depth[j] is ((j + 1) >> (depth[j] - d)) - 1.
    above = np.arange(max_depth)
    shift = depth[:, None] - above
    ancestors = np.where(shift > 0, ((heap[:, None] + 1) >> np.maximum(shift, 0)) - 1, nodes)
    ancestors = ancestors[postorder]
    for array in (depth, postorder, ancestors):
        array.flags.writeable = False
    return internal, nodes, depth, postorder, ancestors


def ramp_schedule(max_depth: int, count: int) -> list:
    """count (depth, method) slots for ramped half-and-half initialization.

    Depths ramp over 2..max_depth, trees split evenly between grow and full
    at each depth, odd remainders going to grow. max_depth < 2 degenerates
    to all-grow at max_depth. max_depth is an int in [0, MAX_TREE_DEPTH]
    and count an int >= 1, as `EvolutionConfig` guarantees.
    """
    if max_depth < 2:
        return [(max_depth, "grow")] * count
    depths = list(range(2, max_depth + 1))
    slots = []
    for i in range(count):
        depth = depths[(i // 2) % len(depths)]
        method = "grow" if i % 2 == 0 else "full"
        slots.append((depth, method))
    return slots


def _divide(a, b, out=None):
    """Protected division of floats or arrays: a / b where |b| > DIV_EPS, else 1.0.

    With `out`, the result is written into that array and returned.
    """
    if type(b) is float:
        if abs(b) > DIV_EPS:
            return a / b if out is None else np.divide(a, b, out=out)
        if out is not None:
            out.fill(1.0)
            return out
        return 1.0 if type(a) is float else np.ones_like(a)
    ok = np.abs(b) > DIV_EPS  # False where a divisor is NaN
    if np.count_nonzero(ok) == b.size:
        return a / b if out is None else np.divide(a, b, out=out)
    if out is None:
        out = np.ones_like(b)
    else:
        out.fill(1.0)
    np.divide(a, b, out=out, where=ok)
    return out


_APPLY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _divide}


class Columns:
    """An input matrix prepared once for many `eval_tree_many` calls.

    `vectors` holds the matrix's columns as views (unit-stride ones when
    the matrix is column-major), and `safe[j]` is True when every entry of
    column j is above DIV_EPS in magnitude. A division whose divisor is a
    lone variable leaf on a safe column skips the protected-division guard:
    that guard would pass on every row, so the quotient is the same.
    """

    __slots__ = ("vectors", "safe", "rows", "_apply", "_apply_into")

    def __init__(self, matrix):
        X = np.asarray(matrix, dtype=float)
        if X.ndim != 2:
            raise ValueError("inputs must be a 2-d rows x n_features matrix")
        self.vectors = tuple(X.T)
        self.safe = tuple((np.abs(X) > DIV_EPS).all(axis=0).tolist())
        self.rows = len(X)
        # A column reaches the stack only as its variable leaf's value, so
        # a divisor that is a safe column's own array is such a leaf.
        safe = {id(v) for v, ok in zip(self.vectors, self.safe) if ok}

        def divide(a, b, out=None):
            if id(b) in safe:
                return a / b if out is None else np.divide(a, b, out=out)
            return _divide(a, b, out)

        self._apply = {**_APPLY, "div": divide}
        # The operators with an output array: (left, right, out) -> out.
        self._apply_into = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": divide}


def _run(program: Program, columns, out=None, apply=_APPLY, apply_into=None):
    """The value of a program whose variable i reads columns[i].

    A value stays a Python float until it meets a column, so a constant
    subtree is computed once, with the same IEEE operations the columns get.
    With `out`, the value is written into that array, by the last operator
    itself when the program ends in one through `apply_into` (operator to
    function (left, right, out) -> out), and `out` is returned. `apply` maps
    each operator to its function, as _APPLY does.
    """
    last = program[-1] if out is not None else None
    stack = []
    for node in program[:-1] if type(last) is str else program:
        kind = type(node)
        if kind is str:
            right = stack.pop()
            stack[-1] = apply[node](stack[-1], right)
        elif kind is int:
            try:
                stack.append(columns[node])
            except IndexError:
                raise ValueError(
                    f"variable index {node} out of range for {len(columns)} features"
                ) from None
        else:
            stack.append(node)
    if type(last) is str:
        right = stack.pop()
        return apply_into[last](stack.pop(), right, out)
    if out is None:
        return stack.pop()
    out[...] = stack.pop()
    return out


def eval_tree(tree: Program, x) -> float:
    """Evaluate a tree on one input row (scalar arithmetic)."""
    return _run(tree, np.asarray(x, dtype=float).tolist())


def eval_tree_many(tree: Program, columns: Columns, out=None) -> np.ndarray:
    """Evaluate a tree on every row of a rows x n_features matrix at once.

    Agrees bitwise with a per-row eval_tree loop (the same IEEE operations,
    applied componentwise); this is the hot path for semantics computation.
    The caller passes the matrix's `Columns`, prepared once and shared by
    every call over that matrix; a bare matrix is not accepted. A division
    by a safe column (one whose every entry is above DIV_EPS in magnitude)
    skips the guard, which could not fail there. The result is written into
    `out`, a float64 vector of one entry per row, and `out` is returned;
    without one it goes into a new array.
    """
    if out is None:
        out = np.empty(columns.rows)
    return _run(tree, columns.vectors, out, columns._apply, columns._apply_into)


def tree_to_json(tree: Program):
    """Nested {"op", "left", "right"} / {"const"} / {"var"} objects of a tree."""
    stack = []
    for node in tree:
        if type(node) is str:
            right = stack.pop()
            stack[-1] = {"op": node, "left": stack[-1], "right": right}
        else:
            stack.append({"const": node} if type(node) is float else {"var": node})
    return stack.pop()


def tree_from_json(obj, n_features: int) -> Program:
    """Parse `tree_to_json` output for inputs with n_features columns.

    A variable must be a non-bool int in [0, n_features), an operator one
    of OP_KINDS, a constant a finite number, and no node deeper than
    MAX_TREE_DEPTH; anything else raises ValueError, so a foreign tree
    never evaluates a column it does not name and never recurses past the
    cap.
    """
    code = []

    def parse(obj, depth):
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        if "const" in obj:
            value = obj["const"]
            if not finite_number(value):
                raise ValueError(f"constant {value!r} is not a finite number")
            code.append(float(value))
        elif "var" in obj:
            index = obj["var"]
            if type(index) is not int or not 0 <= index < n_features:
                raise ValueError(
                    f"variable {index!r} is not a feature index in [0, {n_features})"
                )
            code.append(index)
        else:
            kind = obj["op"]
            if kind not in OP_KINDS:
                raise ValueError(f"unknown operator kind {kind!r}")
            parse(obj["left"], depth + 1)
            parse(obj["right"], depth + 1)
            code.append(sys.intern(kind))  # the OP_KINDS string, not one per node

    parse(obj, 0)
    return tuple(code)
