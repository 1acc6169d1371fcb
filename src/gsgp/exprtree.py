"""Syntax trees for generation-0 individuals and operator random trees.

Trees are immutable and are never modified after creation; all later
variation happens in semantic space (see the archive module). The function
set is {+, -, *, protected /} over variables and ephemeral constants.

Every tree the engine makes or reads is a `Program`: a tuple of the tree's
nodes in postfix order (the left subtree, then the right subtree, then the
node itself). A float is a constant, an int the index of a variable, and a
str one of OP_KINDS, applied to the values of the two subtrees before it. One
stack loop evaluates a program, over the rows of an input matrix
(`eval_tree_many`) or over one row (`eval_tree`). A program holds no
object per node beyond its entries, so a kept archive's trees cost the
garbage collector one tracked object each. `Constant(v)`, `Variable(i)` and
`BinaryOp(kind, left, right)` write a program by hand, checked as it is
built.

Protected division yields 1.0 where the divisor is not above DIV_EPS in
magnitude. A caller that evaluates many trees over one matrix prepares it
once as `Columns`: its column views are built once, and each column is
marked safe when every entry is above DIV_EPS in magnitude. A division
whose divisor is a lone variable leaf on a safe column then divides with
no guard. The guard would pass on every row of such a column, so the
quotient has the same bits. Every other division keeps the guard.

Random trees are drawn in bulk (RNG stream 2). `gen_tree` lays every tree
it draws out on a heap of depth max_depth, where node j sits at depth
floor(log2(j + 1)) and has children 2j + 1 and 2j + 2, and makes five array
draws over all the trees at once, in this order:

1. grow-stop uniforms, one per internal node (`rng.random`);
2. operators, one per internal node (`rng.integers(len(OP_KINDS))`);
3. constant flags, one per node (`rng.random`);
4. constant values, one per node (`rng.uniform(*CONSTANT_RANGE)`);
5. variable indices, one per node (`rng.integers(n_features)`).

A tree is the live part of its heap: the root, and both children of every
live node that is an operator. The draws of dead nodes are consumed unread.
The program lists the live nodes in the postorder of the heap. No tree is
deeper than MAX_TREE_DEPTH, which bounds the heap, the trees that are
written by hand and the trees `tree_from_json` accepts.
"""

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

OP_KINDS = ("add", "sub", "mul", "div")

# Protected division: a denominator that is not above DIV_EPS in magnitude
# (NaN included) yields 1.0.
DIV_EPS = 1e-9

# Deepest tree (root at depth 0) that is generated, built or parsed. A
# heap of this depth has 2^(MAX_TREE_DEPTH+1) - 1 nodes per tree.
MAX_TREE_DEPTH = 10


class Program(tuple):
    """A tree as its nodes in postfix order (see the module docstring).

    `gen_tree`, `tree_from_json` and the `Constant`, `Variable` and
    `BinaryOp` constructors make programs; every variable index in one is
    a non-negative int.
    """

    __slots__ = ()


class Constant:
    """`Constant(v)` is the program of the constant float(v)."""

    def __new__(cls, value) -> Program:
        return Program((float(value),))


class Variable:
    """`Variable(i)` is the program that reads input column i, an index >= 0.

    Whether the input has column i is checked when the program is run.
    """

    def __new__(cls, index) -> Program:
        index = operator.index(index)
        if index < 0:
            raise ValueError(f"variable index {index} is negative")
        return Program((index,))


class BinaryOp:
    """`BinaryOp(kind, left, right)` is the program of `kind` applied to two programs.

    A kind not in OP_KINDS, or a result deeper than MAX_TREE_DEPTH, raises
    ValueError; an operand that is not a program raises TypeError.
    """

    def __new__(cls, kind, left, right) -> Program:
        if kind not in OP_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        for operand in (left, right):
            if type(operand) is not Program:
                raise TypeError(f"{operand!r} is not a tree")
        if max(_depth(left), _depth(right)) >= MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        # The OP_KINDS str itself: _run tells an operator by `type(node) is str`.
        kind = OP_KINDS[OP_KINDS.index(kind)]
        return Program(left + right + (kind,))


def _depth(program: Program) -> int:
    """The depth of a program's tree; a lone leaf has depth 0."""
    depths = []
    for node in program:
        if type(node) is str:
            right = depths.pop()
            depths[-1] = max(depths[-1], right) + 1
        else:
            depths.append(0)
    return depths[0]


# Terminals are ephemeral constants, drawn uniformly from CONSTANT_RANGE,
# with probability P_CONSTANT, and variables otherwise. The grow method
# stops early at a node above its depth limit with probability
# P_GROW_TERMINAL.
CONSTANT_RANGE = (-1.0, 1.0)
P_CONSTANT = 0.3
P_GROW_TERMINAL = 0.3


@dataclass(frozen=True, slots=True)
class TreeGenConfig:
    """Depth limit and feature count for random tree generation.

    max_depth uses the root-at-depth-0 convention: a lone leaf has depth 0.
    It is at most MAX_TREE_DEPTH and is the depth of the heap `gen_tree`
    draws on. Variables index the features 0..n_features-1. The terminal and
    grow probabilities are the module constants P_CONSTANT, CONSTANT_RANGE
    and P_GROW_TERMINAL.
    """

    max_depth: int = 4
    n_features: int = 1

    def __post_init__(self):
        if not 0 <= self.max_depth <= MAX_TREE_DEPTH:
            raise ValueError(f"max_depth must be in [0, {MAX_TREE_DEPTH}]")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")


def gen_tree(cfg: TreeGenConfig, slots, rng: np.random.Generator) -> list:
    """One random program per (depth, method) slot, from five bulk draws.

    A slot's depth is at most cfg.max_depth, the depth of the heap every
    tree is drawn on (see the module docstring for the draw order). A heap
    node above the slot's depth is an operator, except that under the grow
    method its grow-stop uniform makes it a terminal with probability
    P_GROW_TERMINAL; a node at the slot's depth is a terminal. So full puts
    every leaf at exactly the slot's depth, and depth 0 gives a single
    terminal. A terminal is a constant with probability P_CONSTANT and a
    variable otherwise.
    """
    depths = []
    grow = []
    for depth, method in slots:
        if method not in ("grow", "full"):
            raise ValueError(f"unknown method {method!r}, expected 'grow' or 'full'")
        if not 0 <= depth <= cfg.max_depth:
            raise ValueError(f"slot depth {depth} is not in [0, {cfg.max_depth}]")
        depths.append(depth)
        grow.append(method == "grow")
    n = len(depths)
    internal = (1 << cfg.max_depth) - 1
    nodes = 2 * internal + 1
    node_depth = np.repeat(np.arange(cfg.max_depth + 1), 1 << np.arange(cfg.max_depth + 1))
    is_op = np.zeros((n, nodes), dtype=bool)
    is_op[:, :internal] = node_depth[:internal] < np.array(depths, dtype=int)[:, None]
    stop = rng.random((n, internal)) < P_GROW_TERMINAL
    is_op[:, :internal] &= ~(stop & np.array(grow, dtype=bool)[:, None])
    # Level by level, the children of a live operator are live.
    live = np.zeros((n, nodes), dtype=bool)
    live[:, 0] = True
    for level in range(cfg.max_depth):
        first, end = (1 << level) - 1, (2 << level) - 1
        kids = live[:, first:end] & is_op[:, first:end]
        live[:, 2 * first + 1 : 2 * end + 1] = np.repeat(kids, 2, axis=1)

    # Heap positions in postorder: sorted by the rightmost bottom-level node
    # below each (j -> 2j + 2 down to depth max_depth; postorder ends the
    # subtree there), a deeper node first among those sharing it.
    last = ((np.arange(nodes) + 2) << (cfg.max_depth - node_depth)) - 2
    postorder = np.lexsort((-node_depth, last))
    rows, cols = np.nonzero(live[:, postorder])
    cols = postorder[cols]

    # Each later draw covers the whole heap but is cut down to the live
    # nodes that read it at once, so one heap-sized array is alive at a time.
    branch = is_op[rows, cols]
    ops = rng.integers(len(OP_KINDS), size=(n, internal))[rows[branch], cols[branch]]
    leaf_rows, leaf_cols = rows[~branch], cols[~branch]
    constant = (rng.random((n, nodes)) < P_CONSTANT)[leaf_rows, leaf_cols]
    values = rng.uniform(*CONSTANT_RANGE, size=(n, nodes))[
        leaf_rows[constant], leaf_cols[constant]
    ]
    variables = rng.integers(cfg.n_features, size=(n, nodes))[
        leaf_rows[~constant], leaf_cols[~constant]
    ]

    # Object arrays turn the values into Python floats and the indices into
    # Python ints, which the programs hold.
    leaves = np.empty(len(leaf_rows), dtype=object)
    leaves[constant] = values
    leaves[~constant] = variables
    code = np.empty(len(rows), dtype=object)
    code[branch] = np.array(OP_KINDS, dtype=object)[ops]
    code[~branch] = leaves
    flat = code.tolist()
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    return [Program(flat[start:end]) for start, end in zip([0] + ends[:-1], ends)]


def ramp_schedule(cfg: TreeGenConfig, count: int) -> list:
    """(depth, method) slots for ramped half-and-half initialization.

    Depths ramp over 2..max_depth, trees split evenly between grow and full
    at each depth, odd remainders going to grow. max_depth < 2 degenerates
    to all-grow at max_depth.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if cfg.max_depth < 2:
        return [(cfg.max_depth, "grow")] * count
    depths = list(range(2, cfg.max_depth + 1))
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


def eval_tree_many(tree: Program, inputs, out=None) -> np.ndarray:
    """Evaluate a tree on every row of a rows x n_features matrix at once.

    Agrees bitwise with a per-row eval_tree loop (the same IEEE operations,
    applied componentwise); this is the hot path for semantics computation.
    `inputs` is the matrix's `Columns`, which many calls share, or the
    matrix, which is prepared as `Columns` for this call alone. A division
    by a safe column (one whose every entry is above DIV_EPS in magnitude)
    skips the guard, which could not fail there. The result is written into
    `out`, a float64 vector of one entry per row, and `out` is returned;
    without one it goes into a new array.
    """
    if type(inputs) is not Columns:
        inputs = Columns(inputs)
    if out is None:
        out = np.empty(inputs.rows)
    return _run(tree, inputs.vectors, out, inputs._apply, inputs._apply_into)


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


def _finite_number(value) -> bool:
    """Whether a parsed JSON value is a finite int or float (a bool is not)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


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
            if not _finite_number(value):
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
    return Program(code)
