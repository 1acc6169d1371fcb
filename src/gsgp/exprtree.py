"""Syntax trees for generation-0 individuals and operator random trees.

Trees are immutable and are never modified after creation; all later
variation happens in semantic space (see the archive module). The function
set is {+, -, *, protected /} over variables and ephemeral constants.

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
No tree is deeper than MAX_TREE_DEPTH, which bounds the heap, the recursion
of evaluation and the trees `tree_from_json` accepts.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

OP_KINDS = ("add", "sub", "mul", "div")

# Protected division: |denominator| <= DIV_EPS yields 1.0.
DIV_EPS = 1e-9

# Deepest tree (root at depth 0) that is generated, evaluated or parsed. A
# heap of this depth has 2^(MAX_TREE_DEPTH+1) - 1 nodes per tree.
MAX_TREE_DEPTH = 10


@dataclass(frozen=True, slots=True)
class Constant:
    value: float


@dataclass(frozen=True, slots=True)
class Variable:
    index: int


@dataclass(frozen=True, slots=True)
class BinaryOp:
    kind: str
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Constant, Variable, BinaryOp]


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
    """One random tree per (depth, method) slot, from five bulk draws.

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
    node_depth = np.repeat(np.arange(cfg.max_depth), 1 << np.arange(cfg.max_depth))
    is_op = np.zeros((n, nodes), dtype=bool)
    is_op[:, :internal] = node_depth < np.array(depths, dtype=int)[:, None]
    stop = rng.random((n, internal)) < P_GROW_TERMINAL
    is_op[:, :internal] &= ~(stop & np.array(grow, dtype=bool)[:, None])
    # Level by level, the children of a live operator are live.
    live = np.zeros((n, nodes), dtype=bool)
    live[:, 0] = True
    for level in range(cfg.max_depth):
        first, end = (1 << level) - 1, (2 << level) - 1
        kids = live[:, first:end] & is_op[:, first:end]
        live[:, 2 * first + 1 : 2 * end + 1] = np.repeat(kids, 2, axis=1)

    # Each later draw covers the whole heap but is cut down to the live
    # nodes that read it at once, so one heap-sized array is alive at a time.
    rows, cols = np.nonzero(live)
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

    # Every live node gets a place in `objects`: leaves first, in live order,
    # then operators in reverse live order, so that an operator's children
    # (higher heap index, adjacent in live order) are made before it.
    keys = rows * nodes + cols
    place = np.empty(len(keys), dtype=int)
    place[~branch] = np.arange(len(leaf_rows))
    place[branch] = np.arange(len(keys) - 1, len(leaf_rows) - 1, -1)
    left = np.searchsorted(keys, keys[branch] + cols[branch] + 1)  # right child: left + 1
    leaves = np.empty(len(leaf_rows), dtype=object)
    leaves[constant] = [Constant(v) for v in values.tolist()]
    leaves[~constant] = [Variable(x) for x in variables.tolist()]
    objects = leaves.tolist()
    for kind, a, b in zip(
        ops[::-1].tolist(), place[left][::-1].tolist(), place[left + 1][::-1].tolist()
    ):
        objects.append(BinaryOp(OP_KINDS[kind], objects[a], objects[b]))
    roots = np.searchsorted(keys, np.arange(n) * nodes)
    return [objects[i] for i in place[roots].tolist()]


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


def eval_tree(tree: ExprTree, x) -> float:
    """Evaluate a tree on one input row (scalar arithmetic)."""
    if isinstance(tree, Constant):
        return tree.value
    if isinstance(tree, Variable):
        if tree.index >= len(x):
            raise ValueError(
                f"variable index {tree.index} out of range for {len(x)} features"
            )
        return float(x[tree.index])
    a = eval_tree(tree.left, x)
    b = eval_tree(tree.right, x)
    if tree.kind == "add":
        return a + b
    if tree.kind == "sub":
        return a - b
    if tree.kind == "mul":
        return a * b
    if tree.kind == "div":
        return 1.0 if abs(b) <= DIV_EPS else a / b
    raise ValueError(f"unknown operator kind {tree.kind!r}")


def eval_tree_many(tree: ExprTree, inputs) -> np.ndarray:
    """Evaluate a tree on every row of a rows x n_features matrix at once.

    Agrees with a per-row eval_tree loop (same IEEE operations, applied
    componentwise); this is the hot path for semantics computation.
    """
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2:
        raise ValueError("inputs must be a 2-d rows x n_features matrix")

    def rec(t):
        if isinstance(t, Constant):
            return np.full(X.shape[0], t.value)
        if isinstance(t, Variable):
            if t.index >= X.shape[1]:
                raise ValueError(
                    f"variable index {t.index} out of range for {X.shape[1]} features"
                )
            return X[:, t.index]
        a = rec(t.left)
        b = rec(t.right)
        if t.kind == "add":
            return a + b
        if t.kind == "sub":
            return a - b
        if t.kind == "mul":
            return a * b
        if t.kind == "div":
            out = np.ones_like(a, dtype=float)
            np.divide(a, b, out=out, where=np.abs(b) > DIV_EPS)
            return out
        raise ValueError(f"unknown operator kind {t.kind!r}")

    out = rec(tree)
    if out.base is not None:  # bare-Variable tree returns a column view
        out = out.copy()
    return out


def tree_depth(tree: ExprTree) -> int:
    if isinstance(tree, (Constant, Variable)):
        return 0
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))


def tree_to_json(tree: ExprTree):
    if isinstance(tree, Constant):
        return {"const": tree.value}
    if isinstance(tree, Variable):
        return {"var": tree.index}
    return {
        "op": tree.kind,
        "left": tree_to_json(tree.left),
        "right": tree_to_json(tree.right),
    }


def _finite_number(value) -> bool:
    """Whether a parsed JSON value is a finite int or float (a bool is not)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def tree_from_json(obj, n_features: int) -> ExprTree:
    """Parse `tree_to_json` output for inputs with n_features columns.

    A variable must be a non-bool int in [0, n_features), an operator one
    of OP_KINDS, a constant a finite number, and no node deeper than
    MAX_TREE_DEPTH; anything else raises ValueError, so a foreign tree
    never evaluates a column it does not name and never recurses past the
    cap.
    """

    def parse(obj, depth):
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH}")
        if "const" in obj:
            value = obj["const"]
            if not _finite_number(value):
                raise ValueError(f"constant {value!r} is not a finite number")
            return Constant(float(value))
        if "var" in obj:
            index = obj["var"]
            if type(index) is not int or not 0 <= index < n_features:
                raise ValueError(
                    f"variable {index!r} is not a feature index in [0, {n_features})"
                )
            return Variable(index)
        if obj["op"] not in OP_KINDS:
            raise ValueError(f"unknown operator kind {obj['op']!r}")
        return BinaryOp(obj["op"], parse(obj["left"], depth + 1), parse(obj["right"], depth + 1))

    return parse(obj, 0)
