"""Syntax trees for generation-0 individuals and operator random trees.

Trees are immutable and are never modified after creation; all later
variation happens in semantic space (see the archive module). The function
set is {+, -, *, protected /} over variables and ephemeral constants.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

OP_KINDS = ("add", "sub", "mul", "div")

# Protected division: |denominator| <= DIV_EPS yields 1.0.
DIV_EPS = 1e-9


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    index: int


@dataclass(frozen=True)
class BinaryOp:
    kind: str
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Constant, Variable, BinaryOp]


# Terminals are ephemeral constants, drawn uniformly from CONSTANT_RANGE,
# with probability P_CONSTANT, and variables otherwise. The grow method
# stops early at a node below max_depth with probability P_GROW_TERMINAL.
CONSTANT_RANGE = (-1.0, 1.0)
P_CONSTANT = 0.3
P_GROW_TERMINAL = 0.3


@dataclass(frozen=True)
class TreeGenConfig:
    """Depth limit and feature count for random tree generation.

    max_depth uses the root-at-depth-0 convention: a lone leaf has depth 0.
    Variables index the features 0..n_features-1. The terminal and grow
    probabilities are the module constants P_CONSTANT, CONSTANT_RANGE and
    P_GROW_TERMINAL.
    """

    max_depth: int = 4
    n_features: int = 1

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")


def gen_tree(cfg: TreeGenConfig, method: str, rng: np.random.Generator) -> ExprTree:
    """Generate one random tree with the grow or full method.

    full puts every leaf at exactly cfg.max_depth; grow may stop early at
    any node below it. max_depth 0 degenerates to a single terminal.
    """
    if method not in ("grow", "full"):
        raise ValueError(f"unknown method {method!r}, expected 'grow' or 'full'")

    def terminal():
        if rng.random() < P_CONSTANT:
            lo, hi = CONSTANT_RANGE
            return Constant(float(rng.uniform(lo, hi)))
        return Variable(int(rng.integers(cfg.n_features)))

    def build(depth):
        if depth >= cfg.max_depth:
            return terminal()
        if method == "grow" and rng.random() < P_GROW_TERMINAL:
            return terminal()
        kind = OP_KINDS[int(rng.integers(len(OP_KINDS)))]
        return BinaryOp(kind, build(depth + 1), build(depth + 1))

    return build(0)


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
    of OP_KINDS, and a constant a finite number; anything else raises
    ValueError, so a foreign tree never evaluates a column it does not name.
    """
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
    return BinaryOp(
        obj["op"],
        tree_from_json(obj["left"], n_features),
        tree_from_json(obj["right"], n_features),
    )
