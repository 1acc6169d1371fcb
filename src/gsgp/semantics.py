"""Semantic vectors, sigmoid bounding, and RMSE fitness.

A semantic vector is a program's outputs over the rows of a fixed input
matrix, kept as a 1-d float64 array. Fitness is an error (RMSE) and is
minimized everywhere in this package; tournament "best" means lowest error.
"""

import math

import numpy as np

from .errors import NonFiniteSemanticsError
from .exprtree import ExprTree, eval_tree_many

SemanticVector = np.ndarray


def sigmoid(v):
    """Logistic 1/(1+e^-v); accepts a scalar or an array, saturates cleanly."""
    if np.ndim(v) == 0:
        x = float(v)
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)
    arr = np.asarray(v, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def rmse(pred, target) -> float:
    """Root mean squared componentwise error between two equal-length vectors."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.ndim != 1 or t.ndim != 1:
        raise ValueError("rmse expects 1-d vectors")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    d = p - t
    return float(np.sqrt(np.mean(d * d)))


def check_finite(values: np.ndarray, context: str, split: str = None) -> np.ndarray:
    """Raise NonFiniteSemanticsError naming the first offending row."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFiniteSemanticsError(
            f"non-finite semantics in {context} at row {row} "
            f"(value {values[row]!r})",
            split=split,
            row=row,
        )
    return values


def semantics_of_tree(tree: ExprTree, inputs) -> SemanticVector:
    """Outputs of a tree over every row of `inputs`, as a float64 vector."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = eval_tree_many(tree, inputs)
    return check_finite(values, "tree evaluation")
