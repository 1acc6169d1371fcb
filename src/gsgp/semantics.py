"""Semantic vectors, sigmoid bounding, and RMSE fitness.

A semantic vector is a program's outputs over the rows of a fixed input
matrix, kept as a 1-d float64 array. Fitness is an error (RMSE) and is
minimized everywhere in this package; tournament "best" means lowest error.

Sigmoid bounding keeps the crossover weight and the mutation bound in the
logistic function's codomain: every finite input maps strictly inside
(0, 1), even where float64 would round the logistic to 0.0 or 1.0; +inf and
-inf map to exactly 1.0 and 0.0; NaN stays NaN.
"""

import math

import numpy as np

from .errors import NonFiniteSemanticsError
from .exprtree import ExprTree, eval_tree_many

SemanticVector = np.ndarray

# Bounds of sigmoid's finite outputs: the floats next to 0 and 1 inside (0, 1).
_OPEN_LO = math.nextafter(0.0, 1.0)
_OPEN_HI = math.nextafter(1.0, 0.0)


def sigmoid(v, out=None):
    """Logistic 1/(1+e^-v) of a scalar or an array, elementwise.

    A finite input maps strictly inside (0, 1): where float64 would round
    the logistic to exactly 1.0 (v > ~36.7) or to 0.0 (v < ~-745), the
    result is clipped to nextafter(1, 0) or nextafter(0, 1); elsewhere it
    is the plain logistic value. +inf maps to exactly 1.0, -inf to exactly
    0.0, and NaN stays NaN, so `check_finite` still rejects it. An array
    result is written into `out` when one is given, which may be `v` itself.
    """
    if out is None and np.ndim(v) == 0:
        x = float(v)
        if x >= 0:
            s = 1.0 / (1.0 + math.exp(-x))
        else:
            e = math.exp(x)
            s = e / (1.0 + e)
        return min(max(s, _OPEN_LO), _OPEN_HI) if math.isfinite(x) else s
    # Branch-free form of the scalar path: e = e^-|v| never overflows, and
    # each entry is 1/(1+e) or e/(1+e) exactly as above.
    arr = np.asarray(v, dtype=float)
    finite = np.isfinite(arr)
    nonneg = arr >= 0
    e = np.abs(arr)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(e)
    np.copyto(out, e)
    np.copyto(out, 1.0, where=nonneg)
    e += 1.0
    out /= e
    np.minimum(out, _OPEN_HI, out=out, where=finite)
    return np.maximum(out, _OPEN_LO, out=out, where=finite)


def rmse(pred, target):
    """Root mean squared componentwise error of a vector against a target.

    A 2-d `pred` holds one vector per row and gives an array with one RMSE
    per row, each bitwise what that row alone would give.
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.ndim not in (1, 2) or t.ndim != 1:
        raise ValueError("rmse expects a vector or a 2-d block of vectors, and a target vector")
    if p.shape[-1] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[-1]} vs {t.shape[0]}")
    if t.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    d = p - t
    d *= d
    errors = np.sqrt(np.mean(d, axis=-1))
    return float(errors) if p.ndim == 1 else errors


def check_finite(values: np.ndarray, context: str, split: str = None, slot: int = None):
    """Raise NonFiniteSemanticsError naming the first offending row.

    A 2-d block holds one vector per row and is checked in row order: the
    error's `slot` is the first vector with a non-finite value and its
    `row` the first such value within it.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values
    if values.ndim == 2:
        slot = int(np.argmin(finite.all(axis=1)))
        values, finite = values[slot], finite[slot]
    row = int(np.argmin(finite))
    raise NonFiniteSemanticsError(
        f"non-finite semantics in {context} at row {row} (value {values[row]!r})",
        split=split,
        row=row,
        slot=slot,
    )


def semantics_of_tree(tree: ExprTree, inputs) -> SemanticVector:
    """Outputs of a tree over every row of `inputs`, as a float64 vector."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = eval_tree_many(tree, inputs)
    return check_finite(values, "tree evaluation")
