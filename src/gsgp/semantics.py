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
from .exprtree import Columns, Program, eval_tree_many

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
    # each entry is 1/(1+e) or e/(1+e) as above, with numpy's exp, which can
    # differ from math.exp in the last bit. The numerator is
    # max(e, v >= 0): e lies in [0, 1] or is NaN (where v is), so this is 1.0
    # where v >= 0 and e elsewhere. Masked writes that follow the sign of v
    # cost several times an unmasked pass, so the common path has none: only
    # a block holding +-inf masks the clamp to its finite entries (where=True
    # masks nothing).
    # Every mask is read before `out`, which may be `v`, is written. One
    # maximum of |v| stands in for the inf scan: when it is finite, no entry
    # is +-inf, and when it is at most 36, every logistic lies strictly
    # inside (0, 1) already (e^-36 exceeds 2^-52, the ulp of 1), so the clamp
    # would change nothing and is skipped. A NaN makes the maximum NaN, and
    # such a block takes the scan. A ufunc of a 0-d array returns a numpy
    # scalar, which the in-place passes cannot write, so `e` gets an array.
    arr = np.asarray(v, dtype=float)
    e = np.abs(arr, out=None if arr.ndim else np.empty(()))
    top = np.maximum.reduce(e, axis=None, initial=0.0)
    clamp = not top <= 36.0
    finite = np.isfinite(arr) if not top < math.inf and np.isinf(arr).any() else True
    nonneg = arr >= 0
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, nonneg, out=out)
    e += 1.0
    out /= e
    return np.clip(out, _OPEN_LO, _OPEN_HI, out=out, where=finite) if clamp else out


def rmse(pred, target):
    """Root mean squared componentwise error of a vector against a target.

    A 2-d `pred` holds one vector per row and gives an array with one RMSE
    per row, each bitwise what that row alone would give. Only a finite
    vector whose squared errors overflow is measured again, on its errors
    scaled down by the power of two above the largest magnitude in it and
    the target, so its RMSE is finite unless the RMSE itself exceeds the
    largest float.
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.ndim not in (1, 2) or t.ndim != 1:
        raise ValueError("rmse expects a vector or a 2-d block of vectors, and a target vector")
    if p.shape[-1] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[-1]} vs {t.shape[0]}")
    if t.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    with np.errstate(over="ignore"):
        d = p - t
        d *= d
        # The sum over the count, as np.mean computes it, without its wrapper.
        errors = np.sqrt(np.add.reduce(d, axis=-1) / t.shape[0])
        if not np.isfinite(errors).all():
            errors = np.array(errors, ndmin=1)
            rows = np.array(p, ndmin=2)
            for i in np.flatnonzero(~np.isfinite(errors) & np.isfinite(rows).all(axis=1)):
                errors[i] = _scaled_rmse(rows[i], t)
            errors = errors.reshape(p.shape[:-1])
    return float(errors) if p.ndim == 1 else errors


def _scaled_rmse(p, t):
    """RMSE of finite p against t, computed on errors scaled by 2^-k.

    k is the exponent of the largest magnitude in p and t, so the scaled
    errors are at most 2 and their squares cannot overflow; scaling by a
    power of two is exact apart from underflow.
    """
    _, k = np.frexp(max(np.max(np.abs(p)), np.max(np.abs(t))))
    d = np.ldexp(p, -k) - np.ldexp(t, -k)
    return np.ldexp(np.sqrt(np.mean(d * d)), k)


def check_finite(values: np.ndarray, context: str, split: str = None, slot: int = None):
    """Raise NonFiniteSemanticsError naming the first offending row."""
    finite = np.isfinite(values)
    if finite.all():
        return values
    row = int(np.argmin(finite))
    raise NonFiniteSemanticsError(
        f"non-finite semantics in {context} at row {row} (value {values[row]!r})",
        split=split,
        row=row,
        slot=slot,
    )


def semantics_of_tree(tree: Program, inputs) -> np.ndarray:
    """Outputs of a tree over every row of the matrix `inputs`, as a float64 vector."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = eval_tree_many(tree, Columns(inputs))
    return check_finite(values, "tree evaluation")
