import math

import numpy as np
import pytest

from gsgp.errors import NonFiniteSemanticsError
from gsgp.exprtree import BinaryOp, Constant, TreeGenConfig, Variable, eval_tree, gen_tree
from gsgp.semantics import check_finite, rmse, semantics_of_tree, sigmoid


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturates():
    assert abs(sigmoid(1e9) - 1.0) <= 1e-12
    assert sigmoid(-1e9) <= 1e-12
    assert sigmoid(float("inf")) == 1.0
    assert sigmoid(float("-inf")) == 0.0


def test_sigmoid_reflection_identity():
    for v in (0.1, 1.0, 10.0):
        assert sigmoid(v) + sigmoid(-v) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_open_interval(rng):
    vals = rng.normal(scale=50.0, size=1000)
    out = sigmoid(vals)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert np.all(np.diff(sigmoid(np.linspace(-20, 20, 200))) >= 0)


def test_sigmoid_scalar_path_open_interval():
    vals = [36.8, 40.0, 700.0, 1e9, -746.0, -800.0, -1e9]
    arr = sigmoid(np.array(vals))
    for v, a in zip(vals, arr):
        s = sigmoid(v)
        assert 0.0 < s < 1.0, v
        assert 0.0 < a < 1.0, v
        assert abs(s - a) <= 1e-15, v
    inf = float("inf")
    arr = sigmoid(np.array([inf, -inf, math.nan]))
    assert sigmoid(inf) == 1.0 and arr[0] == 1.0
    assert sigmoid(-inf) == 0.0 and arr[1] == 0.0
    assert math.isnan(sigmoid(math.nan)) and math.isnan(arr[2])


def test_sigmoid_array_matches_scalar(rng):
    vals = rng.normal(scale=5.0, size=50)
    arr = sigmoid(vals)
    for v, o in zip(vals, arr):
        assert o == pytest.approx(sigmoid(float(v)), abs=1e-15)


def test_rmse_zero_iff_equal(rng):
    a = rng.normal(size=20)
    assert rmse(a, a) == 0.0
    b = a.copy()
    b[3] += 1e-6
    assert rmse(a, b) > 0.0


def test_rmse_hand_value():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)


def test_rmse_symmetry_and_permutation(rng):
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    assert rmse(a, b) == rmse(b, a)
    perm = rng.permutation(30)
    assert rmse(a[perm], b[perm]) == pytest.approx(rmse(a, b), rel=1e-12)


def test_rmse_triangle_inequality(rng):
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 11))
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12


def test_rmse_contract_violations():
    with pytest.raises(ValueError, match="mismatch"):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="empty"):
        rmse([], [])


def test_rmse_of_a_block_is_each_row_bitwise(rng):
    for width in (1, 7, 8, 9, 140, 1000, 4200, 6000):
        block = rng.normal(scale=100.0, size=(6, width + 3))[:, :width]
        target = rng.normal(size=width)
        errors = rmse(block, target)
        assert errors.shape == (6,)
        assert [float(e) for e in errors] == [rmse(row, target) for row in block]
    with pytest.raises(ValueError, match="mismatch"):
        rmse(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="2-d block"):
        rmse(np.zeros((2, 3, 4)), np.zeros(4))


def test_rmse_of_errors_whose_squares_overflow():
    # errors near 1e160 square past the largest float; the RMSE does not, and
    # no overflow warning is raised (pytest turns RuntimeWarnings into errors)
    pred = np.array([1e160, -3e160, 2e160, 0.5])
    target = np.array([0.0, 0.0, 1.0, 0.5])
    single = rmse(pred, target)
    assert single == pytest.approx(1e160 * math.sqrt(14 / 4), rel=1e-15)
    block = np.stack([target + 1.0, pred, pred * 1e-100])
    rows = rmse(block, target)
    assert rows[1] == single
    assert [rows[0], rows[2]] == [rmse(block[0], target), rmse(block[2], target)]
    assert rows[0] == 1.0
    huge = np.array([1.7e308, -1.7e308])
    assert rmse(huge, np.zeros(2)) == 1.7e308
    assert rmse(huge, -huge) == math.inf  # the RMSE itself exceeds the largest float


def test_sigmoid_into_out_matches_plain_call(rng):
    values = rng.normal(scale=300.0, size=(4, 50))
    values[0, :3] = [math.inf, -math.inf, math.nan]
    expected = sigmoid(values)
    out = np.empty_like(values)
    assert sigmoid(values, out=out) is out
    assert np.array_equal(out, expected, equal_nan=True)
    assert sigmoid(values, out=values) is values
    assert np.array_equal(values, expected, equal_nan=True)


def test_check_finite_block_names_first_vector_and_row():
    block = np.zeros((4, 3))
    assert check_finite(block, "block") is block
    block[3, 0] = math.nan
    block[1, 2] = math.inf
    with pytest.raises(NonFiniteSemanticsError, match="row 2") as err:
        check_finite(block, "block")
    assert (err.value.slot, err.value.row) == (1, 2)


def test_semantics_constant_tree(rng):
    X = rng.normal(size=(6, 2))
    assert np.array_equal(semantics_of_tree(Constant(2.5), X), np.full(6, 2.5))


def test_semantics_variable_tree_returns_column(rng):
    X = rng.normal(size=(8, 3))
    out = semantics_of_tree(Variable(1), X)
    assert np.array_equal(out, X[:, 1])
    out[0] = 123.0  # owned copy: the inputs must not change
    assert X[0, 1] != 123.0


def test_semantics_matches_eval_loop(rng):
    X = rng.normal(size=(5, 3))
    (tree,) = gen_tree(TreeGenConfig(max_depth=3, n_features=3), [(3, "full")], rng)
    out = semantics_of_tree(tree, X)
    assert np.array_equal(out, [eval_tree(tree, row) for row in X])


def test_semantics_nonfinite_names_row():
    X = np.array([[1.0], [1e300], [2.0]])
    blowup = BinaryOp("mul", BinaryOp("mul", Variable(0), Variable(0)), Variable(0))
    with pytest.raises(NonFiniteSemanticsError, match="row 1") as err:
        semantics_of_tree(blowup, X)
    assert err.value.row == 1
