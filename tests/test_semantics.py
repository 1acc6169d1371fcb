import math

import numpy as np
import pytest

from gsgp.errors import NonFiniteSemanticsError
from gsgp.exprtree import BinaryOp, Constant, Variable, eval_tree, gen_tree
from gsgp.semantics import rmse, semantics_of_tree, sigmoid


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


@pytest.mark.parametrize("v", [0.0, 3.0, -3.0, 40.0, -40.0, math.inf, -math.inf, math.nan])
def test_sigmoid_of_a_0d_array_into_out_is_the_array_path(v):
    expected = sigmoid(np.array([v]))[0].tobytes()
    out = np.empty(())
    assert sigmoid(np.array(v), out=out) is out
    assert out.tobytes() == expected
    aliased = np.array(v)
    assert sigmoid(aliased, out=aliased) is aliased
    assert aliased.tobytes() == expected


def _masked_sigmoid_reference(v):
    """The array path as it was first written, with masks that follow the data."""
    arr = np.array(v, dtype=float)
    finite = np.isfinite(arr)
    nonneg = arr >= 0
    e = np.abs(arr)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.empty_like(e)
    np.copyto(out, e)
    np.copyto(out, 1.0, where=nonneg)
    e += 1.0
    out /= e
    np.minimum(out, math.nextafter(1.0, 0.0), out=out, where=finite)
    return np.maximum(out, math.nextafter(0.0, 1.0), out=out, where=finite)


def _sigmoid_bit_cases(rng):
    tiny = 5e-324
    boundary = np.array([
        0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e-310, -1e-310, 36.7, 36.8, -36.7, -36.8, 745.0, 746.0, -745.0, -746.0,
        709.78, -709.78, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
        math.inf, -math.inf, math.nan, 0.5, -0.5, 1.0, -1.0,
    ])
    yield "boundary values", boundary
    yield "finite boundary values", boundary[np.isfinite(boundary)]
    # Dense grids on both sides of |v| = 36, where the clamp starts to be
    # applied, and of v = -745, where the logistic rounds to 0.
    yield "every |v| <= 36, so no clamp", np.linspace(-36.0, 36.0, 20001)
    yield "around +-36", np.concatenate(
        [np.linspace(36.0, 37.0, 20001), np.linspace(-37.0, -36.0, 20001)]
    )
    yield "around -745", np.linspace(-746.0, -744.0, 20001)
    yield "+-1e300 and +-1e-300", np.array([1e300, -1e300, 1e-300, -1e-300, 36.0, -36.0])
    for scale in (1.0, 50.0, 800.0):
        yield f"finite block, scale {scale}", rng.normal(scale=scale, size=(7, 300))
    block = rng.normal(scale=40.0, size=(9, 200))
    block[2, rng.integers(200, size=5)] = math.inf
    block[5, rng.integers(200, size=5)] = -math.inf
    block[7, rng.integers(200, size=5)] = math.nan
    yield "block with +-inf and NaN in some rows", block
    nan_only = rng.normal(scale=40.0, size=(4, 200))
    nan_only[1, ::7] = math.nan
    yield "block with NaN in one row", nan_only


def test_sigmoid_array_path_is_bitwise_the_masked_reference(rng):
    # NaN must match NaN; every other entry must match in all 64 bits,
    # sign included, for each way of passing `out`.
    for name, values in _sigmoid_bit_cases(rng):
        expected = _masked_sigmoid_reference(values)
        separate = np.empty_like(values)
        aliased = values.copy()
        results = {
            "out=None": sigmoid(values),
            "separate out": sigmoid(values, out=separate),
            "out=v": sigmoid(aliased, out=aliased),
        }
        assert results["separate out"] is separate and results["out=v"] is aliased
        for form, got in results.items():
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(got), nan), (name, form)
            assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64)), (
                name,
                form,
            )


def test_sigmoid_array_path_agrees_with_the_scalar_path_where_their_exps_agree(rng):
    # The scalar path takes math.exp, which differs from numpy's exp in the
    # last bit for some inputs (about 5% of a grid over [-37, -36]).
    for name, values in _sigmoid_bit_cases(rng):
        values = values.ravel()
        got = sigmoid(values)
        scalar = np.array([sigmoid(float(v)) for v in values])
        assert np.array_equal(np.isnan(got), np.isnan(scalar)), name
        same_exp = np.exp(-np.abs(values)) == np.array([math.exp(-abs(v)) for v in values])
        bits, want = got[same_exp].view(np.uint64), scalar[same_exp].view(np.uint64)
        assert np.array_equal(bits, want), name
        finite = ~np.isnan(values)
        ulps = np.abs(got[finite].view(np.int64) - scalar[finite].view(np.int64))
        assert ulps.max(initial=0) <= 2, name


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
    (tree,) = gen_tree(3, 3, [(3, "full")], rng)
    out = semantics_of_tree(tree, X)
    assert np.array_equal(out, [eval_tree(tree, row) for row in X])


def test_semantics_nonfinite_names_row():
    X = np.array([[1.0], [1e300], [2.0]])
    blowup = BinaryOp("mul", BinaryOp("mul", Variable(0), Variable(0)), Variable(0))
    with pytest.raises(NonFiniteSemanticsError, match="row 1") as err:
        semantics_of_tree(blowup, X)
    assert err.value.row == 1
