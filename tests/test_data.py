import csv
import re

import numpy as np
import pytest

from conftest import FIXTURES

from gsgp.data import (
    Dataset,
    load_csv,
    split_70_30,
    split_sizes_70_30,
    synthetic_dataset,
    train_size_70,
)
from gsgp.errors import CsvFormatError
from gsgp.exprtree import BinaryOp, Variable
from gsgp.semantics import rmse, semantics_of_tree


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_basic_csv(tmp_path):
    d = load_csv(write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n10,11,12\n"))
    assert d.rows == 4
    assert d.n_features == 2
    assert np.array_equal(d.targets, [3.0, 6.0, 9.0, 12.0])


def test_load_csv_skips_header(tmp_path):
    d = load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n"), has_header=True)
    assert d.rows == 2
    assert np.array_equal(d.inputs[0], [1.0, 2.0])


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    plain = load_csv(write(tmp_path, "1,2,3\n4,5,6\n", name="plain.csv"))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n")
    marked = load_csv(path)
    assert np.array_equal(marked.inputs, plain.inputs)
    assert np.array_equal(marked.targets, plain.targets)
    path.write_bytes(b"\xef\xbb\xbfa,b,y\n1,2,3\n4,5,6\n")
    headed = load_csv(path, has_header=True)
    assert np.array_equal(headed.inputs, plain.inputs)
    assert np.array_equal(headed.targets, plain.targets)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_load_csv_header_is_the_first_non_blank_line(tmp_path, bom):
    path = tmp_path / "blank_first.csv"
    path.write_bytes(bom + b"\n\nx1,x2,y\n1,2,3\n\n4,5,6\n")
    d = load_csv(path, has_header=True)
    assert np.array_equal(d.inputs, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(d.targets, [3.0, 6.0])
    # Without the flag the header is data, named at its own line.
    with pytest.raises(CsvFormatError, match=r"'x1' at row 3, column 1"):
        load_csv(path)


def test_load_csv_names_bad_cell_position(tmp_path):
    rows = "\n".join("1,2,3" for _ in range(6)) + "\n1,abc,3\n"
    with pytest.raises(CsvFormatError, match=r"row 7, column 2"):
        load_csv(write(tmp_path, rows))


@pytest.mark.parametrize(
    "last, message",
    [
        ("7,x,9", r"non-numeric cell 'x' at row 4, column 2"),
        ("7,8,inf", r"non-finite cell 'inf' at row 4, column 3"),
        ("7,8", r"ragged row at line 4"),
    ],
    ids=["non-numeric", "non-finite", "ragged"],
)
def test_load_csv_counts_lines_of_a_quoted_cell_that_spans_two(tmp_path, last, message):
    with pytest.raises(CsvFormatError, match=message):
        load_csv(write(tmp_path, f'1,2,3\n"4\n",5,6\n{last}\n'))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_cell(tmp_path, cell):
    rows = f"1,2,3\n4,5,6\n7,8,{cell}\n"
    with pytest.raises(CsvFormatError, match=rf"non-finite cell '{cell}' at row 3, column 3"):
        load_csv(write(tmp_path, rows))


def test_load_csv_names_the_line_of_a_cell_past_the_csv_field_limit(tmp_path):
    path = write(tmp_path, "1,2\n" + "x" * 200_000 + ",3\n4,5\n")
    with pytest.raises(CsvFormatError, match=r"unreadable CSV at line 2: field larger than"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(CsvFormatError, match="ragged"):
        load_csv(write(tmp_path, "1,2,3\n1,2\n"))


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(CsvFormatError, match="no data"):
        load_csv(write(tmp_path, ""))


def test_load_csv_needs_two_data_rows(tmp_path):
    for text in ("1,2,3\n", "\n1,2,3\n\n", "x,y,t\n1,2,3\n"):
        path = write(tmp_path, text)
        message = f"{path}: need at least 2 data rows, got 1"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            load_csv(path, has_header=text.startswith("x"))
    assert load_csv(write(tmp_path, "1,2,3\n4,5,6\n")).rows == 2


def test_load_csv_needs_two_columns(tmp_path):
    with pytest.raises(CsvFormatError, match="2 columns"):
        load_csv(write(tmp_path, "1\n2\n"))


@pytest.mark.parametrize(
    "fixture,n_features",
    [("airfoil_sample.csv", 5), ("concrete_sample.csv", 8), ("yacht_sample.csv", 6)],
)
def test_fixture_layouts(fixture, n_features):
    d = load_csv(f"{FIXTURES}/{fixture}")
    assert d.rows == 10
    assert d.n_features == n_features


def test_train_size_rounding():
    assert train_size_70(1503) == 1052  # airfoil
    assert train_size_70(359) == 251  # bioav, round(251.3)
    assert train_size_70(1030) == 721  # concrete
    assert train_size_70(308) == 216  # yacht (215.6 rounds up)
    assert train_size_70(10) == 7
    assert train_size_70(2) == 1


def test_split_sizes_match_table():
    d = synthetic_dataset("polynomial", 1503, 2, 0.0, seed=0)
    s = split_70_30(d, 5)
    assert (s.train.rows, s.test.rows) == (1052, 451)
    d2 = synthetic_dataset("polynomial", 359, 2, 0.0, seed=0)
    s2 = split_70_30(d2, 5)
    assert (s2.train.rows, s2.test.rows) == (251, 108)


def test_split_needs_two_rows_on_each_side():
    for rows, n_train in ((2, 1), (3, 2), (4, 3), (5, 4)):
        sizes = f"{n_train} train and {rows - n_train} test"
        d = synthetic_dataset("polynomial", rows, 2, 0.0, seed=0)
        with pytest.raises(ValueError, match=f"{rows} rows splits 70/30 into {sizes} rows"):
            split_70_30(d, 5)
        with pytest.raises(ValueError, match="at least 6"):
            split_sizes_70_30(rows)
    s = split_70_30(synthetic_dataset("polynomial", 6, 2, 0.0, seed=0), 5)
    assert (s.train.rows, s.test.rows) == split_sizes_70_30(6) == (4, 2)
    assert all(min(split_sizes_70_30(rows)) >= 2 for rows in range(6, 200))


def test_split_is_reproducible_and_a_partition():
    d = synthetic_dataset("polynomial", 101, 3, 0.0, seed=1)
    a = split_70_30(d, 77)
    b = split_70_30(d, 77)
    assert np.array_equal(a.train.inputs, b.train.inputs)
    assert np.array_equal(a.test.targets, b.test.targets)
    rebuilt = np.vstack([a.train.inputs, a.test.inputs])
    assert np.array_equal(
        np.sort(rebuilt, axis=0), np.sort(d.inputs, axis=0)
    )
    # rows don't repeat across the two halves (values are continuous draws)
    seen = {tuple(r) for r in a.train.inputs}
    assert not any(tuple(r) in seen for r in a.test.inputs)


def test_split_different_seeds_differ():
    d = synthetic_dataset("polynomial", 101, 3, 0.0, seed=1)
    assert not np.array_equal(split_70_30(d, 1).train.inputs, split_70_30(d, 2).train.inputs)


def test_csv_round_trip_is_exact(tmp_path):
    d = synthetic_dataset("friedman-like", 20, 5, 0.3, seed=8)
    path = tmp_path / "out.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for x, y in zip(d.inputs, d.targets):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
    back = load_csv(path)
    assert np.array_equal(back.inputs, d.inputs)
    assert np.array_equal(back.targets, d.targets)


def test_polynomial_targets_match_formula():
    d = synthetic_dataset("polynomial", 200, 5, 0.0, seed=3)
    assert d.inputs.shape == (200, 5)
    formula = BinaryOp("add", BinaryOp("mul", Variable(0), Variable(0)), Variable(1))
    assert rmse(semantics_of_tree(formula, d.inputs), d.targets) == 0.0


def test_synthetic_determinism_and_noise():
    a = synthetic_dataset("friedman-like", 50, 5, 1.0, seed=3)
    b = synthetic_dataset("friedman-like", 50, 5, 1.0, seed=3)
    assert np.array_equal(a.targets, b.targets)
    c = synthetic_dataset("friedman-like", 50, 5, 0.0, seed=3)
    assert not np.array_equal(a.targets, c.targets)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_dataset("polynomial", 1, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        synthetic_dataset("polynomial", 10, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        synthetic_dataset("friedman-like", 10, 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        synthetic_dataset("mystery", 10, 5, 0.0, seed=0)
    with pytest.raises(ValueError, match="^noise must be a finite number >= 0"):
        synthetic_dataset("polynomial", 10, 2, 10**400, seed=0)  # beyond float range


@pytest.mark.parametrize(
    "rows, n_features, seed, refused",
    [
        (30, 5, -1, "seed must be >= 0"),
        (30, 5, 1.5, "seed must be an integer, not 1.5"),
        (30, 5, True, "seed must be an integer, not True"),
        (10.0, 5, 0, "rows must be an integer, not 10.0"),
        (30, 0, 0, "n_features must be >= 1"),
        (30, 5.0, 0, "n_features must be an integer, not 5.0"),
    ],
)
def test_synthetic_sizes_and_seed_are_checked_by_name(rows, n_features, seed, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        synthetic_dataset("friedman-like", rows, n_features, 0.0, seed)


@pytest.mark.parametrize(
    "seed, refused",
    [
        (-1, "seed must be >= 0"),
        (1.5, "seed must be an integer, not 1.5"),
        (True, "seed must be an integer, not True"),
    ],
)
def test_a_split_seed_is_an_int_of_at_least_0(seed, refused):
    d = synthetic_dataset("polynomial", 30, 2, 0.0, seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        split_70_30(d, seed)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("bad", np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        Dataset("bad", np.array([[1.0], [np.inf]]), np.ones(2))
    with pytest.raises(ValueError):
        Dataset("bad", np.ones((3, 2)), np.ones(4))
