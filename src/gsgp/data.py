"""Dataset ingestion, 70/30 splitting, and synthetic fixtures.

CSV contract: comma-separated, an optional header (the first non-blank
line), decimal point, last column is the regression target, UTF-8 (a
leading byte-order mark, as spreadsheet exports often write, is accepted
and skipped). No scaling or imputation is applied; files are used exactly
as supplied.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, checked_int, finite_number

SYNTHETIC_KINDS = ("polynomial", "friedman-like")


@dataclass
class Dataset:
    name: str
    inputs: np.ndarray  # rows x n_features
    targets: np.ndarray  # length rows

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or self.targets.ndim != 1:
            raise ValueError("inputs must be 2-d and targets 1-d")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on row count")
        if self.rows < 2:
            raise ValueError("dataset needs at least 2 rows")
        if self.n_features < 1:
            raise ValueError("dataset needs at least 1 feature")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def rows(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


@dataclass
class SplitDataset:
    train: Dataset
    test: Dataset
    split_seed: int


def load_csv(path, has_header: bool = False) -> Dataset:
    """Load a numeric CSV, named by its path; last column becomes the target.

    Blank lines are skipped; with has_header, so is the first other line.
    A diagnostic numbers rows by physical line, where a record ends, so a
    quoted cell that spans lines does not shift the lines after it. A line
    that the csv module cannot read, such as one with a cell longer than
    its field size limit, raises CsvFormatError naming that line.
    """
    rows = []
    width = None
    skip_header = has_header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                lineno = reader.line_num
                if not record:
                    continue
                if skip_header:
                    skip_header = False
                    continue
                if width is None:
                    width = len(record)
                    if width < 2:
                        raise CsvFormatError(
                            f"{path}: need at least 2 columns (features + target), got {width}"
                        )
                elif len(record) != width:
                    raise CsvFormatError(
                        f"{path}: ragged row at line {lineno}: "
                        f"expected {width} cells, got {len(record)}"
                    )
                parsed = []
                for col, cell in enumerate(record, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise CsvFormatError(
                            f"{path}: non-numeric cell {cell!r} at row {lineno}, column {col}"
                        ) from None
                    if not math.isfinite(value):
                        raise CsvFormatError(
                            f"{path}: non-finite cell {cell!r} at row {lineno}, column {col}"
                        )
                    parsed.append(value)
                rows.append(parsed)
        except csv.Error as exc:
            raise CsvFormatError(
                f"{path}: unreadable CSV at line {reader.line_num}: {exc}"
            ) from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows, got {len(rows)}")
    data = np.array(rows, dtype=float)
    return Dataset(name=str(path), inputs=data[:, :-1], targets=data[:, -1])


def train_size_70(rows: int) -> int:
    """Round-half-up of 0.7*rows; frozen so splits are reproducible."""
    return int(math.floor(0.7 * rows + 0.5))


def split_sizes_70_30(rows: int) -> tuple:
    """(train rows, test rows) of a 70/30 split of this many rows.

    Each side must hold at least 2 rows, as every Dataset does, which takes
    at least 6 rows in all; fewer raise ValueError naming the sizes.
    """
    n_train = train_size_70(rows)
    if min(n_train, rows - n_train) < 2:
        raise ValueError(
            f"a dataset of {rows} rows splits 70/30 into {n_train} train and "
            f"{rows - n_train} test rows; each side needs at least 2 rows, "
            "so a dataset needs at least 6"
        )
    return n_train, rows - n_train


def split_70_30(dataset: Dataset, seed: int) -> SplitDataset:
    """Random 70/30 row partition keyed by seed, an int >= 0; see split_sizes_70_30."""
    seed = checked_int("seed", seed, 0)
    n_train, _ = split_sizes_70_30(dataset.rows)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.rows)
    tr, te = perm[:n_train], perm[n_train:]
    return SplitDataset(
        train=Dataset(f"{dataset.name}[train]", dataset.inputs[tr], dataset.targets[tr]),
        test=Dataset(f"{dataset.name}[test]", dataset.inputs[te], dataset.targets[te]),
        split_seed=seed,
    )


def synthetic_dataset(kind: str, rows: int, n_features: int, noise: float, seed: int) -> Dataset:
    """Deterministic synthetic regression data.

    polynomial: inputs U[-1,1], target x0^2 + x1 (needs >= 2 features).
    friedman-like: inputs U[0,1], target
    10*sin(pi*x0*x1) + 20*(x2-0.5)^2 + 10*x3 + 5*x4 (needs >= 5 features).
    Gaussian noise with sd `noise`, a finite number >= 0, is added to the
    target. rows (>= 2), n_features (>= 1) and seed (>= 0) are ints, not
    bools; another value raises ValueError naming its field.
    """
    rows = checked_int("rows", rows, 2)
    n_features = checked_int("n_features", n_features, 1)
    seed = checked_int("seed", seed, 0)
    if not (finite_number(noise) and noise >= 0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}, expected one of {SYNTHETIC_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "polynomial":
        if n_features < 2:
            raise ValueError("polynomial kind needs >= 2 features")
        X = rng.uniform(-1.0, 1.0, size=(rows, n_features))
        y = X[:, 0] ** 2 + X[:, 1]
    else:
        if n_features < 5:
            raise ValueError("friedman-like kind needs >= 5 features")
        X = rng.uniform(0.0, 1.0, size=(rows, n_features))
        y = (
            10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3]
            + 5.0 * X[:, 4]
        )
    if noise:
        y = y + rng.normal(0.0, noise, size=rows)
    return Dataset(name=f"{kind}-{rows}x{n_features}", inputs=X, targets=y)
