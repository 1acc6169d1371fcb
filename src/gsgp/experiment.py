"""Multi-run campaigns: seeded runs per strategy, persistence, comparisons.

A campaign runs `runs` seeded evolutions for each selection strategy and
compares every strategy's final test errors against the u:1 baseline with
the rank-sum test. Run r of every strategy shares the same 70/30 split
(paired splits, keyed by run index), while the evolution seed also hashes
the strategy so searches differ.

A strategy's result is its run outcomes: each run's RunResult, or the
message that run failed with. Every per-run list in report.json and
runs.csv is derived from them, and the settings the outputs echo are read
from the Campaign that ran.

Outputs: report.json (deterministic: identical campaign config gives
byte-identical bytes; schema 2 records the RNG stream and, per strategy,
each completed run's non-finite offspring redraws and regenerated seed
trees, aligned with final_test_rmse), metadata.json (timestamps,
durations), runs.csv (per-run finals), boxplot.csv (per-strategy final
test RMSE columns).

Runs execute one at a time, in task order, on the calling thread, whatever
`jobs` is. A run spends most of its time in Python bytecode and small
numpy calls, which threads sharing the interpreter lock cannot overlap.
The thread pool that ran them before made six 50x50 runs on 200 rows take
1.1-1.5x the serial wall time. It helped only at 6000 rows, where numpy's
larger calls release the lock: four 50x30 runs took 0.82-0.99x the serial
time there, and 0.97-1.14x at 1500-3000 rows (2-vCPU x86-64, numpy 2.4).
So `jobs` has no effect on speed for now: it is validated and kept as the
worker count of process workers (ROADMAP direction 3), the planned
parallelism.
"""

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import Dataset, split_70_30, split_sizes_70_30
from .errors import NonFiniteSemanticsError, checked_int
from .evolve import RNG_STREAM, EvolutionConfig, RunResult, run_evolution
from .selection import UniformLastK, parse_distribution
from .stats import median, rank_sum_test

SCHEMA_VERSION = 2
BASELINE_LABEL = "u:1"
_SEED_MASK = (1 << 63) - 1


def stable_hash64(*parts) -> int:
    """Process-stable 63-bit hash (builtin hash() is salted per process)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


def run_seed(base_seed: int, strategy_label: str, run_index: int) -> int:
    return (base_seed ^ stable_hash64("run", strategy_label, run_index)) & _SEED_MASK


def split_seed(base_seed: int, run_index: int) -> int:
    # strategy-independent so splits pair across strategies
    return (base_seed ^ stable_hash64("split", run_index)) & _SEED_MASK


@dataclass
class Campaign:
    """`runs` seeded runs of each strategy on `dataset`.

    `jobs` (>= 1) currently has no effect, on speed or on any output: runs
    execute one at a time in the calling process, because a pool of threads
    made a 200-row campaign 1.1-1.5x slower (see the module docstring). It
    is validated and kept as the worker count of process workers (ROADMAP
    direction 3).
    `runs` and `jobs` must be integers, not bools; a numpy integer is
    stored as an int.
    """

    dataset: Dataset
    strategies: list
    runs: int = 100
    base_seed: int = 0
    template: EvolutionConfig = field(default_factory=EvolutionConfig)
    jobs: int = 1
    source: str = ""

    def __post_init__(self):
        self.runs = checked_int("runs", self.runs, 1)
        self.jobs = checked_int("jobs", self.jobs, 1)
        if not self.strategies:
            raise ValueError("campaign needs at least one strategy")
        split_sizes_70_30(self.dataset.rows)


def _per_run(read):
    """A property listing read(run) for each completed run, in run order."""
    return property(lambda self: [read(o) for o in self.outcomes if isinstance(o, RunResult)])


@dataclass
class StrategyResult:
    """One strategy's runs: outcomes[r] is run r's RunResult, or the message
    that run failed with. Every per-run list is derived from outcomes.
    """

    name: str
    outcomes: list

    final_train_rmse = _per_run(lambda run: run.train_rmse[-1])
    final_test_rmse = _per_run(lambda run: run.test_rmse[-1])
    offset_histograms = _per_run(lambda run: run.offset_histogram)
    durations = _per_run(lambda run: run.duration_seconds)
    nonfinite_retries = _per_run(lambda run: run.nonfinite_retries)
    seed_regenerations = _per_run(lambda run: run.seed_regenerations)

    @property
    def failures(self) -> list:
        """[run_index, message] pairs of the runs that failed."""
        return [[r, o] for r, o in enumerate(self.outcomes) if isinstance(o, str)]

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def runs_requested(self) -> int:
        return len(self.outcomes)

    @property
    def runs_completed(self) -> int:
        return self.runs_requested - len(self.failures)


@dataclass
class CampaignReport:
    """The campaign that ran, each strategy's results, and when it ran.

    The dataset, seeds, runs and evolution template of the report are
    read from `campaign` when it is written. No code in the package, its
    tests, benchmark or tools mutates a Campaign after run_campaign, so they
    are the ones the runs used; a caller that did would change the report.
    """

    campaign: Campaign
    strategies: list
    started_at: str = ""
    finished_at: str = ""
    total_seconds: float = 0.0

    def strategy(self, name: str) -> StrategyResult:
        for s in self.strategies:
            if s.name == name:
                return s
        raise KeyError(name)

    def report_dict(self) -> dict:
        """Deterministic report body; timestamps live in metadata_dict."""
        base = self.strategy(BASELINE_LABEL).final_test_rmse
        entries = []
        for s in self.strategies:
            train, test = s.final_train_rmse, s.final_test_rmse
            entry = {
                "name": s.name,
                "complete": s.complete,
                "runs_completed": s.runs_completed,
                "median_train_rmse": median(train) if train else None,
                "median_test_rmse": median(test) if test else None,
                "final_train_rmse": train,
                "final_test_rmse": test,
                "offset_histograms": [
                    {str(k): h[k] for k in sorted(h)} for h in s.offset_histograms
                ],
                "nonfinite_retries": s.nonfinite_retries,
                "seed_regenerations": s.seed_regenerations,
                "failures": s.failures,
                "p_value_vs_baseline": None,
                "u_statistic_vs_baseline": None,
                "improved_vs_baseline": None,
            }
            if s.name != BASELINE_LABEL and test and base:
                result = rank_sum_test(test, base)
                entry["p_value_vs_baseline"] = result.p_value
                entry["u_statistic_vs_baseline"] = result.u_statistic
                entry["improved_vs_baseline"] = bool(
                    result.p_value < 0.05 and median(test) < median(base)
                )
            entries.append(entry)
        c = self.campaign
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": {
                "name": c.dataset.name,
                "rows": c.dataset.rows,
                "n_features": c.dataset.n_features,
                "source": c.source,
            },
            "campaign": {
                "runs": c.runs,
                "base_seed": c.base_seed,
                "paired_splits": True,
                "rng_stream": RNG_STREAM,
                "evolution": _evolution_echo(c.template),
            },
            "baseline": BASELINE_LABEL,
            "strategies": entries,
        }

    def metadata_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "total_seconds": self.total_seconds,
            "mean_run_seconds": {
                s.name: (float(np.mean(s.durations)) if s.durations else None)
                for s in self.strategies
            },
            "numpy_version": np.__version__,
        }

    @property
    def any_failures(self) -> bool:
        return any(not s.complete for s in self.strategies)


def resolve_strategies(strategies) -> list:
    """Parse specs, dedupe by label, and put the u:1 baseline first if absent."""
    resolved = []
    labels = set()
    for s in strategies:
        dist = parse_distribution(s) if isinstance(s, str) else s
        name = dist.label()
        if name not in labels:
            labels.add(name)
            resolved.append(dist)
    if BASELINE_LABEL not in labels:
        resolved.insert(0, UniformLastK(1))
    return resolved


def _evolution_echo(cfg: EvolutionConfig) -> dict:
    """The template's fields in order, less the distribution and seed that each run sets."""
    return {
        f.name: getattr(cfg, f.name)
        for f in fields(cfg)
        if f.name not in ("distribution", "seed")
    }


def run_campaign(campaign: Campaign) -> CampaignReport:
    """Execute runs x strategies seeded evolutions and assemble the report.

    The runs execute one after another on the calling thread, strategy by
    strategy and, within a strategy, in run order, whatever campaign.jobs is.

    A run that raises is recorded as its strategy's outcome for that run, by
    its message for NonFiniteSemanticsError and as "<Type>: message" for any
    other exception, and the other runs go on.
    """
    strategies = resolve_strategies(campaign.strategies)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()

    def one_run(dist, r):
        try:
            split = split_70_30(campaign.dataset, split_seed(campaign.base_seed, r))
            cfg = replace(
                campaign.template,
                distribution=dist,
                seed=run_seed(campaign.base_seed, dist.label(), r),
            )
            return run_evolution(cfg, split)
        except NonFiniteSemanticsError as exc:
            return str(exc)
        except Exception as exc:  # one crashed run must not discard the campaign
            return f"{type(exc).__name__}: {exc}"

    outcomes = [one_run(dist, r) for dist in strategies for r in range(campaign.runs)]

    n = campaign.runs
    return CampaignReport(
        campaign=campaign,
        strategies=[
            StrategyResult(dist.label(), outcomes[i * n : (i + 1) * n])
            for i, dist in enumerate(strategies)
        ],
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
        total_seconds=time.perf_counter() - t0,
    )


def emit_boxplot_data(report: CampaignReport, path):
    """CSV with one column per strategy, one final-test-RMSE row per run."""
    if not report.strategies:
        raise ValueError("report has no strategies; nothing to emit")
    columns = [s.final_test_rmse for s in report.strategies]
    height = max(len(c) for c in columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in report.strategies])
        for i in range(height):
            writer.writerow([repr(c[i]) if i < len(c) else "" for c in columns])


def write_outputs(report: CampaignReport, out_dir) -> dict:
    """Write report.json / metadata.json / runs.csv / boxplot.csv; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "metadata": out / "metadata.json",
        "runs": out / "runs.csv",
        "boxplot": out / "boxplot.csv",
    }
    for key, body in (("report", report.report_dict()), ("metadata", report.metadata_dict())):
        paths[key].write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with open(paths["runs"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["strategy", "run_index", "seed", "split_seed", "final_train_rmse", "final_test_rmse"]
        )
        base_seed = report.campaign.base_seed
        for s in report.strategies:
            for r, run in enumerate(s.outcomes):
                if isinstance(run, str):
                    continue  # a failed run has no row
                writer.writerow(
                    [
                        s.name,
                        r,
                        run_seed(base_seed, s.name, r),
                        split_seed(base_seed, r),
                        repr(run.train_rmse[-1]),
                        repr(run.test_rmse[-1]),
                    ]
                )
    emit_boxplot_data(report, paths["boxplot"])
    return paths
