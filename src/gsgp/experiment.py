"""Multi-run campaigns: seeded runs per strategy, persistence, comparisons.

A campaign runs `runs` seeded evolutions for each selection strategy and
compares every strategy's final test errors against the u:1 baseline with
the rank-sum test. Run r of every strategy shares the same 70/30 split
(paired splits, keyed by run index), while the evolution seed also hashes
the strategy so searches differ.

Outputs: report.json (deterministic: identical campaign config gives
byte-identical bytes; schema 2 records the RNG stream and, per strategy,
each completed run's non-finite offspring redraws and regenerated seed
trees, aligned with final_test_rmse), metadata.json (timestamps,
durations), runs.csv (per-run finals), boxplot.csv (per-strategy final
test RMSE columns).
"""

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, split_70_30
from .errors import NonFiniteSemanticsError
from .evolve import RNG_STREAM, EvolutionConfig, run_evolution
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
    dataset: Dataset
    strategies: list
    runs: int = 100
    base_seed: int = 0
    template: EvolutionConfig = field(default_factory=EvolutionConfig)
    jobs: int = 1
    source: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.strategies:
            raise ValueError("campaign needs at least one strategy")


@dataclass
class StrategyResult:
    name: str
    runs_requested: int
    final_train_rmse: list
    final_test_rmse: list
    offset_histograms: list
    failures: list  # [run_index, message] pairs
    durations: list
    nonfinite_retries: list
    seed_regenerations: list

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def runs_completed(self) -> int:
        return len(self.final_test_rmse)


@dataclass
class CampaignReport:
    dataset_name: str
    dataset_rows: int
    dataset_features: int
    source: str
    runs: int
    base_seed: int
    jobs: int
    evolution: dict
    baseline: str
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
        base = self.strategy(self.baseline)
        entries = []
        for s in self.strategies:
            entry = {
                "name": s.name,
                "complete": s.complete,
                "runs_completed": s.runs_completed,
                "median_train_rmse": median(s.final_train_rmse) if s.final_train_rmse else None,
                "median_test_rmse": median(s.final_test_rmse) if s.final_test_rmse else None,
                "final_train_rmse": s.final_train_rmse,
                "final_test_rmse": s.final_test_rmse,
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
            if s.name != self.baseline and s.final_test_rmse and base.final_test_rmse:
                test = rank_sum_test(s.final_test_rmse, base.final_test_rmse)
                entry["p_value_vs_baseline"] = test.p_value
                entry["u_statistic_vs_baseline"] = test.u_statistic
                entry["improved_vs_baseline"] = bool(
                    test.p_value < 0.05
                    and median(s.final_test_rmse) < median(base.final_test_rmse)
                )
            entries.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": {
                "name": self.dataset_name,
                "rows": self.dataset_rows,
                "n_features": self.dataset_features,
                "source": self.source,
            },
            "campaign": {
                "runs": self.runs,
                "base_seed": self.base_seed,
                "paired_splits": True,
                "rng_stream": RNG_STREAM,
                "evolution": self.evolution,
            },
            "baseline": self.baseline,
            "strategies": entries,
        }

    def metadata_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "total_seconds": self.total_seconds,
            "jobs": self.jobs,
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
    return {
        "population_size": cfg.population_size,
        "generations": cfg.generations,
        "max_initial_depth": cfg.max_initial_depth,
        "crossover_rate": cfg.crossover_rate,
        "mutation_rate": cfg.mutation_rate,
        "mutation_step": cfg.mutation_step,
        "tournament_size": cfg.tournament_size,
        "elitism": cfg.elitism,
        "bounded_mutation": cfg.bounded_mutation,
    }


def run_campaign(campaign: Campaign) -> CampaignReport:
    """Execute runs x strategies seeded evolutions and assemble the report.

    A run that raises is recorded in its strategy's failures, by its message
    for NonFiniteSemanticsError and as "<Type>: message" for any other
    exception, and the other runs go on.
    """
    strategies = resolve_strategies(campaign.strategies)
    labels = [s.label() for s in strategies]
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()

    def one_run(dist, label, r):
        split = split_70_30(campaign.dataset, split_seed(campaign.base_seed, r))
        cfg = replace(
            campaign.template,
            distribution=dist,
            seed=run_seed(campaign.base_seed, label, r),
        )
        return run_evolution(cfg, split)

    tasks = [(si, r) for si in range(len(strategies)) for r in range(campaign.runs)]
    outcomes = {}

    def worker(task):
        si, r = task
        try:
            return task, one_run(strategies[si], labels[si], r), None
        except NonFiniteSemanticsError as exc:
            return task, None, str(exc)
        except Exception as exc:  # one crashed run must not discard the campaign
            return task, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=campaign.jobs) as pool:
        completed = pool.map(worker, tasks) if campaign.jobs > 1 else map(worker, tasks)
        for task, result, error in completed:
            outcomes[task] = (result, error)

    results = []
    for si, label in enumerate(labels):
        sr = StrategyResult(
            name=label,
            runs_requested=campaign.runs,
            final_train_rmse=[],
            final_test_rmse=[],
            offset_histograms=[],
            failures=[],
            durations=[],
            nonfinite_retries=[],
            seed_regenerations=[],
        )
        for r in range(campaign.runs):
            run, error = outcomes[(si, r)]
            if error is not None:
                sr.failures.append([r, error])
                continue
            sr.final_train_rmse.append(run.train_rmse[-1])
            sr.final_test_rmse.append(run.test_rmse[-1])
            sr.offset_histograms.append(run.offset_histogram)
            sr.durations.append(run.duration_seconds)
            sr.nonfinite_retries.append(run.nonfinite_retries)
            sr.seed_regenerations.append(run.seed_regenerations)
        results.append(sr)

    return CampaignReport(
        dataset_name=campaign.dataset.name,
        dataset_rows=campaign.dataset.rows,
        dataset_features=campaign.dataset.n_features,
        source=campaign.source,
        runs=campaign.runs,
        base_seed=campaign.base_seed,
        jobs=campaign.jobs,
        evolution=_evolution_echo(campaign.template),
        baseline=BASELINE_LABEL,
        strategies=results,
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
    paths["report"].write_text(
        json.dumps(report.report_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    paths["metadata"].write_text(
        json.dumps(report.metadata_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with open(paths["runs"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["strategy", "run_index", "seed", "split_seed", "final_train_rmse", "final_test_rmse"]
        )
        for s in report.strategies:
            failed = {r for r, _ in s.failures}
            ok_runs = [r for r in range(s.runs_requested) if r not in failed]
            for row, r in enumerate(ok_runs):
                writer.writerow(
                    [
                        s.name,
                        r,
                        run_seed(report.base_seed, s.name, r),
                        split_seed(report.base_seed, r),
                        repr(s.final_train_rmse[row]),
                        repr(s.final_test_rmse[row]),
                    ]
                )
    emit_boxplot_data(report, paths["boxplot"])
    return paths
