"""Geometric semantic GP for symbolic regression, with the whole
evolutionary history kept in a structurally shared archive so tournament
selection can draw candidates from any earlier generation."""

from .archive import Archive, IndividualRef
from .data import Dataset, SplitDataset, load_csv, split_70_30, synthetic_dataset
from .errors import CsvFormatError, NonFiniteSemanticsError
from .evolve import EvolutionConfig, RunResult, run_evolution
from .experiment import Campaign, CampaignReport, run_campaign, write_outputs
from .selection import Geometric, UniformLastK, parse_distribution
from .semantics import rmse
from .stats import RankSumResult, rank_sum_test

__all__ = [
    "Archive",
    "Campaign",
    "CampaignReport",
    "CsvFormatError",
    "Dataset",
    "EvolutionConfig",
    "Geometric",
    "IndividualRef",
    "NonFiniteSemanticsError",
    "RankSumResult",
    "RunResult",
    "SplitDataset",
    "UniformLastK",
    "load_csv",
    "parse_distribution",
    "rank_sum_test",
    "rmse",
    "run_campaign",
    "run_evolution",
    "split_70_30",
    "synthetic_dataset",
    "write_outputs",
]
