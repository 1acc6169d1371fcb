"""Geometric semantic GP for symbolic regression, with the whole
evolutionary history kept in a structurally shared archive so tournament
selection can draw candidates from any earlier generation."""

from .archive import (
    Archive,
    Crossover,
    Individual,
    IndividualRef,
    Leaf,
    Mutation,
    seed_archive,
)
from .data import Dataset, SplitDataset, load_csv, save_csv, split_70_30, synthetic_dataset
from .errors import CsvFormatError, EvalBudgetExceededError, NonFiniteSemanticsError
from .evolve import EvolutionConfig, RunResult, next_generation, run_evolution
from .exprtree import (
    BinaryOp,
    Constant,
    TreeGenConfig,
    Variable,
    eval_tree,
    eval_tree_many,
    gen_tree,
)
from .experiment import Campaign, CampaignReport, emit_boxplot_data, run_campaign, write_outputs
from .selection import (
    Geometric,
    UniformLastK,
    parse_distribution,
    tournament_select,
)
from .semantics import rmse, semantics_of_tree, sigmoid
from .stats import RankSumResult, median, rank_sum_test

__all__ = [
    "Archive",
    "BinaryOp",
    "Campaign",
    "CampaignReport",
    "Constant",
    "Crossover",
    "CsvFormatError",
    "Dataset",
    "EvalBudgetExceededError",
    "EvolutionConfig",
    "Geometric",
    "Individual",
    "IndividualRef",
    "Leaf",
    "Mutation",
    "NonFiniteSemanticsError",
    "RankSumResult",
    "RunResult",
    "SplitDataset",
    "TreeGenConfig",
    "UniformLastK",
    "Variable",
    "emit_boxplot_data",
    "eval_tree",
    "eval_tree_many",
    "gen_tree",
    "load_csv",
    "median",
    "next_generation",
    "parse_distribution",
    "rank_sum_test",
    "rmse",
    "run_campaign",
    "run_evolution",
    "save_csv",
    "seed_archive",
    "semantics_of_tree",
    "sigmoid",
    "split_70_30",
    "synthetic_dataset",
    "tournament_select",
    "write_outputs",
]
