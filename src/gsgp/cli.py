"""Command-line experiment harness.

Example:
    gsgp --dataset data/airfoil.csv --strategy u:5 --strategy g:0.25 \
         --runs 30 --seed 42 --out results/airfoil

Exit codes: 0 full success, 1 configuration error or an unwritable --out,
2 campaign finished with some runs aborted (recorded in the report).
"""

import argparse
import sys
from pathlib import Path

from .data import load_csv, synthetic_dataset
from .errors import CsvFormatError
from .evolve import EvolutionConfig
from .experiment import Campaign, run_campaign, write_outputs
from .selection import parse_distribution


class _Parser(argparse.ArgumentParser):
    # configuration problems exit 1 (argparse's default is 2, which we
    # reserve for partial campaign failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_synthetic_spec(spec: str):
    """kind:rows:features:noise[:seed], e.g. polynomial:200:5:0.0"""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(
            f"bad synthetic spec {spec!r}: expected kind:rows:features:noise[:seed]"
        )
    fields = (("rows", int), ("features", int), ("noise", float), ("seed", int))
    values = []
    for (name, kind), text in zip(fields, parts[1:]):
        try:
            values.append(kind(text))
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ValueError(
                f"bad synthetic spec {spec!r}: {name} {text!r} is not {expected}"
            ) from None
    rows, n_features, noise, *seed = values
    return synthetic_dataset(parts[0], rows, n_features, noise, seed[0] if seed else 0)


def build_parser() -> _Parser:
    p = _Parser(prog="gsgp", description=__doc__.splitlines()[0])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", metavar="PATH", help="CSV file, last column target")
    src.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="synthetic data, kind:rows:features:noise[:seed] "
        "(kinds: polynomial, friedman-like)",
    )
    p.add_argument(
        "--has-header", action="store_true", help="skip the first non-blank CSV line"
    )
    p.add_argument(
        "--strategy",
        action="append",
        default=[],
        metavar="SPEC",
        help="selection distribution, u:<k> or g:<p>; repeatable "
        "(baseline u:1 is always included)",
    )
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="campaign base seed")
    cfg = EvolutionConfig()
    p.add_argument("--generations", type=int, default=cfg.generations)
    p.add_argument("--pop", type=int, default=cfg.population_size, help="population size")
    p.add_argument("--tournament", type=int, default=cfg.tournament_size)
    p.add_argument("--crossover-rate", type=float, default=cfg.crossover_rate)
    p.add_argument("--mutation-rate", type=float, default=cfg.mutation_rate)
    p.add_argument("--mutation-step", type=float, default=cfg.mutation_step)
    p.add_argument(
        "--max-depth", type=int, default=cfg.max_initial_depth, help="max initial tree depth"
    )
    p.add_argument("--no-elitism", action="store_true")
    p.add_argument(
        "--raw-mutation",
        action="store_true",
        help="literal single-tree mutation (unbounded) instead of the "
        "bounded two-tree form",
    )
    p.add_argument("--out", metavar="DIR", help="directory for report files")
    return p


def _number(value, spec: str) -> str:
    """value formatted with spec; "n/a" for a strategy that completed no run."""
    return "n/a" if value is None else format(value, spec)


def _print_summary(report):
    campaign, data = report.campaign, report.campaign.dataset
    print(f"dataset: {data.name} ({data.rows} rows x {data.n_features} features)")
    print(f"runs per strategy: {campaign.runs}, base seed: {campaign.base_seed}")
    body = report.report_dict()
    for entry in body["strategies"]:
        line = (
            f"  {entry['name']:>8}  "
            f"median train {_number(entry['median_train_rmse'], '.4f')}  "
            f"median test {_number(entry['median_test_rmse'], '.4f')}"
        )
        if entry["p_value_vs_baseline"] is not None:
            line += f"  p vs {body['baseline']} = {entry['p_value_vs_baseline']:.4g}"
            if entry["improved_vs_baseline"]:
                line += "  (improved)"
        if not entry["complete"]:
            line += f"  [INCOMPLETE: {len(entry['failures'])} runs failed]"
        print(line)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.dataset:
            dataset = load_csv(args.dataset, has_header=args.has_header)
            source = args.dataset
        elif args.has_header:
            raise ValueError("--has-header applies only to a --dataset CSV")
        else:
            dataset = parse_synthetic_spec(args.synthetic)
            source = f"synthetic:{args.synthetic}"
        strategies = [parse_distribution(s) for s in args.strategy]
        template = EvolutionConfig(
            population_size=args.pop,
            generations=args.generations,
            max_initial_depth=args.max_depth,
            crossover_rate=args.crossover_rate,
            mutation_rate=args.mutation_rate,
            mutation_step=args.mutation_step,
            tournament_size=args.tournament,
            elitism=not args.no_elitism,
            bounded_mutation=not args.raw_mutation,
        )
        campaign = Campaign(
            dataset=dataset,
            strategies=strategies or ["u:1"],
            runs=args.runs,
            base_seed=args.seed,
            template=template,
            source=source,
        )
        if args.out:  # last, so a bad configuration leaves no directory behind
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (CsvFormatError, OSError, ValueError) as exc:
        print(f"gsgp: error: {exc}", file=sys.stderr)
        return 1

    report = run_campaign(campaign)
    if args.out:
        paths = write_outputs(report, args.out)
        print(f"wrote {', '.join(str(v) for v in paths.values())}")
    _print_summary(report)
    return 2 if report.any_failures else 0


if __name__ == "__main__":
    sys.exit(main())
