"""gsgp's modules as the benchmark traces them.

Each traced function is wrapped where it is looked up: `archive`, `semantics`
and `evolve` import their callees by name, so the binding patched is the one
in the calling module. RMSE reaches the archive as a default argument of
`seed_archive`, so it is timed by passing a wrapped fitness through
`gsgp.evolve.seed_archive`.
"""

import inspect
import statistics
from collections import defaultdict

from spans import Point

LAYERS = ("data", "exprtree", "semantics", "archive", "selection", "evolve", "experiment", "stats")

# Per-layer metrics and their units. `_s` is busy time, `self` is busy time
# minus child spans.
UNITS = {
    "data.synth_s": "s",
    "data.split_s": "s",
    "exprtree.gen_s": "s",
    "exprtree.gen_calls": "count",
    "exprtree.gen_nodes": "count",
    "exprtree.eval_s": "s",
    "exprtree.eval_calls": "count",
    "exprtree.eval_nodes": "count",
    "exprtree.eval_node_rows": "count",
    "semantics.sigmoid_s": "s",
    "semantics.sigmoid_elems": "count",
    "semantics.fitness_s": "s",
    "semantics.fitness_calls": "count",
    "semantics.check_finite_s": "s",
    "archive.make_self_s": "s",
    "archive.make_calls": "count",
    "archive.seed_s": "s",
    "archive.best_of_gen_s": "s",
    "archive.nonfinite_rejects": "count",
    "archive.records": "count",
    "archive.semantics_mb": "MB",
    "archive.distinct_arrays": "count",
    "selection.tournament_s": "s",
    "selection.tournaments": "count",
    "selection.entrants": "count",
    "selection.deep_entrant_frac": "ratio",
    "selection.distinct_parent_frac": "ratio",
    "evolve.next_gen_self_s": "s",
    "evolve.slot_retries": "count",
    "evolve.gen_ms_late_over_early": "ratio",
    "experiment.run_s_sum": "s",
    "experiment.pool_busy_frac": "ratio",
    "experiment.write_s": "s",
    "experiment.report_bytes": "bytes",
    "stats.rank_sum_s": "s",
    "stats.rank_sum_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

# Units of the metrics that must repeat exactly for a given seed.
EXACT_UNITS = ("count", "MB", "bytes")


def trace_points(gsgp) -> list:
    binary_op = gsgp.exprtree.BinaryOp

    def tree_counts(tree):
        nodes = ops = 0
        stack = [tree]
        while stack:
            t = stack.pop()
            nodes += 1
            if isinstance(t, binary_op):
                ops += 1
                stack += (t.left, t.right)
        return nodes, ops

    def generated(tracer, span, args, kwargs, tree):
        tracer.count("exprtree.gen_nodes", tree_counts(tree)[0])

    def evaluated(tracer, span, args, kwargs, values):
        nodes, ops = tree_counts(args[0] if args else kwargs["tree"])
        tracer.count("exprtree.eval_nodes", nodes)
        tracer.count("exprtree.eval_node_rows", ops * len(values))

    def sigmoided(tracer, span, args, kwargs, values):
        tracer.count("semantics.sigmoid_elems", getattr(values, "size", 1))

    def tournament(tracer, span, args, kwargs, winner):
        tracer.count("selection.entrants", args[2] if len(args) > 2 else kwargs["t"])
        parent = span.parent
        if parent is not None and parent.name == "evolve.next_gen":
            if parent.extra is None:
                parent.extra = set()
            parent.extra.add(winner)

    def generation(tracer, span, args, kwargs, individuals):
        tracer.count("selection.distinct_parents", len(span.extra or ()))
        span.extra = None

    def seeded(tracer, span, args, kwargs, archive):
        if span.parent is not None and span.parent.name == "evolve.run":
            span.parent.extra = archive

    def ran(tracer, span, args, kwargs, result):
        archive, span.extra = span.extra, None
        hist = result.offset_histogram
        tracer.count("selection.deep_entrants", sum(c for o, c in hist.items() if o > 0))
        if archive is None:
            return
        # Reference children share their parent's arrays: count each array once.
        arrays = {}
        for gen in archive.generations:
            for ind in gen:
                arrays[id(ind.train_semantics)] = ind.train_semantics.nbytes
                arrays[id(ind.test_semantics)] = ind.test_semantics.nbytes
        tracer.count("archive.records", archive.record_count())
        tracer.count("archive.distinct_arrays", len(arrays))
        tracer.count("archive.semantics_bytes", sum(arrays.values()))

    def written(tracer, span, args, kwargs, paths):
        tracer.count("experiment.report_bytes", paths["report"].stat().st_size)

    def traced_fitness(tracer, seed_archive):
        default = inspect.signature(seed_archive).parameters["fitness"].default

        def seed(*args, **kwargs):
            fitness = kwargs.get("fitness", default)
            kwargs["fitness"] = tracer.wrap(fitness, "semantics.fitness")
            return seed_archive(*args, **kwargs)

        return seed

    archive, evolve, experiment, semantics = (
        gsgp.archive, gsgp.evolve, gsgp.experiment, gsgp.semantics
    )
    return [
        Point(gsgp, "synthetic_dataset", "data.synth"),
        Point(gsgp, "split_70_30", "data.split"),
        Point(experiment, "split_70_30", "data.split"),
        Point(evolve, "gen_tree", "exprtree.gen", generated),
        Point(archive, "eval_tree_many", "exprtree.eval", evaluated),
        Point(semantics, "eval_tree_many", "exprtree.eval", evaluated),
        Point(archive, "sigmoid", "semantics.sigmoid", sigmoided),
        Point(archive, "check_finite", "semantics.check_finite"),
        Point(semantics, "check_finite", "semantics.check_finite"),
        Point(archive.Archive, "make_individual", "archive.make"),
        Point(archive.Archive, "best_of_generation", "archive.best_of_gen"),
        Point(evolve, "seed_archive", "archive.seed", seeded, traced_fitness),
        Point(evolve, "tournament_select", "selection.tournament", tournament),
        Point(evolve, "next_generation", "evolve.next_gen", generation),
        Point(gsgp, "run_evolution", "evolve.run", ran),
        Point(experiment, "run_evolution", "evolve.run", ran),
        Point(gsgp, "run_campaign", "experiment.campaign"),
        Point(gsgp, "write_outputs", "experiment.write", written),
        Point(experiment, "rank_sum_test", "stats.rank_sum"),
    ]


def durations(tracer, name: str) -> list:
    return [s.duration for s in tracer.spans if s.name == name]


def summarize(tracer, jobs: int) -> dict:
    """Per-layer metrics of everything the tracer recorded, except the overhead."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    generations = defaultdict(list)
    rejects = retries = 0
    for s in tracer.spans:
        calls[s.name] += 1
        busy[s.name] += s.duration
        own[s.name] += s.self_s
        layer_self[s.name.partition(".")[0]] += s.self_s
        if s.name == "evolve.next_gen":
            generations[id(s.parent)].append((s.start, s.duration))
        elif s.name == "archive.make" and s.failed:
            rejects += 1
            retries += s.parent is not None and s.parent.name == "evolve.next_gen"

    # Flat cost curve check: late generations against early ones, per run.
    late_over_early = []
    for samples in generations.values():
        took = [d for _, d in sorted(samples)]
        late_over_early.append(statistics.median(took[-10:]) / statistics.median(took[:10]))

    counts = tracer.counts
    entrants = counts["selection.entrants"]
    tournaments = calls["selection.tournament"]
    campaign_wall = busy["experiment.campaign"]
    run_s_sum = busy["evolve.run"] if campaign_wall else 0.0
    metrics = {
        "data.synth_s": busy["data.synth"],
        "data.split_s": busy["data.split"],
        "exprtree.gen_s": busy["exprtree.gen"],
        "exprtree.gen_calls": calls["exprtree.gen"],
        "exprtree.gen_nodes": counts["exprtree.gen_nodes"],
        "exprtree.eval_s": busy["exprtree.eval"],
        "exprtree.eval_calls": calls["exprtree.eval"],
        "exprtree.eval_nodes": counts["exprtree.eval_nodes"],
        "exprtree.eval_node_rows": counts["exprtree.eval_node_rows"],
        "semantics.sigmoid_s": busy["semantics.sigmoid"],
        "semantics.sigmoid_elems": counts["semantics.sigmoid_elems"],
        "semantics.fitness_s": busy["semantics.fitness"],
        "semantics.fitness_calls": calls["semantics.fitness"],
        "semantics.check_finite_s": busy["semantics.check_finite"],
        "archive.make_self_s": own["archive.make"],
        "archive.make_calls": calls["archive.make"],
        "archive.seed_s": busy["archive.seed"],
        "archive.best_of_gen_s": busy["archive.best_of_gen"],
        "archive.nonfinite_rejects": rejects,
        "archive.records": counts["archive.records"],
        "archive.semantics_mb": counts["archive.semantics_bytes"] / 1e6,
        "archive.distinct_arrays": counts["archive.distinct_arrays"],
        "selection.tournament_s": busy["selection.tournament"],
        "selection.tournaments": tournaments,
        "selection.entrants": entrants,
        "selection.deep_entrant_frac": (
            counts["selection.deep_entrants"] / entrants if entrants else 0.0
        ),
        "selection.distinct_parent_frac": (
            counts["selection.distinct_parents"] / tournaments if tournaments else 0.0
        ),
        "evolve.next_gen_self_s": own["evolve.next_gen"],
        "evolve.slot_retries": retries,
        "evolve.gen_ms_late_over_early": (
            statistics.median(late_over_early) if late_over_early else 0.0
        ),
        "experiment.run_s_sum": run_s_sum,
        "experiment.pool_busy_frac": run_s_sum / (jobs * campaign_wall) if campaign_wall else 0.0,
        "experiment.write_s": busy["experiment.write"],
        "experiment.report_bytes": counts["experiment.report_bytes"],
        "stats.rank_sum_s": busy["stats.rank_sum"],
        "stats.rank_sum_calls": calls["stats.rank_sum"],
    }
    metrics.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    return metrics
