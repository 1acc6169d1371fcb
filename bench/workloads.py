"""Workloads, correctness checks and end-to-end metrics of the gsgp benchmark.

The benchmark drives gsgp only through its public functions. It derives the
dataset, split and run seeds from one workload seed, so the package sees
only generated inputs and a seed always gives the same inputs.

Every workload runs its work at jobs=1 and at jobs=2 in alternating rounds
until the time is spent. A campaign's jobs are run_campaign's own. A
single-run workload runs the call on the calling thread at jobs=1 and on a
two-worker thread pool at jobs=2, as run_campaign runs a task.
"""

import hashlib
import importlib
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
from calibrate import GenerationClock, calibrated, calibrated_ms, kernel_s, speed_factor
from spans import Tracer, span_faults

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DATA_KIND = "friedman-like"
N_FEATURES = 5
NOISE = 0.0
SETUP_REPEATS = 15
# naive_eval expands the whole ancestry, so its cost doubles per generation.
ORACLE_GENERATIONS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "gen_ms_p50": "ms",
    "gen_ms_p90": "ms",
    "campaign_s": "s",
    "jobs_speedup": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    rows: int
    strategies: tuple
    population: int = 100
    generations: int = 100
    runs: int = 0  # runs per strategy of a campaign; 0: a single run_evolution call


WORKLOADS = {
    # 200 rows: per-node Python overhead dominates (tree generation, recursive
    # evaluation), and g:0.25 draws a source generation for every tournament
    # entrant over the whole history. Semantics stay small.
    "deep-small": Workload(rows=200, strategies=("g:0.25",)),
    # 6000 rows: row-bound numpy work and a large archive dominate; u:1 draws
    # no source generation, so selection does little.
    "shallow-large": Workload(rows=6000, strategies=("u:1",)),
    # Many short runs: per-run fixed costs, run_campaign's fan-out at jobs=1
    # and jobs=2, the rank-sum statistics and report writing.
    "campaign": Workload(
        rows=200, strategies=("u:1", "u:5", "g:0.25"), population=50, generations=50, runs=2
    ),
}


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"gsgp-bench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Checks:
    """Correctness checks and runs attempted; any failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_gsgp():
    if not (SRC / "gsgp" / "__init__.py").is_file():
        raise FileNotFoundError(f"gsgp sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gsgp

    return gsgp


def rounds(seconds: float, minimum: int):
    """Round indices until the next round would end after `seconds`."""
    start = perf_counter()
    longest = 0.0
    i = 0
    while True:
        began = perf_counter()
        yield i
        longest = max(longest, perf_counter() - began)
        i += 1
        if i >= minimum and perf_counter() - start + longest > seconds:
            return


def measure_setup(w: Workload, seed: int) -> float:
    """Median calibrated time to import gsgp afresh and build the split.

    Each sample drops gsgp from the module cache, imports it again and builds
    the dataset and split, next to one kernel run. numpy stays imported: its
    import is the same whatever gsgp does. The original modules are restored.
    """
    def ours():
        return [name for name in sys.modules if name == "gsgp" or name.startswith("gsgp.")]

    saved = {name: sys.modules[name] for name in ours()}
    data_seed, split_seed = derive_seed(seed, "data"), derive_seed(seed, "split")
    samples = []
    try:
        for _ in range(SETUP_REPEATS):
            for name in ours():
                del sys.modules[name]
            kernel = kernel_s()
            start = perf_counter()
            fresh = importlib.import_module("gsgp")
            data = fresh.synthetic_dataset(DATA_KIND, w.rows, N_FEATURES, NOISE, data_seed)
            fresh.split_70_30(data, split_seed)
            samples.append((perf_counter() - start, kernel))
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    return statistics.median(calibrated_ms(samples)) / 1e3


def make_dataset(gsgp, w: Workload, seed: int):
    return gsgp.synthetic_dataset(DATA_KIND, w.rows, N_FEATURES, NOISE, derive_seed(seed, "data"))


def peak_rss_mb() -> float:
    """Peak RSS of this process so far.

    Taken after the first round, which runs at jobs=1: memory freed on one
    thread is not reused by another thread's allocator arena, so later rounds
    would add the arenas together rather than measure the workload.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def gen_ms(samples_ms: list) -> dict:
    return {
        "gen_ms_p50": statistics.median(samples_ms),
        "gen_ms_p90": statistics.quantiles(samples_ms, n=10)[-1],
    }


def trajectory_digest(result) -> str:
    text = repr((result.train_rmse, result.test_rmse, result.test_rmse[-1]))
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                 env=env, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, env=env, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def check_run(gsgp, checks: Checks, result, oracle_seed=None):
    """Checks on one run that hold under any RNG stream (elitism on)."""
    archive = result.archive
    elite = archive.individual(result.final_best)
    recomputed = gsgp.rmse(elite.train_semantics, archive.train_targets)
    lowest = min(ind.train_fitness for ind in archive.generations[-1])
    checks.check(elite.train_fitness == recomputed == lowest,
                 "final elite's train fitness is not its recomputed RMSE and the last minimum")
    curve = result.train_rmse
    checks.check(all(b <= a for a, b in zip(curve, curve[1:])), "train curve rose under elitism")
    if oracle_seed is None:
        return
    rng = random.Random(oracle_seed)
    splits = ((archive.train_inputs, "train_semantics"), (archive.test_inputs, "test_semantics"))
    for g, gen in enumerate(archive.generations[: ORACLE_GENERATIONS + 1]):
        for i in rng.sample(range(len(gen)), min(2, len(gen))):
            ref = gsgp.IndividualRef(g, i)
            agree = True
            for inputs, field in splits:
                for r in rng.sample(range(len(inputs)), min(2, len(inputs))):
                    naive = archive.naive_eval(ref, inputs[r])
                    memo = getattr(gen[i], field)[r]
                    agree &= abs(naive - memo) <= 1e-9 * (1.0 + abs(naive))
            checks.check(agree, f"memoized semantics disagree with naive_eval at {ref}")


def _merge_traced(summaries: list, checks: Checks, reference=None) -> dict:
    """Counts must repeat exactly across traced rounds; times are medians."""
    exact = [n for n in summaries[0] if layers.UNITS[n] in layers.EXACT_UNITS]
    first = reference or summaries[0]
    for s in summaries if reference else summaries[1:]:
        checks.check(all(s[n] == first[n] for n in exact), "traced counts differ between rounds")
    return {
        n: summaries[0][n] if n in exact else statistics.median(s[n] for s in summaries)
        for n in summaries[0]
    }


def _traced_summary(tracer: Tracer, jobs: int, checks: Checks) -> dict:
    checks.check(not span_faults(tracer.spans), "a span has negative self time or escapes its parent")
    return layers.summarize(tracer, jobs)


def _single(gsgp, w: Workload, seed: int, seconds: float, trace: bool, checks: Checks, out: Path):
    (spec,) = w.strategies
    run_seed = derive_seed(seed, "run")
    cfg = gsgp.EvolutionConfig(
        distribution=gsgp.parse_distribution(spec),
        population_size=w.population,
        generations=w.generations,
        seed=run_seed,
    )
    digests = []

    def timed_run(jobs: int, split):
        start = perf_counter()
        if jobs == 1:
            result = gsgp.run_evolution(cfg, split, keep_archive=True)
        else:
            with ThreadPoolExecutor(max_workers=2) as pool:
                result = pool.submit(gsgp.run_evolution, cfg, split, keep_archive=True).result()
        return perf_counter() - start, result

    def check(result):
        check_run(gsgp, checks, result, oracle_seed=None if digests else run_seed)
        digest = trajectory_digest(result)
        if digests:
            checks.check(digest == digests[0], "trajectory differs from the first run of the seed")
        digests.append(digest)
        return result.test_rmse[-1]

    split_seed = derive_seed(seed, "split")
    split = gsgp.split_70_30(make_dataset(gsgp, w, seed), split_seed)
    clock = GenerationClock()
    if not trace:
        setup_s = measure_setup(w, seed)
        walls = {1: [], 2: []}
        with clock.installed(gsgp.evolve):
            for i in rounds(seconds, 2):
                jobs = 1 + i % 2
                first = len(clock.samples)
                wall, result = timed_run(jobs, split)
                walls[jobs].append(calibrated(wall, clock.samples[first:]))
                final_test_rmse = check(result)
                del result
                if i == 0:
                    peak_mb = peak_rss_mb()
        run_s, pooled_s = statistics.median(walls[1]), statistics.median(walls[2])
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            **gen_ms(calibrated_ms(clock.samples)),
            "campaign_s": pooled_s,
            "jobs_speedup": run_s / pooled_s,
            "peak_rss_mb": peak_mb,
        }
        return metrics, {"digests": digests, "final_test_rmse": [final_test_rmse]}

    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    for i in rounds(seconds, 2):
        if i % 2 == 0:
            clock.samples.clear()
            with clock.installed(gsgp.evolve):
                wall, result = timed_run(1, split)
            untraced.append(wall - sum(c for _, c in clock.samples))
        else:
            tracer.clear()
            with tracer.installed(layers.trace_points(gsgp)):
                traced_split = gsgp.split_70_30(make_dataset(gsgp, w, seed), split_seed)
                _, result = timed_run(1, traced_split)
            traced += layers.durations(tracer, "evolve.run")
            summaries.append(_traced_summary(tracer, 1, checks))
        final_test_rmse = check(result)
        del result
    metrics = _merge_traced(summaries, checks)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, {"digests": digests, "final_test_rmse": [final_test_rmse]}


def _campaign(gsgp, w: Workload, seed: int, seconds: float, trace: bool, checks: Checks, out: Path):
    template = gsgp.EvolutionConfig(population_size=w.population, generations=w.generations)
    base_seed = derive_seed(seed, "run")
    reports = []

    def campaign(i: int, jobs: int, data):
        start = perf_counter()
        report = gsgp.run_campaign(
            gsgp.Campaign(data, list(w.strategies), runs=w.runs, base_seed=base_seed,
                          template=template, jobs=jobs)
        )
        paths = gsgp.write_outputs(report, out / f"round-{i}")
        wall = perf_counter() - start
        for s in report.strategies:
            failed = {r for r, _ in s.failures}
            for r in range(s.runs_requested):
                checks.check(r not in failed, f"{s.name} run {r} failed")
        body = paths["report"].read_bytes()
        if reports:
            checks.check(body == reports[0], "report.json differs between rounds (jobs=1, jobs=2)")
        reports.append(body)
        shutil.rmtree(out / f"round-{i}")
        return wall, report

    def campaign_record(report):
        return {
            "digests": [hashlib.sha256(reports[0]).hexdigest()],
            "final_test_rmse": [x for s in report.strategies for x in s.final_test_rmse],
        }

    def run_seconds(report, samples):
        """Each run's duration without its kernels, and the round's speed factor."""
        durations = [d for s in report.strategies for d in s.durations]
        kernels_per_run = sum(c for _, c in samples) / len(durations)
        return [d - kernels_per_run for d in durations], speed_factor(c for _, c in samples)

    data = make_dataset(gsgp, w, seed)
    clock = GenerationClock()
    if not trace:
        setup_s = measure_setup(w, seed)
        walls = {1: [], 2: []}
        runs, gens = [], []
        with clock.installed(gsgp.evolve):
            for i in rounds(seconds, 2):
                jobs = 1 + i % 2
                clock.samples.clear()
                wall, report = campaign(i, jobs, data)
                walls[jobs].append(calibrated(wall, clock.samples))
                if i == 0:
                    peak_mb = peak_rss_mb()
                if jobs == 1:  # threads at jobs=2 inflate each other's generations
                    durations, factor = run_seconds(report, clock.samples)
                    runs += [d * factor for d in durations]
                    gens += calibrated_ms(clock.samples)
        campaign_s = statistics.median(walls[2])
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(runs),
            **gen_ms(gens),
            "campaign_s": campaign_s,
            "jobs_speedup": statistics.median(walls[1]) / campaign_s,
            "peak_rss_mb": peak_mb,
        }
        return metrics, campaign_record(report)

    tracer = Tracer()
    untraced, traced = [], []
    summaries = {1: [], 2: []}
    for i in rounds(seconds, 3):
        jobs = i % 3
        if jobs == 0:
            clock.samples.clear()
            with clock.installed(gsgp.evolve):
                _, report = campaign(i, 1, data)
            untraced += run_seconds(report, clock.samples)[0]
            continue
        tracer.clear()
        with tracer.installed(layers.trace_points(gsgp)):
            campaign(i, jobs, make_dataset(gsgp, w, seed))
        if jobs == 1:
            traced += layers.durations(tracer, "evolve.run")
        summaries[jobs].append(_traced_summary(tracer, jobs, checks))
    metrics = _merge_traced(summaries[1], checks)
    pooled = _merge_traced(summaries[2], checks, reference=summaries[1][0])
    for name in ("experiment.run_s_sum", "experiment.pool_busy_frac"):
        metrics[name] = pooled[name]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, campaign_record(report)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; the result holds every metric of the mode with its unit."""
    gsgp = load_gsgp()
    checks = Checks()
    out = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        run = _campaign if w.runs else _single
        metrics, record = run(gsgp, w, seed, seconds, trace, checks, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    units = layers.UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failures": checks.failures,
        "env": environment(),
        **record,
    }
