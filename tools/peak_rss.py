"""Peak memory of single gsgp runs, one fresh process per strategy.

For each strategy, a subprocess builds a friedman-like dataset of `--rows`
rows and N_FEATURES features, splits it 70/30, makes one `--pop` x
`--generations` run, and reports what getrusage says about the whole
process: peak RSS (which includes the interpreter and numpy, about 30-40
MB), minor page faults and user and system time. The run's own wall time is
timed around `run_evolution`, and the run's replays of winners from beyond
the horizon are reported as `RunResult.replays`, the payloads they
evaluated (None for a source without `archive.evaluate_block`) and the
time they took. At the end of the run it reports `held_block_mb`, the
bytes of the archive's window slots that hold a generation (None for a
source without the window): a ring of len(window) slots holds the
latest min(len(window) - 1, len(archive.generations)) generations, the one
slot more being the next generation's. It also reports `needed_mb`, what
the rows of the generations selection can still read take (min(horizon,
generations + 1) x pop x rows x 8 bytes); the two are equal when the
window holds exactly those generations. The worker then keeps the run's archive and reads slot
0 of the newest generation that the run released, generation
`generations - horizon`, which replays that individual's ancestry; it
reports the peak RSS after that read and the read's wall time, or None for
both when the horizon covers the whole run. Last, it makes the same run
again under tracemalloc, which slows a run several times, and reports
`payload_kb_per_generation`: the bytes that the kept archive retains, less
its window and its fitness table, in KB of 1024 bytes per generation, the
payload history that a kept run holds for each generation (None for a
study with "payload_kb" false). The tool prints one JSON object with a row
per strategy:

    python tools/peak_rss.py
    python tools/peak_rss.py --src /path/to/other/src --strategies u:1

The defaults are the sizes of ROADMAP direction 11's 150 MB line: 100 x 100
on 6000 rows, where g:0.25 holds its horizon of 21 generations. A study
with a "tail" key sets Geometric's horizon tail in the worker (see
`run_one`); tools/horizon_curve.py runs its grid through this worker.
`run_worker` is the one runner of a tool's worker in a new interpreter;
tools/stream_equivalence.py runs its engines through it too.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_FEATURES = 5
STRATEGIES = ("u:1", "u:5", "g:0.25")


def run_one(study: dict) -> dict:
    """Worker: one run with the importable gsgp, then this process's usage.

    A study with a "tail" sets `gsgp.selection._HORIZON_TAIL` in this
    process only, as a test patches a constant, so every Geometric horizon
    of the run follows it.
    """
    import resource
    import time

    import gsgp
    from gsgp.archive import Archive

    if "tail" in study:
        gsgp.selection._HORIZON_TAIL = study["tail"]
    replaying = []  # the start time of the replay in progress, if any
    replayed = {"payloads": 0, "seconds": 0.0}
    replay = Archive._replay
    evaluate = getattr(gsgp.archive, "evaluate_block", None)  # None for older sources

    def timed_replay(self, *args):
        replaying.append(time.perf_counter())
        try:
            return replay(self, *args)
        finally:
            replayed["seconds"] += time.perf_counter() - replaying.pop()

    def counted_evaluate(payloads, *args, **kwargs):
        # The first argument is the block's payloads, packed or a list.
        if replaying:
            replayed["payloads"] += len(payloads)
        return evaluate(payloads, *args, **kwargs)

    Archive._replay = timed_replay
    if evaluate is not None:
        gsgp.archive.evaluate_block = counted_evaluate
    data = gsgp.synthetic_dataset("friedman-like", study["rows"], N_FEATURES, 0.0, study["seed"])
    split = gsgp.split_70_30(data, study["seed"])
    cfg = gsgp.EvolutionConfig(
        distribution=gsgp.parse_distribution(study["strategy"]),
        population_size=study["pop"],
        generations=study["generations"],
        seed=study["seed"],
    )
    start = time.perf_counter()
    result = gsgp.run_evolution(cfg, split, keep_archive=True)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    run_replayed = dict(replayed)
    archive = result.archive
    window = getattr(archive, "_window", None)
    held_block_mb = None
    if window is not None:
        held = min(len(window) - 1, len(archive.generations))
        held_block_mb = held * window[0].nbytes / 2**20
    readable = min(cfg.distribution.horizon, len(archive.generations))
    needed_mb = readable * study["pop"] * study["rows"] * 8 / 2**20
    released = study["generations"] - cfg.distribution.horizon
    read_peak_mb = read_s = None
    if released >= 0:
        start = time.perf_counter()
        archive.generations[released][0].semantics
        read_s = time.perf_counter() - start
        read_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    replays, final_test_rmse = getattr(result, "replays", None), result.test_rmse[-1]
    # float repr round-trips, so equal digests mean bit-identical curves
    curves = json.dumps([result.train_rmse, result.test_rmse, result.offset_histogram])
    del result, archive, window
    payload_kb = None
    if study.get("payload_kb", True):
        payload_kb = payload_kb_per_generation(gsgp.run_evolution, cfg, split)
    return {
        "strategy": study["strategy"],
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "minor_faults": usage.ru_minflt,
        "user_s": usage.ru_utime,
        "system_s": usage.ru_stime,
        "run_wall_s": wall,
        "horizon": cfg.distribution.horizon,
        "replays": replays,  # None for sources without the count
        "replayed_payloads": None if evaluate is None else run_replayed["payloads"],
        "replay_s": run_replayed["seconds"],
        "held_block_mb": held_block_mb,
        "needed_mb": needed_mb,
        "read_peak_rss_mb": read_peak_mb,
        "read_s": read_s,
        "payload_kb_per_generation": payload_kb,
        "final_test_rmse": final_test_rmse,
        "trajectory_sha256": hashlib.sha256(curves.encode()).hexdigest(),
    }


def payload_kb_per_generation(run_evolution, cfg, split):
    """KB (of 1024 bytes) per generation that a kept run's archive retains, less its window.

    The run is made under tracemalloc, and what it allocated and still holds
    once its result but the archive is dropped, less the archive's window
    and fitness table, is divided by the generation count. That is the
    payload history and the archive's few fixed arrays. The caches that a
    first run fills are warm by then.
    """
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        archive = run_evolution(cfg, split, keep_archive=True).archive
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    arrays = (getattr(archive, name, None) for name in ("_window", "_train_fitness"))
    held -= sum(array.nbytes for array in arrays if array is not None)
    return held / 1024 / len(archive.generations)


def run_worker(script, src, study: dict):
    """Run `script --worker` in a new interpreter that imports gsgp from `src`.

    The worker reads `study` as JSON on stdin and writes its result as JSON
    on stdout, which is returned. A worker that fails raises RuntimeError
    with its stderr.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, str(script), "--worker"],
        input=json.dumps(study),
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise RuntimeError(f"{Path(script).name} worker on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--src", default=str(ROOT / "src"), help="src directory of the engine")
    p.add_argument("--strategies", nargs="+", default=list(STRATEGIES))
    p.add_argument("--rows", type=int, default=6000)
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.worker:
        json.dump(run_one(json.load(sys.stdin)), sys.stdout)
        return 0
    study = {"rows": args.rows, "pop": args.pop, "generations": args.generations,
             "seed": args.seed}
    runs = [run_worker(__file__, args.src, {**study, "strategy": spec}) for spec in args.strategies]
    json.dump({"src": args.src, "study": study, "runs": runs}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
