"""Self-test of the benchmark at a tiny size: population 10 x 3 generations."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import workloads
from spans import Span, Tracer, span_faults

DECLARED = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
EXACT = [name for name, unit in layers.UNITS.items() if unit in layers.EXACT_UNITS]


def tiny(name):
    return replace(workloads.WORKLOADS[name], population=10, generations=3)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def declared(key):
    return {m["name"]: m["unit"] for m in DECLARED[key]}


def test_declared_workloads_are_the_benchmark_workloads():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    gsgp = workloads.load_gsgp()
    result = workloads.run_workload(tiny(name), seed=3, seconds=0, trace=False)
    # set-up re-imports the package; the modules callers hold are put back
    assert sys.modules["gsgp"] is gsgp
    assert sys.modules["gsgp.archive"] is gsgp.archive
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    first, second = (
        workloads.run_workload(tiny(name), seed=3, seconds=0, trace=True) for _ in range(2)
    )
    for result in (first, second):
        assert result["correct"], result["failures"]
        assert units(result) == declared("per_layer")
    counts = [{n: r["metrics"][n]["value"] for n in EXACT} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["exprtree.eval_calls"] > 0
    assert first["digests"] == second["digests"]


def test_spans_nest_inside_their_parents_across_threads():
    gsgp = workloads.load_gsgp()
    w = tiny("campaign")
    points = layers.trace_points(gsgp)
    before = [getattr(p.owner, p.attr) for p in points]
    tracer = Tracer()
    with tracer.installed(points):
        gsgp.run_campaign(
            gsgp.Campaign(
                workloads.make_dataset(gsgp, w, 3),
                list(w.strategies),
                runs=1,
                template=gsgp.EvolutionConfig(population_size=10, generations=3),
                jobs=2,
            )
        )
    assert [getattr(p.owner, p.attr) for p in points] == before
    assert {s.name for s in tracer.spans} >= {
        "data.split", "exprtree.gen", "exprtree.eval", "semantics.sigmoid",
        "semantics.fitness", "archive.make", "selection.tournament", "evolve.run",
    }
    assert span_faults(tracer.spans) == []
    assert all(s.self_s >= 0 for s in tracer.spans)


def test_span_faults_flags_escaping_child_and_negative_self_time():
    parent = Span("archive.make", None, 0.0)
    parent.end = 1.0
    escaping = Span("exprtree.eval", parent, 0.5)
    escaping.end = 1.5
    overfull = Span("archive.seed", None, 0.0)
    overfull.end = 1.0
    overfull.child_s = 2.0
    assert span_faults([parent, escaping, overfull]) == [escaping, overfull]


def test_installed_restores_bindings_when_the_block_raises():
    gsgp = workloads.load_gsgp()
    points = layers.trace_points(gsgp)
    before = [getattr(p.owner, p.attr) for p in points]
    with pytest.raises(RuntimeError):
        with Tracer().installed(points):
            raise RuntimeError("inside")
    assert [getattr(p.owner, p.attr) for p in points] == before


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
