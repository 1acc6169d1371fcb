import csv
import json

import numpy as np
import pytest

import gsgp.experiment as experiment
from gsgp.data import Dataset, split_70_30, synthetic_dataset
from gsgp.errors import NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig, run_evolution
from gsgp.experiment import (
    BASELINE_LABEL,
    Campaign,
    emit_boxplot_data,
    resolve_strategies,
    run_campaign,
    run_seed,
    split_seed,
    stable_hash64,
    write_outputs,
)
from gsgp.selection import Geometric, UniformLastK


def tiny_campaign(**kw):
    base = dict(
        dataset=synthetic_dataset("polynomial", 50, 2, 0.05, seed=6),
        strategies=["u:1", "u:3"],
        runs=3,
        base_seed=11,
        template=EvolutionConfig(population_size=12, generations=6),
        source="synthetic:test",
    )
    base.update(kw)
    return Campaign(**base)


def test_stable_hash_is_process_stable():
    assert stable_hash64("run", "u:5", 3) == stable_hash64("run", "u:5", 3)
    assert stable_hash64("run", "u:5", 3) != stable_hash64("run", "u:5", 4)
    assert 0 <= stable_hash64("x") < 2**63


def test_split_seeds_pair_across_strategies():
    assert split_seed(5, 0) == split_seed(5, 0)
    assert split_seed(5, 0) != split_seed(5, 1)
    assert run_seed(5, "u:1", 0) != run_seed(5, "u:5", 0)


def test_resolve_strategies_injects_baseline_and_dedupes():
    resolved = resolve_strategies(["u:5", "g:0.25", "u:5"])
    assert [s.label() for s in resolved] == ["u:1", "u:5", "g:0.25"]
    kept = resolve_strategies([UniformLastK(1), Geometric(0.5)])
    assert [s.label() for s in kept] == ["u:1", "g:0.5"]


def test_single_run_report_median_matches_direct_run():
    c = tiny_campaign(strategies=["u:1"], runs=1)
    report = run_campaign(c)
    entry = report.report_dict()["strategies"][0]
    split = split_70_30(c.dataset, split_seed(c.base_seed, 0))
    cfg = EvolutionConfig(
        population_size=12,
        generations=6,
        distribution=UniformLastK(1),
        seed=run_seed(c.base_seed, "u:1", 0),
    )
    direct = run_evolution(cfg, split)
    assert entry["median_test_rmse"] == direct.test_rmse[-1]
    assert entry["median_train_rmse"] == direct.train_rmse[-1]


def test_report_is_deterministic_across_runs_and_jobs(tmp_path):
    blobs = []
    for i, jobs in enumerate((1, 1, 4)):
        report = run_campaign(tiny_campaign(jobs=jobs))
        out = tmp_path / f"out{i}"
        write_outputs(report, out)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_run_counts_are_byte_identical_across_jobs(tmp_path):
    # inputs x 1e150: products of three inputs overflow, so runs redraw
    data = synthetic_dataset("friedman-like", 60, 5, 0.0, seed=3)
    scaled = Dataset("scaled", data.inputs * 1e150, data.targets)
    bodies = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        write_outputs(run_campaign(tiny_campaign(dataset=scaled, jobs=jobs)), out)
        bodies.append((out / "report.json").read_bytes())
    assert bodies[0] == bodies[1]
    entries = json.loads(bodies[0])["strategies"]
    for entry in entries:
        assert entry["complete"]
        assert len(entry["nonfinite_retries"]) == len(entry["final_test_rmse"]) == 3
        assert len(entry["seed_regenerations"]) == 3
    assert sum(sum(e["nonfinite_retries"]) for e in entries) > 0
    assert sum(sum(e["seed_regenerations"]) for e in entries) > 0


def test_report_contents():
    report = run_campaign(tiny_campaign())
    body = report.report_dict()
    assert body["schema_version"] == 2
    assert body["campaign"]["rng_stream"] == 2
    assert body["baseline"] == BASELINE_LABEL
    names = [s["name"] for s in body["strategies"]]
    assert names == ["u:1", "u:3"]
    u1, u3 = body["strategies"]
    assert u1["p_value_vs_baseline"] is None
    assert 0.0 <= u3["p_value_vs_baseline"] <= 1.0
    assert isinstance(u3["improved_vs_baseline"], bool)
    assert len(u1["final_test_rmse"]) == 3
    assert len(u1["offset_histograms"]) == 3
    assert u1["nonfinite_retries"] == u1["seed_regenerations"] == [0, 0, 0]
    assert u1["complete"] and u3["complete"]
    assert body["dataset"]["rows"] == 50
    assert body["campaign"]["paired_splits"] is True


def test_offset_histograms_respect_strategy():
    report = run_campaign(tiny_campaign(strategies=["u:1", "g:0.5"], runs=2))
    u1 = report.strategy("u:1")
    assert all(set(h) <= {0} for h in u1.offset_histograms)
    g5 = report.strategy("g:0.5")
    assert any(max(h) > 0 for h in g5.offset_histograms)


def test_boxplot_csv_shape(tmp_path):
    report = run_campaign(tiny_campaign())
    path = tmp_path / "box.csv"
    emit_boxplot_data(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3  # header + one row per run
    assert lines[0] == "u:1,u:3"
    for s in report.strategies:
        column = [float(r.split(",")[report.strategies.index(s)]) for r in lines[1:]]
        assert column == s.final_test_rmse


def test_boxplot_requires_strategies(tmp_path):
    report = run_campaign(tiny_campaign())
    report.strategies = []
    with pytest.raises(ValueError):
        emit_boxplot_data(report, tmp_path / "never-written.csv")
    assert not (tmp_path / "never-written.csv").exists()


def test_run_failures_are_recorded_and_campaign_continues(monkeypatch):
    real = experiment.run_evolution
    calls = {"n": 0}

    def flaky(cfg, split, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NonFiniteSemanticsError("injected abort")
        return real(cfg, split, **kw)

    monkeypatch.setattr(experiment, "run_evolution", flaky)
    report = run_campaign(tiny_campaign(strategies=["u:1"], runs=3))
    s = report.strategy("u:1")
    assert not s.complete
    assert s.runs_completed == 2
    assert s.failures == [[1, "injected abort"]]
    assert report.any_failures
    body = report.report_dict()
    assert body["strategies"][0]["complete"] is False


def test_unexpected_exception_is_recorded_by_type(monkeypatch, tmp_path):
    real = experiment.run_evolution
    doomed = run_seed(11, "u:3", 1)

    def crashing(cfg, split, **kw):
        if cfg.seed == doomed:
            raise RuntimeError("injected crash")
        return real(cfg, split, **kw)

    monkeypatch.setattr(experiment, "run_evolution", crashing)
    bodies = []
    for jobs in (1, 2):
        report = run_campaign(tiny_campaign(jobs=jobs))
        assert report.strategy("u:1").complete
        u3 = report.strategy("u:3")
        assert u3.failures == [[1, "RuntimeError: injected crash"]]
        assert u3.runs_completed == 2
        paths = write_outputs(report, tmp_path / f"jobs{jobs}")
        bodies.append(paths["report"].read_bytes())
        with open(paths["runs"]) as fh:
            rows = [row for row in csv.DictReader(fh) if row["strategy"] == "u:3"]
        assert [int(row["run_index"]) for row in rows] == [0, 2]
        for row in rows:
            r = int(row["run_index"])
            assert int(row["seed"]) == run_seed(11, "u:3", r)
            assert int(row["split_seed"]) == split_seed(11, r)
        entry = json.loads(bodies[-1])["strategies"][1]
        assert [float(row["final_test_rmse"]) for row in rows] == entry["final_test_rmse"]
    assert bodies[0] == bodies[1]


def test_write_outputs_files(tmp_path):
    report = run_campaign(tiny_campaign())
    paths = write_outputs(report, tmp_path / "exp")
    body = json.loads(paths["report"].read_text())
    assert body["baseline"] == "u:1"
    meta = json.loads(paths["metadata"].read_text())
    assert "started_at" in meta and "total_seconds" in meta
    with open(paths["runs"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3
    assert {r["strategy"] for r in rows} == {"u:1", "u:3"}
    assert float(rows[0]["final_test_rmse"]) > 0


def test_campaign_validation():
    with pytest.raises(ValueError):
        tiny_campaign(runs=0)
    with pytest.raises(ValueError):
        tiny_campaign(jobs=0)
    with pytest.raises(ValueError):
        tiny_campaign(strategies=[])
