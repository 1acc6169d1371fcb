import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsgp
import gsgp.cli as cli
import gsgp.experiment as experiment
from gsgp.cli import build_parser, main, parse_synthetic_spec
from gsgp.errors import NonFiniteSemanticsError
from gsgp.evolve import EvolutionConfig


def test_synthetic_spec_parsing():
    d = parse_synthetic_spec("polynomial:40:3:0.1")
    assert d.rows == 40 and d.n_features == 3
    seeded = parse_synthetic_spec("polynomial:40:3:0.1:9")
    assert not (seeded.targets == d.targets).all()
    with pytest.raises(ValueError):
        parse_synthetic_spec("polynomial:40")
    with pytest.raises(ValueError):
        parse_synthetic_spec("cubic:40:3:0.0")


def test_bad_synthetic_spec_names_the_field(capsys):
    for spec, message in (
        ("friedman-like:abc:5:0", "rows 'abc' is not an integer"),
        ("friedman-like:30:5.5:0", "features '5.5' is not an integer"),
        ("friedman-like:30:5:low", "noise 'low' is not a number"),
        ("friedman-like:30:5:0:x", "seed 'x' is not an integer"),
    ):
        with pytest.raises(ValueError, match=f"bad synthetic spec '{spec}': {message}"):
            parse_synthetic_spec(spec)
    assert main(["--synthetic", "friedman-like:abc:5:0", "--runs", "1"]) == 1
    assert "rows 'abc' is not an integer" in capsys.readouterr().err
    assert main(["--synthetic", "friedman-like:30:5:0:-1", "--runs", "1"]) == 1
    assert "gsgp: error: seed must be >= 0" in capsys.readouterr().err
    for noise in ("-1", "nan", "inf"):
        with pytest.raises(ValueError, match="noise must be a finite number >= 0"):
            parse_synthetic_spec(f"friedman-like:30:5:{noise}")


def test_cli_rejects_a_dataset_too_small_to_split(capsys):
    code = main(["--synthetic", "friedman-like:5:5:0", "--runs", "2", "--generations", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "5 rows splits 70/30 into 4 train and 1 test rows" in captured.err
    assert captured.out == ""  # no run started


def test_cli_rejects_has_header_without_a_csv(capsys):
    code = main(["--synthetic", "friedman-like:30:5:0", "--has-header", "--runs", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "--has-header" in captured.err
    assert captured.out == ""  # no run started


def test_cli_rejects_an_unwritable_out_before_any_run(tmp_path, monkeypatch, capsys):
    def never(campaign):
        pytest.fail("run_campaign called despite an unwritable --out")

    monkeypatch.setattr(cli, "run_campaign", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--synthetic", "polynomial:50:2:0.0", "--runs", "2",
                 "--out", str(blocker / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert "gsgp: error" in captured.err
    assert captured.out == ""


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "--synthetic", "polynomial:40:2:0.05",
            "--strategy", "u:2",
            "--runs", "2",
            "--generations", "4",
            "--pop", "10",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [s["name"] for s in report["strategies"]] == ["u:1", "u:2"]
    assert report["campaign"]["evolution"]["population_size"] == 10
    printed = capsys.readouterr().out
    assert "median test" in printed
    assert (out / "boxplot.csv").exists()
    assert (out / "runs.csv").exists()
    assert (out / "metadata.json").exists()


def test_cli_summary_without_out(capsys):
    code = main(
        ["--synthetic", "polynomial:40:2:0.0", "--runs", "1",
         "--generations", "2", "--pop", "8"]
    )
    assert code == 0
    assert "u:1" in capsys.readouterr().out


def test_cli_missing_dataset_is_config_error(capsys):
    code = main(["--dataset", "/nonexistent/airfoil.csv", "--runs", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_reports_a_csv_line_past_the_field_limit_as_one_error_line(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("1,2\n" + "x" * 200_000 + ",3\n4,5\n")
    assert main(["--dataset", str(path), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert captured.err.startswith(f"gsgp: error: {path}: unreadable CSV at line 2: ")


def test_cli_names_the_path_of_a_one_row_csv(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("1,2,3\n")
    assert main(["--dataset", str(path), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"gsgp: error: {path}: need at least 2 data rows, got 1\n"
    assert captured.out == ""


def test_cli_names_the_path_of_a_csv_too_small_to_split(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    assert main(["--dataset", str(path), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gsgp: error: {path}: a dataset of 3 rows splits 70/30 ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_bad_strategy_is_config_error(capsys):
    code = main(
        ["--synthetic", "polynomial:40:2:0.0", "--strategy", "u:zero", "--runs", "1"]
    )
    assert code == 1


def test_cli_requires_a_data_source():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--runs", "1"])
    assert exc.value.code == 1


def test_cli_rejects_both_sources():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["--dataset", "x.csv", "--synthetic", "polynomial:40:2:0.0"]
        )
    assert exc.value.code == 1


def test_cli_bad_evolution_params(capsys):
    code = main(
        ["--synthetic", "polynomial:40:2:0.0", "--crossover-rate", "1.5", "--runs", "1"]
    )
    assert code == 1
    code = main(
        ["--synthetic", "friedman-like:30:5:0", "--runs", "1", "--pop", "4",
         "--generations", "2", "--max-depth", "-1"]
    )
    assert code == 1
    assert "max_initial_depth must be >= 0" in capsys.readouterr().err


def test_cli_defaults_are_the_evolution_config_defaults(monkeypatch):
    templates = []

    class Stop(Exception):
        pass

    def record(campaign):
        templates.append(campaign.template)
        raise Stop

    monkeypatch.setattr(cli, "run_campaign", record)
    with pytest.raises(Stop):
        main(["--synthetic", "polynomial:40:2:0.0"])
    assert templates == [EvolutionConfig()]


def test_cli_summary_when_every_run_fails(monkeypatch, capsys):
    def diverge(cfg, split):
        raise NonFiniteSemanticsError("non-finite semantics in Leaf payload at row 0")

    monkeypatch.setattr(experiment, "run_evolution", diverge)
    code = main(["--synthetic", "polynomial:40:2:0.0", "--runs", "2", "--strategy", "u:3"])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    summary = [line for line in lines if "median train" in line]
    assert len(summary) == 2
    assert all("median train n/a  median test n/a" in line for line in summary)
    assert all("[INCOMPLETE: 2 runs failed]" in line for line in summary)


def test_module_entry_point(tmp_path):
    src = str(Path(gsgp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def gsgp_main(spec, out):
        return subprocess.run(
            [sys.executable, "-m", "gsgp", "--synthetic", spec, "--runs", "1",
             "--pop", "4", "--generations", "2", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )

    done = gsgp_main("friedman-like:30:5:0", tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "boxplot.csv", "metadata.json", "report.json", "runs.csv",
    ]
    bad = gsgp_main("friedman-like:abc:5:0", tmp_path / "bad")
    assert bad.returncode == 1
    assert "rows 'abc' is not an integer" in bad.stderr
    assert not (tmp_path / "bad").exists()
