"""Smoke test of tools/stream_equivalence.py: an engine against itself."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "stream_equivalence.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stream_equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_engine_is_equivalent_to_itself():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--a", src, "--b", src, "--runs", "3", "--pop", "10",
         "--generations", "3", "--datasets", "polynomial"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    assert [(c["strategy"], c["metric"]) for c in report["rmse"]] == [
        (s, f"final_{m}_rmse") for s in ("u:1", "u:5", "g:0.25") for m in ("train", "test")
    ]
    for cell in report["rmse"]:
        assert cell["identical"], cell
        assert cell["p_value"] == 1.0 and cell["median_ratio"] == 1.0
    sides = report["offset_law"]
    assert [(c["strategy"], c["side"]) for c in sides] == [
        (s, side) for s in ("u:1", "u:5", "g:0.25") for side in ("a", "b")
    ]
    for a, b in zip(sides[::2], sides[1::2]):
        assert {**a, "side": "b"} == b
        assert a["entrants"] > 0 and 0.0 <= a["p_value"] <= 1.0


def test_offset_laws_and_the_chi_square_bins():
    tool = load_tool()
    # building generation 1 reads offset 0 only; generation 2 reads 0 and 1
    assert tool.offset_law("u:5", 2) == [0.75, 0.25]
    assert tool.offset_law("g:0.25", 2) == pytest.approx([(1 + 0.25) / 2, 0.75 / 2])
    assert sum(tool.offset_law("g:0.25", 100)) == pytest.approx(1.0)
    assert tool.offset_law("u:1", 4) == [1.0, 0.0, 0.0, 0.0]
    u1 = tool.offset_law("u:1", 100)
    assert tool.chi_square([8] + [0] * 99, u1)["p_value"] == 1.0
    assert tool.chi_square([8, 1] + [0] * 98, u1)["p_value"] == 0.0
    # 3 expected in the last bin is merged into the one before it
    fit = tool.chi_square([50, 47, 3], [0.5, 0.47, 0.03])
    assert (fit["bins"], fit["dof"], fit["chi2"]) == (2, 1, 0.0)
