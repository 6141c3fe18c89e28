"""The benchmark declaration, and the command without the program source."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_declaration_matches_the_code():
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in decl["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in decl["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in decl["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in decl["end_to_end"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_ooc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program source" in proc.stderr
