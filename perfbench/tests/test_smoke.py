"""Smoke test of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tiresense.cli  # noqa: E402,F401  (loads every layer module)
from tracer import Tracer  # noqa: E402

RUN = ["perfbench/run.py", "--workload", "cli_cold", "--seed", "3", "--seconds", "1"]


def test_tracer_wraps_every_binding_site_and_restores_them():
    features = sys.modules["tiresense.features"]
    dsp = sys.modules["tiresense.dsp"]
    original = dsp.segment_turns
    tracer = Tracer()
    tracer.install()
    try:
        assert features.segment_turns is dsp.segment_turns is not original
        assert sys.modules["tiresense.cli"].read_trace is sys.modules["tiresense.io"].read_trace
        assert "tiresense.simulate" in tracer.binding_sites  # the package attribute
        assert "tiresense.cli.accel_to_displacement" in tracer.binding_sites
        with tracer.root("pass") as root:
            dsp.accel_to_displacement(np.sin(np.arange(1000) / 50.0), 1000.0, 3.0)
    finally:
        tracer.uninstall()
    assert dsp.segment_turns is original and features.segment_turns is original

    fns = tracer.summary(root)["functions"]
    outer, inner = fns["dsp.accel_to_displacement"], fns["dsp.highpass"]
    assert outer["calls"] == 1 and inner["calls"] == 2
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]


def test_run_prints_every_metric_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, *RUN, "--trace", "0"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *RUN, "--trace", "0"], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
