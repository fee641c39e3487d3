"""Desk-scale smoke test of the benchmark harness (the ``smoke`` workload, ~10 s).

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics named when the benchmark was specified, by their specified names.
NAMED = [
    "setup_s", "steps_per_s.strang", "steps_per_s.s9odr6a", "steps_per_s.s17odr8a",
    "study_s", "cli_solve_s", "peak_rss_mb", "setup_peak_rss_mb",
    "lattice.cbc_s", "lattice.cbc_candidates",
    "antialias.build_s", "antialias.save_s", "antialias.max_norm2",
    "antialias.load_s", "antialias.sha256_s", "transform.fft_pair_s",
    "transform.fft_pair_s.n8192", "transform.fft_pair_s.n65536",
    "transform.fft_pair_s.n1048576",
    "operators.make_kinetic_s", "operators.make_potential_s", "operators.make_gaussian_s",
    "operators.kinetic_apply_s", "operators.potential_apply_s",
    *(f"splitting.{m}.{s}" for m in ("pairs_per_step", "multiplier_arrays", "multiplier_mb",
                                     "step_s", "evolve_call_s", "fft_floor_ratio")
      for s in ("strang", "s9odr6a", "s17odr8a")),
    "experiments.run_convergence_s", "experiments.reference_s", "experiments.sweep_s",
    "experiments.emit_s", "diagnostics.commutator_sweep_s", "cli.overhead_s",
]

#: Named metrics the benchmark does not emit under that name, and why.
DROPPED = {
    "study_s": "per layer as experiments.study_s: 13-15% run-to-run spread on a 2-core "
               "box, above a third of the largest allowed bound",
    "cli_solve_s": "per layer as cli.solve_s: 13-25% run-to-run spread on a 2-core box, "
                   "above a third of the largest allowed bound",
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    proc = run_bench("--workload", "smoke", "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH[section]}
    assert all(isinstance(m["value"], (int, float)) and m["value"] != 0
               for m in result["metrics"].values())


def test_named_metrics_emitted_or_dropped():
    declared = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    missing = [name for name in NAMED if name not in declared and name not in DROPPED]
    assert not missing
    assert not set(DROPPED) & declared


def test_wrong_pin_is_one_failed_op(monkeypatch, capfd):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    monkeypatch.setitem(run.PINS, "smoke", dict(run.PINS["smoke"], fitted_order=99.0))
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "smoke", "--seconds", "0.5"]) == 0
    result = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 1 and result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "solve-d2", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
