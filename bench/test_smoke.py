"""Smoke test of the benchmark at tiny sizes: every workload runs, every
declared metric is emitted with its unit, and the correctness gate
counts a wrong reference value as a failure."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "single_lambda": workloads.SingleLambda(count=6, x_hi=10.0),
    "band_thick": workloads.BandThick(count=2, d_lo_um=1.0, d_hi_um=1.2),
    "band_thin_cli": workloads.BandThinCli(count=2, points=2),
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _check_declared(metrics, group):
    for entry in DECLARED[group]:
        value, unit = metrics[entry["name"]]
        assert unit == entry["unit"], entry["name"]
        assert math.isfinite(value), entry["name"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric(name):
    e2e, per_layer, gate, spans = run.run(TINY[name], seed=1, seconds=0,
                                          trace=True, setup_repeats=1)
    _check_declared(e2e, "end_to_end")
    _check_declared(per_layer, "per_layer")
    assert e2e["failed_fraction"] == (0.0, "ratio")
    assert gate.attempted > 0 and gate.failed == 0
    assert spans
    if name != "single_lambda":
        assert per_layer["spectral.evals_per_band"][0] == 192
        assert per_layer["spectral.node_yield"][0] == pytest.approx(1 / 3)
    else:
        assert per_layer["spectral.band_averaged_polarization.calls"][0] == 0


def test_perturbed_reference_counts_as_failure():
    spec = TINY["single_lambda"]
    items = spec.inputs(1)
    db = run.wirepol.load_database()
    models = {t: run.wirepol.model_for_temperature(db, t)
              for t in workloads.TEMPERATURES}
    op = spec.operation(models, run.OUT)
    references = [[row[0] for row in op(item)[0]] for item in items]
    e2e, _, gate, _ = run.run(spec, seed=1, seconds=0, trace=False,
                              references=references, setup_repeats=0)
    assert gate.failed == 0

    references[0][0] += 10 * workloads.REFERENCE_TOL
    e2e, _, gate, _ = run.run(spec, seed=1, seconds=0, trace=False,
                              references=references, setup_repeats=0)
    assert gate.failed >= 1
    assert e2e["failed_fraction"][0] == gate.failed / gate.attempted


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "single_lambda",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
