"""wirepol benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload single_lambda --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; wirepol is imported from its
``src/``.  The untraced run (``--trace 0``) reports the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` repeats the untraced
run, then traces exactly one pass of the workload and reports the
per-layer metrics.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result set,
with the run environment, and in traced runs every span, is written to
``.bench_out/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE_SEED = 0
REFERENCE_FILE = BENCH / "reference_seed0.json"

# Setup is timed in this many fresh interpreters after one discarded
# start that fills the bytecode and file caches; the median is reported.
SETUP_REPEATS = 5
# The warm-up runs operations until this much time has passed.
WARMUP_SECONDS = 0.5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import wirepol, wirepol.cli
db = wirepol.load_database()
models = [wirepol.model_for_temperature(db, t) for t in {temps!r}]
print(repr(time.perf_counter() - t0))
"""


class Gate:
    """Counts operations and failures.  An operation fails if it raised,
    if a result is not admissible, if P differs from the reference by
    more than the tolerance, or if P of an input changes between passes."""

    def __init__(self, references=None):
        self.references = references
        self.seen: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, rows) -> bool:
        self.attempted += 1
        ok = rows is not None and len(rows) > 0 and all(
            workloads.admissible(*row) for row in rows)
        if ok:
            ps = [row[0] for row in rows]
            if self.references is not None:
                ref = self.references[index]
                ok = len(ref) == len(ps) and all(
                    abs(p - r) <= workloads.REFERENCE_TOL for p, r in zip(ps, ref))
            ok = ok and self.seen.setdefault(index, ps) == ps
        if not ok:
            self.failed += 1
        return ok


def _attempt(op, item):
    try:
        return op(item)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, 0


def run_pass(items, op, gate, latencies):
    """One operation per input; returns (results admitted, output bytes)."""
    results = out_bytes = 0
    for index, item in enumerate(items):
        t0 = time.perf_counter()
        rows, nbytes = _attempt(op, item)
        latencies.append(time.perf_counter() - t0)
        if gate.check(index, rows):
            results += len(rows)
            out_bytes += nbytes
    return results, out_bytes


def timed_run(items, op, gate, seconds):
    """Whole passes, as many as come nearest to ``seconds`` (at least one),
    so every run times the same mix of inputs.  Returns the time of every
    operation, the results admitted, the seconds taken and the passes."""
    latencies: list[float] = []
    results = passes = 0
    start = time.perf_counter()
    while True:
        results += run_pass(items, op, gate, latencies)[0]
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return latencies, results, elapsed, passes


def warm_up(items, op, gate):
    start = time.perf_counter()
    for index, item in enumerate(items):
        gate.check(index, _attempt(op, item)[0])
        if time.perf_counter() - start >= WARMUP_SECONDS:
            break


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median time in a fresh interpreter to import wirepol and its CLI,
    load the material database and build the workload's models."""
    code = SETUP_CODE.format(temps=workloads.TEMPERATURES)
    samples = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def _percentile(samples, q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, traced_elapsed, traced_results, untraced_rate,
                  output_bytes):
    """Per-layer metrics from the spans of one traced pass; ``untraced_rate``
    is the untraced run's results per second."""
    selfs = tracing.self_times(spans)
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    sums: dict[str, float] = {}
    maxes: dict[str, float] = {}
    names = {s[0]: s[2] for s in spans}
    evals_in_bands = 0
    for span_id, parent, name, t0, t1, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + (t1 - t0) * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + selfs[span_id] * 1e3
        for key, value in (attrs or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
            maxes[f"{name}.{key}"] = max(maxes.get(f"{name}.{key}", 0.0), value)
        if (name == "scattering.emissivity_pair"
                and names.get(parent) == "spectral.band_averaged_polarization"):
            evals_in_bands += 1

    sf = ("special_functions.bessel_j_all_orders",
          "special_functions.hankel1_all_orders",
          "special_functions.bessel_j_log_derivative")
    pair, band = "scattering.emissivity_pair", "spectral.band_averaged_polarization"
    orders_used = sums.get(f"{pair}.terms_used", 0)
    bands = calls.get(band, 0)
    traced_throughput = traced_results / traced_elapsed
    m = {}
    for name, work in zip(sf, ("orders", "orders", "steps")):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.{work}"] = (sums.get(f"{name}.{work}", 0), "count")
        m[f"{name}.ms"] = (ms.get(name, 0.0), "ms")
    # self times partition the traced thread-time, so this stays <= 1
    # when the CLI's worker threads overlap
    m["special_functions.time_share"] = (
        _ratio(sum(self_ms.get(n, 0.0) for n in sf), sum(self_ms.values())),
        "ratio")
    m[f"{pair}.calls"] = (calls.get(pair, 0), "count")
    m[f"{pair}.self_ms"] = (self_ms.get(pair, 0.0), "ms")
    m["scattering.orders_used"] = (orders_used, "count")
    m["scattering.order_yield"] = (
        _ratio(orders_used, sums.get(f"{sf[1]}.orders", 0)), "ratio")
    m["scattering.recurrence_yield"] = (
        _ratio(orders_used, sums.get(f"{sf[2]}.steps", 0)), "ratio")
    m["scattering.truncation_error_max"] = (
        maxes.get(f"{pair}.truncation_error", 0.0), "rel")
    m[f"{band}.calls"] = (bands, "count")
    m[f"{band}.self_ms"] = (self_ms.get(band, 0.0), "ms")
    m["spectral.evals_per_band"] = (_ratio(evals_in_bands, bands), "count")
    m["spectral.node_yield"] = (
        _ratio(sums.get(f"{band}.nodes", 0), evals_in_bands), "ratio")
    m["spectral.planck_radiance.ms"] = (ms.get("spectral.planck_radiance", 0.0), "ms")
    m["spectral.quadrature_error_max"] = (
        maxes.get(f"{band}.quadrature_error", 0.0), "abs")
    m["materials.permittivity.calls"] = (calls.get("materials.permittivity", 0), "count")
    m["materials.permittivity.ms"] = (ms.get("materials.permittivity", 0.0), "ms")
    m["materials.load_database.ms"] = (ms.get("materials.load_database", 0.0), "ms")
    m["cli.main.calls"] = (calls.get("cli.main", 0), "count")
    m["cli.main.self_ms"] = (self_ms.get("cli.main", 0.0), "ms")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["trace.overhead_frac"] = (
        1.0 - _ratio(traced_throughput, untraced_rate), "ratio")
    return m


def run(spec, seed, seconds, trace, references=None, setup_repeats=SETUP_REPEATS):
    """Run one workload.  Returns (end_to_end, per_layer, gate, spans); the
    metric dicts map name -> (value, unit) and per_layer is empty unless
    ``trace``."""
    items = spec.inputs(seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        db = wirepol.load_database()
        models = {t: wirepol.model_for_temperature(db, t)
                  for t in workloads.TEMPERATURES}
        op = spec.operation(models, workdir)
        gate = Gate(references)
        warm_up(items, op, gate)
        if isinstance(spec, workloads.BandThinCli):
            gate.attempted += 2
            try:
                agree = spec.threads_agree(items[0], workdir)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                agree = False
            if not agree:
                gate.failed += 2
        latencies, results, elapsed, passes = timed_run(items, op, gate, seconds)
        throughput = results / elapsed
        e2e = {
            "throughput_per_s": (throughput, "1/s"),
            "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "latency_ms_p99": (_percentile(latencies, 99) * 1e3, "ms"),
            "latency_samples": (len(latencies), "count"),
            "passes": (passes, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        if setup_repeats:
            e2e["setup_s"] = (setup_seconds(setup_repeats), "s")
        per_layer, spans = {}, []
        if trace:
            with tracing.Tracer() as tracer:
                t0 = time.perf_counter()
                db = wirepol.load_database()
                models = {t: wirepol.model_for_temperature(db, t)
                          for t in workloads.TEMPERATURES}
                traced_op = spec.operation(models, workdir)
                traced_results, out_bytes = run_pass(items, traced_op, gate, [])
                traced_elapsed = time.perf_counter() - t0
            spans = tracer.spans
            per_layer = layer_metrics(spans, traced_elapsed, traced_results,
                                      throughput, out_bytes)
        e2e["failed_fraction"] = (gate.failed / gate.attempted, "ratio")
        return e2e, per_layer, gate, spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "wirepol"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


def load_references(name, seed):
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text())[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    e2e, per_layer, gate, spans = run(
        spec, args.seed, args.seconds, bool(args.trace),
        references=load_references(spec.name, args.seed),
        setup_repeats=0 if args.trace else SETUP_REPEATS)

    env = environment(spec.name, args.seed)
    everything = {**e2e, **per_layer}
    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in everything.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'attempted':<48} {gate.attempted:>16d} count")
    print(f"{'failed':<48} {gate.failed:>16d} count")

    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    if spans:
        tracing.write_spans(spans, OUT / f"{stem}.spans.jsonl")
    group, reported = ("per_layer", per_layer) if args.trace else ("end_to_end", e2e)
    metrics = {}
    for entry in declared[group]:
        value, unit = reported[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "environment": env,
         "all_metrics": {k: v[0] for k, v in everything.items()}}, indent=1))
    print(json.dumps(result))
    return 0


if not (ROOT / "src" / "wirepol" / "__init__.py").is_file():
    sys.exit(f"{ROOT / 'src' / 'wirepol'} not found: run from a wirepol checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import wirepol  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
