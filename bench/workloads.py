"""The benchmark's workloads: their inputs, one operation each, and the
correctness gate every result passes through.

Every workload draws a fixed set of inputs (one *pass*) from the seed;
a run repeats whole passes.  The size variable of each set is sampled
one point per stratum and mirrored about the middle of its log range,
with the outermost pair pinned to the two ends of the range.  Cost grows
steeply with wire size, so this keeps the mean, median and slowest
operation of a pass nearly independent of the seed while every input is
still drawn from the stated range.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import wirepol
import wirepol.cli

TEMPERATURES = (298.0, 1600.0, 2400.0)

# P of every result must match the stored reference to this much.
REFERENCE_TOL = 1e-9


def symmetric_strata(rng: random.Random, count: int) -> list[float]:
    """``count`` numbers in [0, 1], one per stratum of width 1/count, the
    set symmetric about 1/2 and holding both 0 and 1."""
    if count < 2:
        raise ValueError("a pass needs at least two inputs")
    low = [0.0] + [(i + rng.random()) / count for i in range(1, count // 2)]
    middle = [0.5] if count % 2 else []
    return low + middle + [1.0 - u for u in reversed(low)]


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _balanced_temperatures(rng: random.Random, count: int) -> list[float]:
    temps = [TEMPERATURES[i % len(TEMPERATURES)] for i in range(count)]
    rng.shuffle(temps)
    return temps


@dataclass(frozen=True)
class SingleLambda:
    """``emissivity_pair`` at one wavelength per call (figure1 and
    ``point --wavelength-um``): x log-uniform, lambda uniform over the
    fitted range of the optical data."""
    name: str = "single_lambda"
    count: int = 512
    x_lo: float = 1e-2
    x_hi: float = 1e3

    def inputs(self, seed: int) -> list[tuple[float, float, float]]:
        rng = random.Random(seed)
        xs = [_log_uniform(self.x_lo, self.x_hi, u)
              for u in symmetric_strata(rng, self.count)]
        lo, hi = wirepol.materials.FITTED_RANGE_UM
        lams = [lo + (hi - lo) * (i + rng.random()) / self.count
                for i in range(self.count)]
        rng.shuffle(lams)
        items = list(zip(xs, lams, _balanced_temperatures(rng, self.count)))
        rng.shuffle(items)
        return items

    def operation(self, models, workdir: Path):
        def run(item):
            x, lam, temp = item
            k = 2.0 * math.pi / lam
            n = wirepol.refraction_index(wirepol.permittivity(models[temp], lam))
            pair = wirepol.emissivity_pair(k, x / k, n)
            return [(polarization(pair.e_te, pair.e_tm), pair.e_te, pair.e_tm)], 0
        return run


@dataclass(frozen=True)
class BandThick:
    """``band_averaged_polarization`` on the computed band for thick wires
    (table2 and ``compare``)."""
    name: str = "band_thick"
    count: int = 6
    d_lo_um: float = 17.0
    d_hi_um: float = 120.0

    def inputs(self, seed: int) -> list[tuple[float, float]]:
        rng = random.Random(seed)
        ds = [_log_uniform(self.d_lo_um, self.d_hi_um, u)
              for u in symmetric_strata(rng, self.count)]
        items = list(zip(ds, _balanced_temperatures(rng, self.count)))
        rng.shuffle(items)
        return items

    def operation(self, models, workdir: Path):
        def run(item):
            diameter, temp = item
            res = wirepol.band_averaged_polarization(
                diameter / 2.0, temp, wirepol.COMPUTED_BAND, models[temp])
            return [(res.p_avg, res.e_te_bar, res.e_tm_bar)], 0
        return run


@dataclass(frozen=True)
class BandThinCli:
    """In-process ``wirepol sweep --variable radius --band`` commands over
    thin wires (the thin end of figure4), each writing a CSV."""
    name: str = "band_thin_cli"
    count: int = 6
    r_lo_um: float = 0.25
    r_hi_um: float = 2.5
    span: float = 1.25      # hi / lo radius of one command
    points: int = 3
    threads: int = 2

    def inputs(self, seed: int) -> list[tuple[float, float, float]]:
        rng = random.Random(seed)
        los = [_log_uniform(self.r_lo_um, self.r_hi_um / self.span, u)
               for u in symmetric_strata(rng, self.count)]
        items = [(lo, lo * self.span, temp) for lo, temp in
                 zip(los, _balanced_temperatures(rng, self.count))]
        rng.shuffle(items)
        return items

    def argv(self, item, output: Path, threads: int) -> list[str]:
        lo, hi, temp = item
        return ["sweep", "--variable", "radius", "--band", "0.5:0.75",
                "--spacing", "log", "--threads", str(threads),
                "--lo", repr(lo), "--hi", repr(hi),
                "--points", str(self.points), "--temp-k", repr(temp),
                "-o", str(output)]

    def command(self, item, output: Path, threads: int) -> bytes:
        code = wirepol.cli.main(self.argv(item, output, threads))
        if code != 0:
            raise RuntimeError(f"wirepol exited with {code}")
        return output.read_bytes()

    def threads_agree(self, item, workdir: Path) -> bool:
        """The CSV bytes of one command do not depend on ``--threads``."""
        path = workdir / "threads.csv"
        return self.command(item, path, 1) == self.command(item, path, self.threads)

    def operation(self, models, workdir: Path):
        def run(item):
            data = self.command(item, workdir / "sweep.csv", self.threads)
            lines = [ln for ln in data.decode().splitlines()
                     if not ln.startswith("#")]
            header = lines[0].split(",")
            cols = [header.index(c) for c in ("p_avg", "e_te_bar", "e_tm_bar")]
            rows = [ln.split(",") for ln in lines[1:]]
            return [tuple(float(r[c]) for c in cols) for r in rows], len(data)
        return run


WORKLOADS = {w.name: w for w in (SingleLambda(), BandThick(), BandThinCli())}


def polarization(e_te: float, e_tm: float) -> float:
    return (e_te - e_tm) / (e_te + e_tm)


def admissible(p: float, e_te: float, e_tm: float) -> bool:
    """Finite values, both emissivities >= 0, and |P| <= 1."""
    if not all(math.isfinite(v) for v in (p, e_te, e_tm)):
        return False
    return e_te >= 0.0 and e_tm >= 0.0 and abs(p) <= 1.0
