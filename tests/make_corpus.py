"""Numeric corpus of wirepol outputs, for the regression test in
``test_corpus.py``.

``python tests/make_corpus.py SECTION...`` rewrites the named sections of
``tests/data/corpus.json`` from the code on the path and writes the others
back as stored, byte for byte.  Rewriting a section is a change to test
data: do it only for a move in its numbers that is understood and stated.
The file holds four sections, each entry with its inputs:
  - ``single_wavelength``: e_TE, e_TM and P at one wavelength, on 3
    temperatures x 5 wavelengths x 30 size parameters x = 2 pi a / lambda
    from 1e-4 to 4.9e4;
  - ``band``: band P, e_bar and the quadrature estimate on 3 temperatures
    x 8 diameters over ``COMPUTED_BAND``;
  - ``csv``: every value of the ``table2``, ``figure1 --points 12`` and
    ``figure4 --points 5`` sweep CSVs;
  - ``polsim``: the exit code, stdout, stderr and the three scan files of
    ``polsim`` on the runs of ``POLSIM``, as text: they are compared byte
    for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from wirepol import cli
from wirepol.materials import load_database, model_for_temperature, \
    permittivity, refraction_index
from wirepol.scattering import emissivity_pair, polarization_of
from wirepol.spectral import COMPUTED_BAND, band_averaged_polarization

PATH = Path(__file__).parent / "data" / "corpus.json"

TEMPERATURES_K = (298.0, 1600.0, 2400.0)
WAVELENGTHS_UM = (0.4, 0.5, 0.625, 1.0, 2.5)
SIZES = tuple(np.geomspace(1e-4, 4.9e4, 30).tolist())
DIAMETERS_UM = (0.5, 1.0, 2.0, 5.0, 17.0, 35.0, 100.0, 120.0)
SWEEPS = {
    "table2": ["sweep", "--preset", "table2"],
    "figure1": ["sweep", "--preset", "figure1", "--points", "12"],
    "figure4": ["sweep", "--preset", "figure4", "--points", "5"],
}
POLSIM = {
    "default": ["--p-true", "0.221"],
    "noise": ["--p-true", "0.221", "--noise-rms", "0.005", "--seed", "1"],
    "axis-background": ["--p-true", "0.221", "--axis-deg", "120", "--background", "0.3",
                        "--noise-rms", "0.02", "--step-deg", "0.25"],
    "warns": ["--p-true", "0.2", "--noise-rms", "0.3", "--seed", "3"],
    "unpolarized": ["--p-true", "0", "--axis-deg", "75"],
    "polarized": ["--p-true", "1", "--axis-deg", "359.5", "--step-deg", "1"],
}
SCAN_FILES = ("step1", "step2a", "step2b")


def single_wavelength() -> list[dict]:
    db = load_database()
    entries = []
    for temperature_k in TEMPERATURES_K:
        model = model_for_temperature(db, temperature_k)
        for lam in WAVELENGTHS_UM:
            k = 2.0 * math.pi / lam
            n = refraction_index(permittivity(model, lam))
            for x in SIZES:
                a = math.nextafter(x / k, math.inf)    # so that k * a >= 1e-4
                pair = emissivity_pair(k, a, n)
                entries.append({"temperature_k": temperature_k, "wavelength_um": lam,
                                "radius_um": a, "e_te": pair.e_te, "e_tm": pair.e_tm,
                                "p": polarization_of(pair.e_te, pair.e_tm)})
    return entries


def band() -> list[dict]:
    db = load_database()
    entries = []
    for temperature_k in TEMPERATURES_K:
        model = model_for_temperature(db, temperature_k)
        for d in DIAMETERS_UM:
            r = band_averaged_polarization(0.5 * d, temperature_k, COMPUTED_BAND, model)
            entries.append({"temperature_k": temperature_k, "diameter_um": d,
                            "p": r.p_avg, "e_te_bar": r.e_te_bar, "e_tm_bar": r.e_tm_bar,
                            "quadrature_error": r.est_quadrature_error})
    return entries


def sweep_csv(argv: list[str]) -> dict:
    """The header and the rows of values of one sweep's CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        if cli.main([*argv, "-o", path]) != 0:
            raise RuntimeError(f"wirepol {' '.join(argv)} failed")
        lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
                 if not line.startswith("#")]
    return {"header": lines[0].split(","),
            "rows": [[float(v) for v in line.split(",")] for line in lines[1:]]}


def polsim_run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and scan files of one in-process polsim run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "scan")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["polsim", *argv, "-o", prefix])
        files = {name: Path(f"{prefix}.{name}.dat").read_text(encoding="utf-8")
                 for name in SCAN_FILES if os.path.exists(f"{prefix}.{name}.dat")}
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


SECTIONS = {
    "single_wavelength": single_wavelength,
    "band": band,
    "csv": lambda: {name: sweep_csv(argv) for name, argv in SWEEPS.items()},
    "polsim": lambda: {name: polsim_run(argv) for name, argv in POLSIM.items()},
}


def main(names: list[str]) -> int:
    if not names or not set(names) <= SECTIONS.keys():
        print(f"usage: python tests/make_corpus.py SECTION...; the sections are "
              f"{', '.join(SECTIONS)}", file=sys.stderr)
        return 1
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    for name in names:
        stored[name] = SECTIONS[name]()
    PATH.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
