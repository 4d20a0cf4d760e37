"""Numeric corpus of wirepol outputs, for the regression test in
``test_corpus.py``.

``python tests/make_corpus.py`` rewrites ``tests/data/corpus.json`` from
the code on the path.  Regenerating it is a change to test data: do it
only for a move in the numbers that is understood and stated.  The file
holds, each with its inputs:
  - e_TE, e_TM and P at one wavelength, on 3 temperatures x 5 wavelengths
    x 30 size parameters x = 2 pi a / lambda from 1e-4 to 4.9e4;
  - band P, e_bar and the quadrature estimate on 3 temperatures x 8
    diameters over ``COMPUTED_BAND``;
  - every value of the ``table2``, ``figure1 --points 12`` and
    ``figure4 --points 5`` sweep CSVs.
"""

from __future__ import annotations

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


def corpus() -> dict:
    return {"single_wavelength": single_wavelength(), "band": band(),
            "csv": {name: sweep_csv(argv) for name, argv in SWEEPS.items()}}


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(corpus(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
