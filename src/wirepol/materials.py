"""Drude-type complex permittivity of metals, tungsten in particular.

The permittivity combines damped bound-electron resonances with
free-electron conduction terms,

    eps(lambda) = 1 + sum_p K0_p lam^2 / (lam^2 - ls_p^2 - i d_p ls_p lam)
                    - lam^2 / (2 pi c eps0) * sum_q sigma_q / (lr_q + i lam)

written here in the exp(-i w t) convention, so that Im(eps) > 0 for a
passive absorber and outgoing cylindrical waves are H^(1).  (Optics
tables often quote the complex-conjugate n - ik convention; the two
differ only by the sign of every imaginary part.)

Wavelengths are microns at the interface, metres internally;
conductivities are ohm^-1 m^-1 throughout.

The tungsten parameter table (fit to reflectance data measured between
0.365 and 2.65 micron) ships as a JSON database inside this package;
``load_database`` reads it as a tuple of models, one per temperature, and
``model_for_temperature`` picks one.  Some free-electron relaxation
wavelengths in that table are known only as an upper bound; such terms
carry ``tentative=True`` and are excluded from the permittivity sum
unless the model is built with ``include_tentative=True``.  Their
conductivity still counts toward ``dc_conductivity`` (at dc every
conduction channel contributes regardless of its relaxation wavelength).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

from .errors import DomainError, MaterialDataError, RangeError

# Wavelength range of the underlying tungsten reflectance measurements.
# The fit is analytic and may be evaluated outside it, at reduced trust.
FITTED_RANGE_UM = (0.365, 2.65)

ENV_DATABASE_PATH = "WIREPOL_MATERIAL_DB"

_TEMPERATURE_HARD_RANGE = (250.0, 3400.0)

# SI constants: c is exact; epsilon_0 is the CODATA 2022 value
SPEED_OF_LIGHT = 299792458.0                   # m s^-1
VACUUM_PERMITTIVITY = 8.8541878188e-12         # F m^-1

_2PI_C_EPS0 = 2.0 * math.pi * SPEED_OF_LIGHT * VACUUM_PERMITTIVITY


@dataclass(frozen=True)
class BoundTerm:
    """One damped bound-electron resonance: strength K0, resonant
    wavelength lambda_s (micron), damping delta."""
    k0: float
    lambda_s_um: float
    delta: float
    estimated: bool = False

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.k0, self.lambda_s_um, self.delta)):
            raise MaterialDataError(f"bound term requires finite K0, lambda_s, delta > 0: {self}")


@dataclass(frozen=True)
class FreeTerm:
    """One free-electron conduction channel: dc conductivity sigma
    (ohm^-1 m^-1) and relaxation wavelength lambda_r (micron)."""
    sigma: float
    lambda_r_um: float
    tentative: bool = False
    estimated: bool = False

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sigma, self.lambda_r_um)):
            raise MaterialDataError(f"free term requires finite sigma, lambda_r > 0: {self}")


@dataclass(frozen=True)
class DrudePermittivityModel:
    """Parameter set of the permittivity formula for one temperature."""
    element: str
    temperature_k: float
    bound_terms: tuple[BoundTerm, ...]
    free_terms: tuple[FreeTerm, ...]
    sigma0: float | None = None
    include_tentative: bool = False
    note: str = ""

    def dc_conductivity(self) -> float:
        """Sum of all conduction-channel conductivities (the dc limit)."""
        return sum(t.sigma for t in self.free_terms)

    def active_free_terms(self) -> tuple[FreeTerm, ...]:
        if self.include_tentative:
            return self.free_terms
        return tuple(t for t in self.free_terms if not t.tentative)


def vacuum_model(temperature_k: float = 300.0) -> DrudePermittivityModel:
    """Trivial model with no material response: eps = 1 identically."""
    if not 0 < temperature_k < math.inf:
        raise DomainError(f"temperature must be finite and > 0, got {temperature_k}")
    return DrudePermittivityModel("vacuum", temperature_k, (), (), sigma0=None)


def permittivity(model: DrudePermittivityModel, wavelength_um: float) -> complex:
    """Complex relative permittivity at the given vacuum wavelength.

    Im(eps) >= 0 for any model with at least one absorbing term;
    equality only in the vacuum limit.  RangeError where eps overflows.
    """
    if wavelength_um <= 0 or not math.isfinite(wavelength_um):
        raise DomainError(f"permittivity: wavelength must be > 0, got {wavelength_um}")
    lam = wavelength_um * 1e-6
    eps = 1.0 + 0.0j
    for t in model.bound_terms:
        ls = t.lambda_s_um * 1e-6
        eps += t.k0 * lam * lam / (lam * lam - ls * ls - 1j * t.delta * ls * lam)
    for t in model.active_free_terms():
        lr = t.lambda_r_um * 1e-6
        eps -= lam * lam / _2PI_C_EPS0 * t.sigma / (lr + 1j * lam)
    if not cmath.isfinite(eps):    # lam * lam overflows from about 1e156 um
        raise RangeError(f"permittivity: not finite at wavelength {wavelength_um} um")
    return eps


def refraction_index(eps: complex) -> complex:
    """n = sqrt(eps) on the branch with Im(n) >= 0 (decaying wave inside
    the absorber)."""
    if not cmath.isfinite(eps):
        raise DomainError(f"refraction index: permittivity must be finite, got {eps}")
    n = cmath.sqrt(eps)
    return -n if n.imag < 0 else n


# --------------------------------------------------------------------------
# database loading

# The kind of each field of the database, of its records and of their terms.
# A number is a JSON int or float, never a bool; sigma0 may also be null.
_NUMBER, _FLAG, _TEXT, _ARRAY = "a finite number > 0", "true or false", "a string", "an array"
_KINDS = {
    _NUMBER: lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max,
    _NUMBER + " or null": lambda v: v is None or _KINDS[_NUMBER](v),
    _FLAG: lambda v: type(v) is bool,
    _TEXT: lambda v: type(v) is str,
    _ARRAY: lambda v: type(v) is list,
    "an object": lambda v: type(v) is dict,
}
_RECORD_FIELDS = {"element": _TEXT, "temperature_K": _NUMBER, "bound_terms": _ARRAY,
                  "free_terms": _ARRAY, "sigma0": _NUMBER + " or null", "note": _TEXT}
_BOUND_FIELDS = {"K0": _NUMBER, "lambda_s": _NUMBER, "delta": _NUMBER, "estimated": _FLAG}
_FREE_FIELDS = {"sigma": _NUMBER, "lambda_r": _NUMBER, "tentative": _FLAG, "estimated": _FLAG}
_DATABASE_FIELDS = {"format": _TEXT, "version": _NUMBER, "units": "an object",
                    "provenance": _TEXT, "records": _ARRAY}


def _fields(raw, kinds: dict, where: str) -> dict:
    """The fields of one JSON object, each of the kind that ``kinds`` names
    for it, with every number as a float."""
    if type(raw) is not dict:
        raise MaterialDataError(f"{where}: expected an object")
    unknown = raw.keys() - kinds.keys()
    if unknown:
        raise MaterialDataError(f"unknown field(s) {sorted(unknown)} in {where}")
    for key, value in raw.items():
        if not _KINDS[kinds[key]](value):
            raise MaterialDataError(
                f"{where}: {key} must be {kinds[key]}, got {json.dumps(value)}")
    return {key: float(v) if type(v) is int else v for key, v in raw.items()}


def _parse_record(raw, index: int) -> DrudePermittivityModel:
    where = f"record {index}"
    rec = _fields(raw, _RECORD_FIELDS, where)
    try:
        bound = [_fields(b, _BOUND_FIELDS, f"bound term {j}")
                 for j, b in enumerate(rec.get("bound_terms", []))]
        free = [_fields(f, _FREE_FIELDS, f"free term {j}")
                for j, f in enumerate(rec.get("free_terms", []))]
        return DrudePermittivityModel(
            element=rec["element"],
            temperature_k=rec["temperature_K"],
            bound_terms=tuple(BoundTerm(b["K0"], b["lambda_s"], b["delta"],
                                        b.get("estimated", False)) for b in bound),
            free_terms=tuple(FreeTerm(f["sigma"], f["lambda_r"], f.get("tentative", False),
                                      f.get("estimated", False)) for f in free),
            sigma0=rec.get("sigma0"),
            note=rec.get("note", ""),
        )
    except KeyError as exc:
        raise MaterialDataError(f"{where}: missing field {exc}") from exc
    except MaterialDataError as exc:
        raise MaterialDataError(f"{where}: {exc}") from exc


def load_database(path: str | None = None) -> tuple[DrudePermittivityModel, ...]:
    """The records of a material database, one model per temperature, in
    file order.

    Resolution order: explicit ``path`` argument, the WIREPOL_MATERIAL_DB
    environment variable, then the bundled tungsten table.
    """
    if path is None:
        path = os.environ.get(ENV_DATABASE_PATH) or None
    if path is None:
        text = resources.files(__package__).joinpath("data/tungsten.json").read_text()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise MaterialDataError(f"material database {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaterialDataError(f"material database is not valid JSON: {exc}") from exc
    raw = _fields(raw, _DATABASE_FIELDS, "material database")
    records = tuple(_parse_record(r, i) for i, r in enumerate(raw.get("records", [])))
    if not records:
        raise MaterialDataError("material database contains no records")
    for rec in records:
        if rec.sigma0 is not None:
            total = rec.dc_conductivity()
            if abs(total - rec.sigma0) > 0.02 * rec.sigma0:
                raise MaterialDataError(
                    f"record at {rec.temperature_k} K: sum of sigma_q = {total:g} "
                    f"disagrees with sigma0 = {rec.sigma0:g} by more than 2%")
    return records


def model_for_temperature(db: tuple[DrudePermittivityModel, ...], temperature_k: float,
                          include_tentative: bool = False) -> DrudePermittivityModel:
    """Model at the tabulated temperature nearest to ``temperature_k``.

    No interpolation between columns: the fits are compared against data
    as fixed-temperature curves, and interpolating the parameters would
    invent physics.  Temperatures outside [250, 3400] K are rejected as
    beyond any defensible snap.
    """
    lo, hi = _TEMPERATURE_HARD_RANGE
    if not (lo <= temperature_k <= hi):
        raise RangeError(
            f"temperature {temperature_k} K outside snap range [{lo:g}, {hi:g}] K")
    best = min(db, key=lambda r: abs(r.temperature_k - temperature_k))
    return replace(best, include_tentative=include_tentative)
