"""Command-line interface.

Subcommands:

  point     P at one wavelength, or band-averaged P, for one wire
  sweep     CSV sweeps over radius / wavelength / temperature, with
            presets ``figure1`` (single-wavelength polarization versus
            size parameter) and ``figure4`` (band average versus
            diameter at three temperatures)
  compare   computed band averages against measured values (bundled
            reference set by default)
  polsim    end-to-end polarimeter simulation, writing scan files
  material  inspect the material database

Units at the interface: microns, kelvin, degrees.  Exit codes: 0 ok,
1 usage error, 2 numerical failure, 3 I/O error.  Every command is
deterministic given its flags (and seed); floats are printed with
shortest round-trip precision so outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import math
import re
import shlex
import sys

import numpy as np

from . import __version__
from .errors import WirepolError
from .materials import FITTED_RANGE_UM, load_database, model_for_temperature
from .polarimetry import SourceModel, measure, write_scan
from .scattering import polarization_of
from .spectral import (BandFilter, COMPUTED_BAND, band_averaged_polarization,
                       wire_emissivities)

# Bundled reference measurements: (diameter_um, P_measured, standard error)
# for incandescent tungsten wires observed through the 0.45-0.75 micron
# filter stack.
DEFAULT_MEASUREMENTS = (
    (5.0, 0.241, 0.005),
    (17.0, 0.221, 0.003),
    (35.0, 0.208, 0.003),
    (100.0, 0.199, 0.004),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # flags must be spelled in full: a prefix would silently resolve to
    # whichever flag it happens to start (subparsers are _Parsers too)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # numerical failures
    def error(self, message):
        raise _UsageError(message)


# a '#' at the start of a line or after whitespace opens a comment; one
# inside a value, as in output = run#1.csv, is part of the value
_COMMENT = re.compile(r"(?:^|\s)#")


def _lines(path) -> list:
    """(line number, text) of each line not blank once its comment is cut."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: {exc}")
    return [(lineno, text) for lineno, line in enumerate(lines, 1)
            if (text := _COMMENT.split(line, 1)[0].strip())]


def _path(text) -> str:
    # '' would act as no flag at all, and a line break would end a CSV's '#' line
    if text.splitlines() != [text]:
        raise argparse.ArgumentTypeError(f"expected a file path on one line, got {text!r}")
    return text


def _parse_band(text) -> BandFilter:
    try:
        lo, _, hi = text.partition(":")
        return BandFilter(float(lo), float(hi))
    except (ValueError, WirepolError) as exc:
        raise _UsageError(f"bad band {text!r} (expected lo:hi in microns): {exc}")


# Attributes of a parsed command that choose nothing it computes, by
# dest; --threads is accepted and ignored.
NOT_CHOICES = frozenset(("command", "func", "output", "config", "threads"))


def _given(args) -> dict:
    """The choice flags given on the command line or in --config, by dest.
    Every command pops the ones it reads, the database flags first, with
    their defaults, and ``_reject_unread`` refuses the rest, so each kind
    of command takes exactly the flags it uses."""
    return {dest: value for dest, value in vars(args).items()
            if value is not None and dest not in NOT_CHOICES}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _command_line(args) -> str:
    """The command that re-creates this run's output: each choice read, as
    --flag=value in the parser's order (that of vars(args)), then --output."""
    tokens = ["wirepol", args.command]
    for dest, value in _given(args).items():
        if isinstance(value, BandFilter):
            value = f"{value.lambda_lo_um}:{value.lambda_hi_um}"
        tokens.append(_flag(dest) if value is True else f"{_flag(dest)}={value}")
    return shlex.join([*tokens, f"--output={args.output}"])


def _reject_unread(kind: str, given: dict) -> None:
    if given:
        raise _UsageError(f"{kind} does not take {', '.join(map(_flag, given))}")


def _take(given: dict, *dests: str):
    """Pops the first of ``dests`` given, as (dest, value); the rest stay."""
    for dest in dests:
        if dest in given:
            return dest, given.pop(dest)
    raise _UsageError(f"{' or '.join(map(_flag, dests))} is required")


def _radius_from(given: dict) -> float:
    dest, size = _take(given, "radius_um", "diameter_um")
    return size if dest == "radius_um" else size / 2.0


def _warn_outside_fit(*spectra):
    """One warning for the wavelengths and band edges outside the fit."""
    lo, hi = FITTED_RANGE_UM
    lambdas = [lam for s in spectra
               for lam in ((s.lambda_lo_um, s.lambda_hi_um)
                           if isinstance(s, BandFilter) else (s,))]
    out = [lam for lam in lambdas if not (lo <= lam <= hi)]
    if out:
        print(f"warning: {len(out)} wavelength(s) outside the fitted optical "
              f"range [{lo}, {hi}] micron; the analytic model is extrapolated",
              file=sys.stderr)


# ------------------------------------------------------------ evaluation

# Output columns of one wire at a single wavelength and over a band, in
# the order ``point`` prints them.
LINE_COLUMNS = ("p", "e_te", "e_tm", "terms_used", "truncation_error")
BAND_COLUMNS = ("p_avg", "e_te_bar", "e_tm_bar", "quadrature_nodes",
                "quadrature_error")


class _Evaluator:
    """The one evaluation path of every command.

    ``evaluate(radius_um, spectrum, temp_k)`` evaluates one wire at a
    wavelength (``spectrum`` in micron) or Planck-averaged over a band
    (``spectrum`` a BandFilter) and returns its output columns by name,
    plus ``radius_um`` and ``model_temperature_K``.  The temperature picks
    the material model and, for a band, the Planck weight.  Making it pops
    the database flags from ``given`` and loads the database, once.
    """

    def __init__(self, given: dict):
        self._db = load_database(given.pop("material_db", None))
        self._tentative = given.pop("include_tentative", False)

    def model(self, temp_k):
        return model_for_temperature(self._db, float(temp_k), self._tentative)

    def __call__(self, radius, spectrum, temp_k) -> dict:
        model = self.model(temp_k)
        values = {"radius_um": float(radius),
                  "model_temperature_K": model.temperature_k}
        if isinstance(spectrum, BandFilter):
            res = band_averaged_polarization(radius, float(temp_k), spectrum, model)
            return {**values, "p_avg": res.p_avg, "e_te_bar": res.e_te_bar,
                    "e_tm_bar": res.e_tm_bar,
                    "quadrature_nodes": res.quadrature_nodes,
                    "quadrature_error": res.est_quadrature_error}
        pair, = wire_emissivities(radius, model, (spectrum,))
        return {**values, "p": polarization_of(pair.e_te, pair.e_tm),
                "e_te": pair.e_te, "e_tm": pair.e_tm,
                "terms_used": pair.terms_used,
                "truncation_error": pair.truncation_error_estimate}


# ----------------------------------------------------------------- point

def _cmd_point(args) -> int:
    given = _given(args)
    evaluate = _Evaluator(given)
    radius = _radius_from(given)
    dest, spectrum = _take(given, "wavelength_um", "band")
    temp_k = given.pop("temp_k", 2400.0)
    _reject_unread(f"point {_flag(dest)}", given)
    _warn_outside_fit(spectrum)
    values = evaluate(radius, spectrum, temp_k)
    for key in BAND_COLUMNS if dest == "band" else LINE_COLUMNS:
        print(f"{key} = {values[key]}")
    return 0


# ----------------------------------------------------------------- sweep

# Most points of one sweep grid.
MAX_POINTS = 100_000


def _grid(lo: float, hi: float, points: int, spacing: str) -> np.ndarray:
    # hi - lo is finite and > 0 only for finite lo < hi
    if not 2 <= points <= MAX_POINTS or not 0 < hi - lo < math.inf:
        raise _UsageError(
            f"sweep needs finite lo < hi and points >= 2, at most {MAX_POINTS}")
    if spacing == "log":
        if lo <= 0:
            raise _UsageError("log spacing requires lo > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _write_csv(path, meta_lines, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _sweep_table(name: str, given: dict, evaluate: _Evaluator):
    """The preset or ``--variable`` sweep ``name``, as (a metadata line, the
    CSV header, the abscissa grid, abscissa -> values of the other columns,
    the spectra to check against the fitted range).  Each kind pops from
    ``given`` the flags it reads and maps its abscissa to (radius,
    wavelength or band, temperature); a preset reads at most --points."""
    if name == "figure1":
        lam, model = 0.5, evaluate.model(2400.0)
        return (
            f"material: {model.element} {model.temperature_k:g} K, lambda = {lam} um",
            ("log10_2pi_a_over_lambda", "radius_um", "p", "e_te", "e_tm"),
            _grid(-2.0, 3.0, given.pop("points", 200), "linear"),
            lambda size: evaluate(lam * 10.0 ** size / (2.0 * math.pi), lam, 2400.0),
            (lam,))
    band = COMPUTED_BAND
    if name == "figure4":
        temps = (298.0, 1600.0, 2400.0)
        return (
            f"band: [{band.lambda_lo_um}, {band.lambda_hi_um}] um; "
            f"temperatures: {', '.join(f'{t:g} K' for t in temps)}",
            ("diameter_um", *(f"p_avg_{t:g}K" for t in temps)),
            _grid(0.5, 120.0, given.pop("points", 61), "log"),
            lambda d: {f"p_avg_{t:g}K": evaluate(d / 2.0, band, t)["p_avg"]
                       for t in temps}, (band,))
    if name == "table2":
        # the grid is the bundled measurements' diameters
        model = evaluate.model(2400.0)
        return (
            f"band: [{band.lambda_lo_um}, {band.lambda_hi_um}] um; "
            f"material: {model.element} {model.temperature_k:g} K",
            ("diameter_um", "p_avg", "e_te_bar", "e_tm_bar", "quadrature_error"),
            [m[0] for m in DEFAULT_MEASUREMENTS],
            lambda d: evaluate(d / 2.0, band, 2400.0), (band,))

    (_, lo), (_, hi) = _take(given, "lo"), _take(given, "hi")
    grid = _grid(lo, hi, given.pop("points", 50), given.pop("spacing", "linear"))
    if name == "temperature":
        # each row's temperature picks its model, so --temp-k sets nothing
        radius = _radius_from(given)
        _, band = _take(given, "band")
        return (f"material: {evaluate.model(2400.0).element}",
                ("temperature_K", "model_temperature_K", "p_avg", "e_te_bar",
                 "e_tm_bar"), grid, lambda t: evaluate(radius, band, t), (band,))
    temp_k = given.pop("temp_k", 2400.0)
    model = evaluate.model(temp_k)
    meta = f"material: {model.element}, model T = {model.temperature_k:g} K"
    if name == "wavelength":
        radius = _radius_from(given)
        return (meta, ("wavelength_um", *LINE_COLUMNS), grid,
                lambda lam: evaluate(radius, float(lam), temp_k), (lo, hi))
    dest, spectrum = _take(given, "wavelength_um", "band")
    columns = (("p_avg", "e_te_bar", "e_tm_bar", "quadrature_error")
               if dest == "band" else LINE_COLUMNS)
    return (meta, ("radius_um", *columns), grid,
            lambda r: evaluate(r, spectrum, temp_k), (spectrum,))


def _cmd_sweep(args) -> int:
    given = _given(args)
    evaluate = _Evaluator(given)
    how, name = _take(given, "preset", "variable")
    meta, header, grid, values_at, spectra = _sweep_table(name, given, evaluate)
    _reject_unread(f"sweep {_flag(how)} {name}", given)
    _warn_outside_fit(*spectra)
    rows = []
    for x in grid:
        values = values_at(x)
        rows.append((float(x), *(values[h] for h in header[1:])))
    _write_csv(args.output, [f"command: {_command_line(args)}",
                             f"wirepol {__version__}", meta], header, rows)
    return 0


# --------------------------------------------------------------- compare

def _read_measurements(path):
    rows = []
    for lineno, text in _lines(path):
        parts = [p for p in text.replace(",", " ").split() if p]
        if len(parts) != 3:
            raise _UsageError(
                f"{path}:{lineno}: expected 'diameter_um p error', got {len(parts)} fields")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: {exc}")
        if not 0.0 < row[0] < math.inf:
            raise _UsageError(
                f"{path}:{lineno}: diameter must be finite and > 0, got {parts[0]}")
        if not math.isfinite(row[1]):
            raise _UsageError(f"{path}:{lineno}: p must be finite, got {parts[1]}")
        if not 0.0 < row[2] < math.inf:
            raise _UsageError(
                f"{path}:{lineno}: error must be finite and > 0, got {parts[2]}")
        rows.append(row)
    return rows


def _cmd_compare(args) -> int:
    given = _given(args)    # it reads every flag it has, so it refuses none
    evaluate = _Evaluator(given)
    path = given.pop("measurements", None)
    measurements = _read_measurements(path) if path else list(DEFAULT_MEASUREMENTS)
    temp_k, band = given.pop("temp_k", 2400.0), given.pop("band", COMPUTED_BAND)
    model = evaluate.model(temp_k)
    _warn_outside_fit(band)
    header = ["diameter_um", "p_measured", "error", "p_computed", "deviation_sigma"]
    # every row is computed before anything is printed or written, so a
    # numerical failure leaves no partial table behind
    rows = []
    for diameter, p_meas, err in measurements:
        p_avg = evaluate(diameter / 2.0, band, temp_k)["p_avg"]
        rows.append((diameter, p_meas, err, p_avg, abs(p_meas - p_avg) / err))
    for row in [header, *rows]:
        print(",".join(map(str, row)))
    if args.output:
        _write_csv(args.output, [f"command: {_command_line(args)}",
                                 f"model T = {model.temperature_k:g} K"], header, rows)
    return 0


# ---------------------------------------------------------------- polsim

def _cmd_polsim(args) -> int:
    given = _given(args)    # it reads every flag it has, so it refuses none
    _, p_true = _take(given, "p_true")
    axis_deg, background = given.pop("axis_deg", 30.0), given.pop("background", 0.0)
    step_deg, noise_rms = given.pop("step_deg", 0.5), given.pop("noise_rms", 0.0)
    seed, prefix = given.pop("seed", 0), given.pop("output_prefix", None)
    if not 0.0 <= p_true <= 1.0:
        raise _UsageError("--p-true must be in [0, 1]")
    source = SourceModel(p_true, polarization_axis_deg=axis_deg, ir_background=background)
    step1, scan_a, scan_b, result = measure(source, step_deg=step_deg,
                                            noise_rms=noise_rms, seed=seed)
    if prefix:
        write_scan(f"{prefix}.step1.dat", step1, header="analyzer-only scan")
        write_scan(f"{prefix}.step2a.dat", scan_a,
                   header=f"polarizer at {result.theta_star_deg!r} deg")
        write_scan(f"{prefix}.step2b.dat", scan_b,
                   header=f"polarizer at {result.theta_star_deg + 90.0!r} deg")
    print(f"p_true = {p_true}")
    print(f"p_extracted = {result.p}")
    print(f"theta_star_deg = {result.theta_star_deg}")
    print(f"amplitude_a = {result.fit_a.amplitude}")
    print(f"amplitude_b = {result.fit_b.amplitude}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


# -------------------------------------------------------------- material

def _cmd_material(args) -> int:
    given = _given(args)
    records = load_database(given.pop("material_db", None))
    if given.pop("action") == "list":
        _reject_unread("material list", given)
        for rec in records:
            print(f"{rec.element} {rec.temperature_k:g} K  "
                  f"({len(rec.bound_terms)} bound, {len(rec.free_terms)} free terms)")
        return 0
    # show reads every flag it has, so it refuses none
    model = model_for_temperature(records, float(given.pop("temp_k", 2400.0)),
                                  include_tentative=True)
    print(f"element = {model.element}")
    print(f"temperature_K = {model.temperature_k}")
    for t in model.bound_terms:
        print(f"bound: K0 = {t.k0}, lambda_s_um = {t.lambda_s_um}, delta = {t.delta}")
    for t in model.free_terms:
        flags = "".join([" tentative" if t.tentative else "",
                         " estimated" if t.estimated else ""])
        print(f"free: sigma = {t.sigma}, lambda_r_um = {t.lambda_r_um}{flags}")
    if model.sigma0 is not None:
        print(f"sigma0 = {model.sigma0}")
    if model.note:
        print(f"note = {model.note}")
    return 0


# ----------------------------------------------------------------- main

def _add_material(parser, tentative=True):
    # the database flags; material tags tentative terms itself, so no switch
    parser.add_argument("--material-db", type=_path,
                        help="material database path (default: bundled table)")
    if tentative:
        parser.add_argument("--include-tentative", action="store_true", default=None,
                            help="include conduction terms whose relaxation "
                                 "wavelength is only an upper bound")


def _add_wire(parser):
    # the wire, the spectrum and the temperature, shared by point and sweep
    parser.add_argument("--radius-um", type=float)
    parser.add_argument("--diameter-um", type=float)
    parser.add_argument("--wavelength-um", type=float)
    parser.add_argument("--band", type=_parse_band, help="lo:hi in microns")
    parser.add_argument("--temp-k", type=float, help="default 2400")


def build_parser() -> _Parser:
    parser = _Parser(prog="wirepol",
                     description="Polarized thermal emission of thin metal wires")
    parser.add_argument("--version", action="version", version=f"wirepol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("point", help="P at a point (single wavelength or band)")
    _add_wire(p)
    _add_material(p)
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("sweep", help="write a CSV sweep")
    p.add_argument("--preset", choices=("figure1", "figure4", "table2"))
    p.add_argument("--variable", choices=("radius", "wavelength", "temperature"))
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--spacing", choices=("linear", "log"))
    _add_wire(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: evaluation is serial")
    p.add_argument("-o", "--output", type=_path, required=True)
    _add_material(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="computed vs measured band averages")
    p.add_argument("--measurements", type=_path,
                   help="CSV of diameter_um, p, error (default: bundled set)")
    p.add_argument("--temp-k", type=float)
    p.add_argument("--band", type=_parse_band,
                   help="lo:hi in microns (default 0.5:0.75)")
    p.add_argument("-o", "--output", type=_path)
    _add_material(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("polsim", help="simulate the two-step polarimeter protocol")
    p.add_argument("--p-true", type=float, help="in [0, 1]; required")
    p.add_argument("--axis-deg", type=float)
    p.add_argument("--background", type=float)
    p.add_argument("--noise-rms", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--step-deg", type=float)
    p.add_argument("-o", "--output-prefix", type=_path)
    p.set_defaults(func=_cmd_polsim)

    p = sub.add_parser("material", help="inspect the material database")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("--temp-k", type=float, help="with show only (default 2400)")
    _add_material(p, tentative=False)
    p.set_defaults(func=_cmd_material)

    for p in sub.choices.values():
        p.add_argument("--config", type=_path,
                       help="key = value file mirroring the flags; flags override")
    return parser


def _with_config(parser, argv) -> list:
    """``argv`` with the ``key = value`` lines of its --config file as tokens
    after the subcommand, so argparse checks them like flags and a flag on
    the command line, coming later, wins.  A key names an option of the
    subcommand other than --config and --help, which belong to the command
    line; any other key is a usage error, like an unknown flag."""
    if not argv or argv[0] not in parser.commands:
        return argv
    # argparse finds the path, so a flag after --config is a missing value
    find = _Parser(add_help=False)
    find.add_argument("--config", type=_path)
    path = find.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    options = {action.dest: action for action in parser.commands[argv[0]]._actions
               if action.option_strings and action.dest not in ("help", "config")}
    settings = {}  # option -> its last value in the file
    for lineno, text in _lines(path):
        key, sep, value = map(str.strip, text.partition("="))
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key = value")
        if not (action := options.get(key.replace("-", "_"))):
            raise _UsageError(f"{path}:{lineno}: {argv[0]} has no option --{key}")
        settings[action] = value
    # --key=value stays one token if value starts with '-'; a switch read as
    # true is a bare --key, and one read as false is left out
    tokens = [action.option_strings[-1] + ("" if action.nargs == 0 else f"={value}")
              for action, value in settings.items()
              if action.nargs != 0 or value.lower() in ("1", "true", "yes", "on")]
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except _UsageError as exc:
        print(f"wirepol: error: {exc}", file=sys.stderr)
        return 1
    except WirepolError as exc:
        print(f"wirepol: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"wirepol: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
