"""The command line's contract over its whole input space.

Every argv drawn from a subcommand's flag grammar ends in a documented
exit code (0 ok, 1 usage, 2 numerical, 3 I/O), with no traceback and no
Python or numpy warning (pytest runs with ``filterwarnings = error``, so
a warning escapes ``main`` as an exception).  A run that exits 0 prints
only finite numbers, emissivities >= 0 and |P| <= 1; any other run prints
nothing on stdout and writes no output file; and a rerun gives the same
bytes.  The same holds when some of the flags come from a ``--config``
file instead, among lines that name no option, are malformed or set a
switch.  A file that holds only moved flags, none of them repeated,
changes nothing: the exit code, stdout and output file (but for its
``# command:`` line) are those of the run with every flag on the command
line.

Draws mix ordinary values with 0, +-inf, nan, 1e-300, 1e300 and
malformed text.  The ordinary values keep each example cheap: radii of at
most 5 um, bands inside the visible and a few sweep points.
"""

import math
import re

from hypothesis import HealthCheck, example, given, settings, strategies as st

from wirepol.cli import main

SPECIAL = ("0", "-1", "inf", "-inf", "nan", "1e-300", "1e300", "x", "")
SPECIAL_BANDS = ("0:1", "0.75:0.5", "nan:1", "0.5:inf", "1e-300:1e300",
                 "0.5:1e300", "1e-310:1e-309", "1e-300:2e-300", "0.5", "x", "")
MEASUREMENTS = {
    "good": "1 0.1 0.02\n5 0.24 0.005\n",
    "nan": "1 nan 0.02\n",
    "zero": "0 0.2 0.01\n",
    "short": "1 0.2\n",
}


@st.composite
def value(draw, *ordinary):
    # an ordinary value three times in four
    return draw(st.sampled_from(SPECIAL if draw(st.integers(0, 3)) == 0
                                else ordinary))


@st.composite
def options(draw, chance, **grammar):
    """``--flag=value`` for each flag of ``grammar`` (name with '_' for
    '-' -> strategy of its values), each present with ``chance`` in 8."""
    return [f"--{name.replace('_', '-')}={draw(values)}"
            for name, values in grammar.items()
            if draw(st.integers(0, 7)) < chance]


RADIUS = value("0.02", "0.5", "2.5")
DIAMETER = value("1", "5", "10")
WAVELENGTH = value("0.5", "0.6", "2")
BAND = value("0.5:0.75", "0.45:0.75", "0.6:0.8") | st.sampled_from(SPECIAL_BANDS)
TEMP = value("298", "1600", "2400")
SPECTRUM = st.sampled_from(({"wavelength_um": WAVELENGTH}, {"band": BAND}))


@st.composite
def wire(draw, spectrum=True):
    """A size flag and a spectrum flag, mostly one of each."""
    size = draw(st.sampled_from(({"radius_um": RADIUS},
                                 {"diameter_um": DIAMETER})))
    argv = draw(options(7, **size))
    if spectrum:
        argv += draw(options(7, **draw(SPECTRUM)))
    # now and then both spellings of the size or both spectra
    return argv + draw(options(1, radius_um=RADIUS, diameter_um=DIAMETER,
                               wavelength_um=WAVELENGTH, band=BAND))


@st.composite
def point_argv(draw):
    return ["point", *draw(wire()), *draw(options(2, temp_k=TEMP))]


@st.composite
def sweep_argv(draw):
    kind = draw(st.sampled_from(("radius", "wavelength", "temperature",
                                 "figure1", None)))
    # a band preset takes 0.2-0.4 s a run, figure4 at its two diameters 0.5
    # and 120 um: drawn about once in 40, with no other flag (at 17, since
    # hypothesis favours the ends of a range)
    if draw(st.integers(0, 39)) == 17:
        return ["sweep", *draw(st.sampled_from((["--preset=figure4", "--points=2"],
                                                ["--preset=table2"])))]
    lo, hi = {"radius": (("0.05", "0.5"), ("1", "5")),
              "wavelength": (("0.4", "0.5"), ("0.6", "2")),
              "temperature": (("250", "1600"), ("2400", "3400")),
              }.get(kind, (("1",), ("2",)))
    argv = ["sweep", *draw(options(
        4, points=value("2", "3", "100000000000000000"),
        spacing=st.sampled_from(("linear", "log", "x"))))]
    if kind == "figure1":
        return argv + ["--preset=figure1"] + draw(options(1, temp_k=TEMP))
    argv += draw(options(7, lo=value(*lo), hi=value(*hi)))
    argv += [f"--variable={kind}"] if kind else []
    if kind == "radius":
        argv += draw(options(7, **draw(SPECTRUM)))
    else:
        argv += draw(wire(spectrum=False))
    if kind == "temperature":
        return argv + draw(options(7, band=BAND))
    return argv + draw(options(2, temp_k=TEMP))


@st.composite
def compare_argv(draw):
    return ["compare", *draw(options(4, temp_k=TEMP, band=BAND))]


@st.composite
def polsim_argv(draw):
    return ["polsim", *draw(options(7, p_true=value("0.2", "0.5", "1"))), *draw(options(
        2, axis_deg=value("30", "-45", "170"),
        background=value("0.1", "2"), noise_rms=value("0.001", "0.01"),
        seed=value("1", "7"), step_deg=value("0.5", "2", "10")))]


@st.composite
def material_argv(draw):
    action = draw(st.sampled_from(("list", "show", "x")))
    return ["material", action, *draw(options(4, temp_k=TEMP))]


ARGV = (point_argv() | sweep_argv() | compare_argv() | polsim_argv()
        | material_argv())

# config lines besides the moved flags: keys that name no option (refused,
# like an unknown flag), a line without '=', an empty value, a comment, a
# switch set true or to 'maybe' (read as false; material has no such
# option) and a missing database
CONFIG_LINES = ("colour = red", "nodes-per-band = 3", "points", "= 3",
                "temp-k =", "# only a comment", "include-tentative = true",
                "include-tentative = maybe", "material-db = missing.json")


@st.composite
def config_argv(draw):
    """An argv with about half of its ``--flag=value`` options moved into
    config-file lines, one time in four with one more line from
    CONFIG_LINES, as (the whole argv, the argv left, the file's text,
    whether the file holds only moved flags)."""
    whole = draw(ARGV)
    argv, lines = [], []
    for token in whole:
        name, sep, text = token.partition("=")
        if name.startswith("--") and sep and draw(st.booleans()):
            lines.append(f"{name[2:]} = {text}")
        else:
            argv.append(token)
    only_moved = draw(st.integers(0, 3)) != 0
    if not only_moved:
        lines.append(draw(st.sampled_from(CONFIG_LINES)))
    text = "".join(f"{line}\n" for line in draw(st.permutations(lines)))
    return whole, argv, text, only_moved

_NUMBER = re.compile(r"[^\s,=:;()\[\]]+")


def _run(capsys, argv, output):
    rc = main(argv)
    captured = capsys.readouterr()
    written = output.read_bytes() if output.exists() else None
    output.unlink(missing_ok=True)
    return rc, captured.out, captured.err, written


def _named_values(out, written):
    """(name, value) for every ``name = value`` line and every CSV cell."""
    pairs = []
    for line in out.splitlines():
        name, sep, text = line.partition(" = ")
        if sep:
            pairs.append((name, text))
    for table in (out, written.decode() if written else ""):
        rows = [line.split(",") for line in table.splitlines()
                if "," in line and not line.startswith("#")]
        if rows:
            header = rows[0]
            pairs.extend((name, cell) for row in rows[1:]
                         for name, cell in zip(header, row))
    return pairs


def _check_output(out, written):
    for text in (out, written.decode() if written else ""):
        # '#' lines echo the command line, flags and all
        computed = [line for line in text.splitlines() if not line.startswith("#")]
        for token in _NUMBER.findall("\n".join(computed)):
            try:
                number = float(token)
            except ValueError:
                continue
            assert math.isfinite(number), f"non-finite {token!r} printed"
    for name, text in _named_values(out, written):
        try:
            number = float(text)
        except ValueError:
            continue
        if name.startswith("p"):
            assert abs(number) <= 1.0, (name, number)
        if name.startswith(("e_", "amplitude_")):
            assert number >= 0.0, (name, number)


def _with_files(tmp_path, argv, measurements):
    """``argv`` with its output file and measurements file, and the output."""
    output = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = [*argv, f"--output={output}"]
    if argv[0] == "compare":
        # None leaves the measurements file missing: an I/O error
        path = tmp_path / "measurements.txt"
        path.unlink(missing_ok=True)
        if measurements is not None:
            path.write_text(MEASUREMENTS[measurements])
        argv = [*argv, f"--measurements={path}", f"--output={output}"]
    return argv, output


def _check_contract(capsys, tmp_path, argv, measurements=None):
    """Runs ``argv`` twice, checks the contract and returns the first run."""
    argv, output = _with_files(tmp_path, argv, measurements)
    first = _run(capsys, argv, output)
    rc, out, err, written = first
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err and "Warning:" not in err, (argv, err)
    if rc == 0:
        _check_output(out, written)
    else:
        # every check, the refusal of unread flags included, runs before
        # anything is printed or written
        assert out == "" and written is None, (argv, rc)
    assert _run(capsys, argv, output) == first, argv
    return first


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV, measurements=st.sampled_from((None, *MEASUREMENTS)))
# every preset runs at least once
@example(argv=["sweep", "--preset=figure4", "--points=2"], measurements=None)
@example(argv=["sweep", "--preset=table2"], measurements=None)
def test_cli_contract(capsys, tmp_path, argv, measurements):
    _check_contract(capsys, tmp_path, argv, measurements)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=config_argv(), measurements=st.sampled_from((None, *MEASUREMENTS)))
# a value outside its flag's choices, and one flag of a required group,
# each moved into the file
@example(drawn=(["sweep", "--variable=radius", "--lo=1", "--hi=2",
                 "--wavelength-um=0.5", "--spacing=x"],
                ["sweep", "--variable=radius", "--lo=1", "--hi=2",
                 "--wavelength-um=0.5"], "spacing = x\n", True), measurements=None)
@example(drawn=(["polsim", "--p-true=0.2", "--seed=1"], ["polsim", "--seed=1"],
                "p-true = 0.2\n", True), measurements=None)
# each band preset, chosen in the file, and --points for figure4
@example(drawn=(["sweep", "--preset=figure4", "--points=2"], ["sweep", "--preset=figure4"],
                "points = 2\n", True), measurements=None)
@example(drawn=(["sweep", "--preset=table2"], ["sweep"], "preset = table2\n", True),
         measurements=None)
def test_cli_contract_with_config(capsys, tmp_path, drawn, measurements):
    whole, argv, text, only_moved = drawn
    config = tmp_path / "run.cfg"
    config.write_text(text)
    rc, out, _, written = _check_contract(
        capsys, tmp_path, [*argv, f"--config={config}"], measurements)
    flags = [token.partition("=")[0] for token in whole if token.startswith("--")]
    if only_moved and len(set(flags)) == len(flags):
        whole_rc, whole_out, _, whole_written = _run(
            capsys, *_with_files(tmp_path, whole, measurements))
        assert (rc, out) == (whole_rc, whole_out), (whole, text)
        assert _without_command(written) == _without_command(whole_written), whole


def _without_command(written):
    return written and [line for line in written.splitlines()
                        if not line.startswith(b"# command:")]
