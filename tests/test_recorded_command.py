"""A CSV's ``# command:`` line re-creates the CSV.

Every command that writes a CSV records in it the choices it read, those
from ``--config`` included, as one shell line.  With any config file
deleted, that line, split by ``shlex.split`` and run in a fresh directory
that holds only the input files it names, writes the same file under the
same name, byte for byte, its ``# command:`` line included.
"""

import os
import shlex
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wirepol.cli import main

from test_cold_start import INSTALLED_COMMANDS

# the flags that name a file the command reads
INPUT_FLAGS = ("--measurements", "--material-db")

TUNGSTEN = resources.files("wirepol").joinpath("data/tungsten.json").read_text()
RUN_CFG = ("variable = radius\nlo = 1e-1\nhi = 0.2\npoints = 2\nband = 5e-1:7.5e-1\n"
           "include-tentative = true\noutput = run#1.csv\n")

# (command line, the files it reads by name -> their text)
CASES = [
    *((command, {}) for command in INSTALLED_COMMANDS.splitlines() if " -o " in command),
    ("compare --measurements 'm #1.txt' --material-db 'w db.json' --temp-k 1600 -o c.csv",
     {"m #1.txt": "17 0.221 0.003\n", "w db.json": TUNGSTEN}),
    ("sweep --config run.cfg --temp-k 1600 --threads 2", {"run.cfg": RUN_CFG}),
]


def _recreates_itself(monkeypatch, workdir: Path, argv, files: dict) -> None:
    """Runs ``argv`` in ``workdir`` among ``files``, then the line recorded
    in its output in a fresh directory, and compares the two outputs."""
    workdir.mkdir()
    for name, text in files.items():
        (workdir / name).write_text(text)
    monkeypatch.chdir(workdir)
    assert main(argv) == 0
    output, = set(os.listdir(workdir)) - set(files)
    written = (workdir / output).read_bytes()
    for config in workdir.glob("*.cfg"):
        config.unlink()

    line = written.decode().split("\n", 1)[0]
    assert line.startswith("# command: wirepol ")
    tokens = shlex.split(line.removeprefix("# command: "))
    fresh = workdir.parent / f"{workdir.name}-fresh"
    fresh.mkdir()
    inputs = [path for flag, _, path in (token.partition("=") for token in tokens)
              if flag in INPUT_FLAGS]
    for name in inputs:
        shutil.copyfile(workdir / name, fresh / name)
    monkeypatch.chdir(fresh)
    assert main(tokens[1:]) == 0
    assert sorted(os.listdir(fresh)) == sorted([*inputs, output])
    assert (fresh / output).read_bytes() == written


@pytest.mark.parametrize("command, files", CASES, ids=[c for c, _ in CASES])
def test_recorded_command_recreates_its_file(capsys, monkeypatch, tmp_path, command, files):
    _recreates_itself(monkeypatch, tmp_path / "run", shlex.split(command), files)
    capsys.readouterr()


OUTPUT_NAMES = st.text(alphabet="ab .-'\"#=$\\`;&*~!?", min_size=1, max_size=12).filter(
    lambda name: name not in (".", ".."))
SMALL_RUNS = (
    (["sweep", "--variable=radius", "--lo=0.1", "--hi=0.2", "--points=2",
      "--wavelength-um=0.5", "--spacing=log"], {}),
    (["compare", "--measurements=m.txt", "--band=0.5:0.7"], {"m.txt": "5 0.24 0.005\n"}),
)


@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=OUTPUT_NAMES, run=st.sampled_from(SMALL_RUNS))
@example(name="-a b'#=.csv", run=SMALL_RUNS[0])
@example(name=' "x" #1 = $y', run=SMALL_RUNS[1])
def test_recorded_command_quotes_any_output_path(capsys, monkeypatch, tmp_path, name, run):
    argv, files = run
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        _recreates_itself(monkeypatch, Path(tmp) / "run", [*argv, f"--output={name}"], files)
    capsys.readouterr()
