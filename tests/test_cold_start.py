"""Cold start: importing wirepol and running its commands loads no scipy,
and every command runs where scipy cannot be imported, with exit 0 and
nothing on stderr under PYTHONWARNINGS=error."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

INSTALLED_COMMANDS = """\
sweep --preset table2 -o table2.csv
point --radius-um 0.02 --wavelength-um 0.5
point --radius-um 1e-150 --wavelength-um 0.5
point --diameter-um 120 --band 0.5:0.75 --temp-k 2400
point --diameter-um 17 --band 0.5:0.75 --include-tentative
compare --temp-k 2400
polsim --p-true 0.221 --noise-rms 0.005 --seed 1
material show --temp-k 2400
sweep --preset figure4 --points 3 -o figure4.csv
sweep --preset figure1 --points 3 -o figure1.csv
sweep --variable radius --band 0.5:0.75 --spacing log --threads 2 --lo 0.25 --hi 0.3125 --points 3 --temp-k 2400 -o radius.csv
"""

CLI_RUNS = f"""\
wirepol.load_database()
for command in {INSTALLED_COMMANDS.splitlines()!r}:
    assert wirepol.cli.main(command.split()) == 0, command
"""

LOADS_NO_SCIPY = f"""\
import sys
import wirepol, wirepol.cli
{CLI_RUNS}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# a None entry in sys.modules makes every import of scipy raise ImportError;
# no command reaches bessel_j_all_orders (at x = 1.5 its power series, at
# x = 3 Hankel's integral) or thick_wire_polarization's rule split at the
# critical angle
WITHOUT_SCIPY = f"""\
import math, sys
sys.modules["scipy"] = None
import wirepol, wirepol.cli
from wirepol.special_functions import bessel_j_all_orders
{CLI_RUNS}
assert math.isfinite(wirepol.thick_wire_polarization(0.5 + 1e-3j))
j, jp = bessel_j_all_orders(2, 3.0)
print(j.tolist(), jp.tolist())
assert all(map(math.isfinite, [*j, *jp]))
print(bessel_j_all_orders(2, 1.5)[0].tolist())
"""


def _run(code, cwd):
    # the environment names a database that no command may read
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error",
           "WIREPOL_MATERIAL_DB": "missing.json"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()[-1]


def test_cli_evaluation_loads_no_scipy(tmp_path):
    assert _run(LOADS_NO_SCIPY, tmp_path) == "[]"


def test_evaluation_runs_where_scipy_cannot_be_imported(tmp_path):
    assert _run(WITHOUT_SCIPY, tmp_path).startswith("[0.5118276717359")
