"""Cold start: importing wirepol and evaluating through the CLI loads no
scipy, and every evaluation runs where scipy cannot be imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_RUNS = """\
wirepol.load_database()
for argv in (["point", "--radius-um", "0.02", "--wavelength-um", "0.5"],
             ["point", "--diameter-um", "17", "--band", "0.5:0.75", "--temp-k", "2400"]):
    assert wirepol.cli.main(argv) == 0, argv
"""

LOADS_NO_SCIPY = f"""\
import sys
import wirepol, wirepol.cli
{CLI_RUNS}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# a None entry in sys.modules makes every import of scipy raise ImportError;
# bessel_j_all_orders at x = 3 takes Hankel's integral, which no command reaches
WITHOUT_SCIPY = f"""\
import math, sys
sys.modules["scipy"] = None
import wirepol, wirepol.cli
from wirepol.special_functions import bessel_j_all_orders
{CLI_RUNS}
j, jp = bessel_j_all_orders(2, 3.0)
print(j.tolist(), jp.tolist())
assert all(map(math.isfinite, [*j, *jp]))
print(bessel_j_all_orders(2, 1.5)[0].tolist())
"""


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()[-1]


def test_cli_evaluation_loads_no_scipy():
    assert _run(LOADS_NO_SCIPY) == "[]"


def test_evaluation_runs_where_scipy_cannot_be_imported():
    assert _run(WITHOUT_SCIPY).startswith("[0.5118276717359")
