"""Cold start: importing wirepol and evaluating through the CLI loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CODE = """\
import sys
import wirepol, wirepol.cli
wirepol.load_database()
for argv in (["point", "--radius-um", "0.02", "--wavelength-um", "0.5"],
             ["point", "--diameter-um", "17", "--band", "0.5:0.75", "--temp-k", "2400"]):
    assert wirepol.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_evaluation_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[]"
