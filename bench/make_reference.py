"""Recompute bench/reference_seed0.json: P of every input of one pass of
every workload at the reference seed.

    python3 bench/make_reference.py

Only rerun this on purpose, when a change is meant to move P by more
than the benchmark's tolerance, and say so in the change.
"""

import json
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    references = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        db = run.wirepol.load_database()
        models = {t: run.wirepol.model_for_temperature(db, t)
                  for t in workloads.TEMPERATURES}
        for name, spec in workloads.WORKLOADS.items():
            op = spec.operation(models, Path(tmp))
            references[name] = [[row[0] for row in op(item)[0]]
                                for item in spec.inputs(run.REFERENCE_SEED)]
    # one input per line, so a diff shows which inputs moved
    body = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(ps) for ps in refs) + "\n]"
        for name, refs in references.items())
    run.REFERENCE_FILE.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
