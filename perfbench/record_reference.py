"""Write reference.json: the CSV each seed-independent experiment writes now.

    python3 perfbench/record_reference.py

Run it only when a change to carshift is meant to change those CSVs; the
benchmark then compares later runs against the new values (see check.py).
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import run
from check import ORACLES, REFERENCE

sys.path.insert(0, run.SRC)
from carshift import cli  # noqa: E402


def main():
    os.makedirs(run.WORK, exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for workload in run.WORKLOADS:
            for kind, _, path in run.setup(workdir, workload, seed=0):
                if kind in ORACLES:
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(["run", "--config", path, "--out", workdir])
                if status != 0:
                    sys.exit(f"{kind} exited with status {status}")
                with open(os.path.join(workdir, kind + ".csv")) as fh:
                    reference[kind] = fh.read()
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
