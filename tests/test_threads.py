"""The benchmark configs write the same CSV bytes on one BLAS thread as on two.

Each workload of ``perfbench/run.py`` runs once in a fresh process with
``OPENBLAS_NUM_THREADS=1`` and once with ``2``, its configs written by
perfbench's own ``setup`` at seed 1, and the CSV of each kind is compared by
sha256.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 1

# writes the configs of one workload into a directory and runs each kind there
CHILD = """
import contextlib, io, sys
perfbench, workdir, workload, seed = sys.argv[1:]
sys.path.insert(0, perfbench)
import run
from carshift import cli
for kind, _, path in run.setup(workdir, workload, int(seed)):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", "--config", path, "--out", workdir])
    if status != 0:
        sys.exit(f"{kind}: exit status {status}")
"""

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for two BLAS threads"
)


def _workloads():
    """``perfbench/run.py``'s ``WORKLOADS``, read from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.fixture(scope="module")
def csv_digests(tmp_path_factory):
    """``digests(workload)``: ``{threads: {kind: sha256 of its CSV}}`` for
    one and two BLAS threads, each workload run once, both thread counts at
    the same time."""
    cache = {}

    def digests(workload):
        if workload not in cache:
            runs = {}
            for threads in (1, 2):
                workdir = tmp_path_factory.mktemp(f"{workload}-{threads}")
                env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
                argv = [sys.executable, "-c", CHILD, str(PERFBENCH), str(workdir), workload, str(SEED)]
                runs[threads] = (workdir, subprocess.Popen(argv, env=env))
            for workdir, child in runs.values():
                assert child.wait() == 0
            cache[workload] = {
                threads: {
                    kind: hashlib.sha256((workdir / f"{kind}.csv").read_bytes()).hexdigest()
                    for kind, _ in WORKLOADS[workload]
                }
                for threads, (workdir, _) in runs.items()
            }
        return cache[workload]

    return digests


def _params():
    for workload, experiments in WORKLOADS.items():
        for kind, _ in experiments:
            marks = ()
            if kind == "dilation-check":
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="its residuals come from tall products, QRs and SVDs that "
                    "OpenBLAS splits across threads; ROADMAP item 4 takes them into "
                    "small frame matrices",
                )
            yield pytest.param(workload, kind, id=kind, marks=marks)


@pytest.mark.parametrize("workload, kind", _params())
def test_csv_bytes_do_not_move_with_the_blas_thread_count(csv_digests, workload, kind):
    digests = csv_digests(workload)
    assert digests[1][kind] == digests[2][kind]
