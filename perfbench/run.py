"""carshift benchmark: closed-loop `carshift run` experiments, timed in-process.

    python3 perfbench/run.py --workload dense-dilation --seed 1 --seconds 25 --trace 0

One client calls ``carshift.cli.main`` from this process; each experiment
starts when the previous one has finished.  A pass runs the workload's
experiment list once; passes repeat until ``--seconds`` have gone by.  Every
input is written from ``--seed`` into a fresh directory under
``perfbench/.work``; the carshift under test is the one in ``src/`` of this
checkout.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  The traced run ignores ``--seconds``: after a
discarded warm-up pass it makes untraced passes and passes with every public
carshift call wrapped in a span (see ``tracing.py``) in turn, then the size
sweeps.  The line before the result holds the environment stamp and the
pass and experiment times.  See ``README.md`` for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

FAMILIES = {
    "fam1.txt": [(-1.0, 0.0)],
    "fam3.txt": [(-1.0, 0.0), (-2.0, 0.5), (-0.5, 1.0)],
}

# The first experiment of a workload is reported as kind_s.lead, the second
# as kind_s.second, the others together as kind_s.rest.
WORKLOADS = {
    "dense-dilation": (
        ("conjugacy", {"family": "fam3.txt", "horizons": "24 32 40"}),
        ("pipeline", {"family": "fam1.txt", "nu": "0.25"}),
        ("innerness", {"sizes": "64 128 256 512"}),
        ("extension", {"sizes": "64 128 256 512"}),
    ),
    "fermion-modular": (
        ("modular-verify", {"modes": "5"}),
        ("quasifree-verify", {"modes": "5", "degree": "6", "trials": "10"}),
        ("car-check", {"modes": "8", "trials": "50"}),
    ),
    "lowrank-expcalc": (
        ("prop2", {"family": "fam3.txt", "k_max": "2048"}),
        ("dilation-check", {"family": "fam3.txt", "step": "0.00048828125", "horizon": "32"}),
        ("approx", {"family": "fam3.txt"}),
        ("blaschke", {"family": "fam3.txt", "samples": "100000"}),
    ),
}

SETUP_PROBES = 7
OVERHEAD_PAIRS = 2                    # untraced + traced passes in the traced run
SWEEP_HORIZONS = (20.0, 40.0, 80.0)   # grid dims 640 / 1280 / 2560 at step 1/16
SWEEP_MODES = (2, 3, 4, 5)


def setup(workdir, workload, seed):
    """Import carshift, numpy and scipy, and write the configs and sidecars.

    Returns ``[(kind, params, config_path)]`` in run order.
    """
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import carshift.cli

    if not carshift.cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"carshift was imported from {carshift.cli.__file__}, not {SRC}")
    for name, lambdas in FAMILIES.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write("# Re Im\n" + "".join(f"{re!r} {im!r}\n" for re, im in lambdas))
    configs = []
    for kind, params in WORKLOADS[workload]:
        path = os.path.join(workdir, kind + ".ini")
        with open(path, "w") as fh:
            fh.write(f"[experiment]\nkind = {kind}\nseed = {seed}\n\n[params]\n")
            fh.write("".join(f"{key} = {val}\n" for key, val in params.items()))
        configs.append((kind, params, path))
    return configs


def time_setup_probes(workload, seed):
    """Wall seconds of fresh processes that only run :func:`setup`."""
    times = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(dir=WORK)
        try:
            start = time.perf_counter()
            subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", probe_dir,
                            "--workload", workload, "--seed", str(seed)], check=True)
            times.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(probe_dir)
    return times


def warm_blas():
    """Start the BLAS/LAPACK threads before the first timed call."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((128, 128)) * (1 + 1j)
    np.linalg.svd(a)
    np.linalg.eigh(a + a.conj().T)
    np.linalg.qr(a)


class Runner:
    """Runs experiment passes and records their times and failures."""

    def __init__(self, configs, out_dir):
        from carshift import cli
        from check import OutputCheck

        self.cli = cli
        self.configs = configs
        self.out_dir = out_dir
        self.check = OutputCheck()
        self.csv_hashes = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None):
        """One closed-loop pass; returns ``{kind: seconds}``."""
        times = {}
        for kind, params, path in self.configs:
            self.attempted += 1
            argv = ["run", "--config", path, "--out", self.out_dir]
            main = self.cli.main
            if tracer is not None:
                tracer.run_id = self.attempted
                main = tracer.wrap("experiment." + kind, main)
            problems = []
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main(argv)
            except Exception:
                problems.append(traceback.format_exc())
            times[kind] = time.perf_counter() - start
            if not problems:
                if status != 0:
                    problems.append(f"exit status {status}")
                try:
                    problems += self.check.problems(kind, params, self.out_dir)
                    problems += self._same_csv(kind)
                except (OSError, ValueError, KeyError, IndexError):
                    problems.append(traceback.format_exc())
            if problems:
                self.failed += 1
                self.problems += [f"{kind}: {p}" for p in problems]
        return times

    def _same_csv(self, kind):
        with open(os.path.join(self.out_dir, kind + ".csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.csv_hashes.setdefault(kind, digest) != digest:
            return ["CSV bytes differ from the first pass of this run"]
        return []

    def csv_bytes(self):
        return sum(os.path.getsize(os.path.join(self.out_dir, kind + ".csv"))
                   for kind, _, _ in self.configs)


def environment():
    import numpy
    import scipy
    import carshift

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "carshift": carshift.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(threads) if threads else nproc,
        "blas_threads_source": "env" if threads else "default (nproc)",
        "nproc": nproc,
        "ram_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30,
    }


def measure(runner, seconds):
    """Untraced passes until ``seconds`` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def end_to_end(runner, passes, setup_times):
    kinds = [kind for kind, _, _ in runner.configs]
    lead, second, rest = kinds[0], kinds[1], kinds[2:]
    med = statistics.median
    return {
        "setup_s": med(setup_times),
        "run_s": med(sum(p.values()) for p in passes),
        "kind_s.lead": med(p[lead] for p in passes),
        "kind_s.second": med(p[second] for p in passes),
        "kind_s.rest": med(sum(p[k] for k in rest) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _growth(sizes, seconds):
    import numpy as np

    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def sweep_conjugacy():
    """Dense conjugacy criterion at one t over grid dims 640/1280/2560.

    Returns per-dim seconds of the whole (t, dim) step and of
    ``weighted_hs_norm`` alone.
    """
    from carshift import bogoliubov, hardyshift
    from tracing import Tracer

    basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily([-1.0]))
    models = {}
    for horizon in SWEEP_HORIZONS:
        model = hardyshift.GridModel(basis, horizon, 1.0 / 16)
        models[2 * model.n] = model
    starts = []

    def u_path(t, n):
        starts.append(time.perf_counter())
        return models[n].shift_dilation(t).to_dense()

    def v_path(t, n):
        return models[n].flow_dilation(t).to_dense()

    tracer = Tracer()
    with tracer.installed():
        bogoliubov.conjugacy_criterion(0.25, u_path, v_path, [0.25], sorted(models))
    starts.append(time.perf_counter())
    steps = [b - a for a, b in zip(starts, starts[1:])]
    norms = [end - start for name, start, end, _, _ in tracer.spans
             if name == "bogoliubov.weighted_hs_norm"]
    return sorted(models), steps, norms


def sweep_tomita():
    """``tomita_operator`` seconds for the isotropic state on 2..5 modes."""
    from carshift import modular, quasifree

    seconds = []
    for modes in SWEEP_MODES:
        rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes))
        start = time.perf_counter()
        modular.tomita_operator(rep)
        seconds.append(time.perf_counter() - start)
    return seconds


def per_layer(runner, spans_path):
    """Untraced and traced passes in turn, then the size sweeps.

    A discarded warm-up pass comes first.  The layer metrics come from the
    last traced pass.  ``trace.overhead_s`` is the median over pairs of a
    traced pass minus the untraced pass before it, ``trace.noise_s`` the
    larger of the ranges of the untraced and of the traced pass times.
    Returns the per-layer values by metric name and the passes' times.
    """
    from tracing import COUNTERS, Tracer, summarize

    runner.run_pass()
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced.append(sum(runner.run_pass().values()))
        tracer = Tracer()
        with tracer.installed():
            traced.append(sum(runner.run_pass(tracer).values()))
    tracer.write(spans_path)
    # A layer the workload never calls reads 0.
    values = {counter: 0 for counter, _ in COUNTERS.values()}
    values.update(tracer.counters)
    stats = summarize(tracer.spans)
    for name in tracer.names:
        for stat, value in stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).items():
            values[f"{name}.{stat}"] = value
    med = statistics.median
    values["cli.csv_bytes"] = runner.csv_bytes()
    values["trace.run_s"] = med(traced)
    values["trace.untraced_run_s"] = med(untraced)
    values["trace.overhead_s"] = med(t - u for t, u in zip(traced, untraced))
    values["trace.noise_s"] = max(max(p) - min(p) for p in (untraced, traced))
    values["trace.spans"] = len(tracer.spans)

    dims, steps, norms = sweep_conjugacy()
    values["bogoliubov.weighted_hs_norm.growth"] = _growth(dims, norms)
    values.update({f"sweep.conjugacy_s.dim{d}": s for d, s in zip(dims, steps)})
    tomita = sweep_tomita()
    values["modular.tomita_operator.growth"] = _growth([4 ** m for m in SWEEP_MODES], tomita)
    values.update({f"sweep.tomita_s.modes{m}": s for m, s in zip(SWEEP_MODES, tomita)})
    return values, {"untraced_passes_s": untraced, "traced_passes_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "carshift", "cli.py")):
        print(f"no carshift source tree at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.setup_probe, args.workload, args.seed)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        setup_times = [] if args.trace else time_setup_probes(args.workload, args.seed)
        configs = setup(workdir, args.workload, args.seed)
        warm_blas()
        runner = Runner(configs, os.path.join(workdir, "out"))
        if args.trace:
            declared = spec["per_layer"]
            spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
            values, detail = per_layer(runner, spans_path)
        else:
            declared = spec["end_to_end"]
            passes = measure(runner, args.seconds or spec["run_seconds"])
            values = end_to_end(runner, passes, setup_times)
            detail = {"setup_probes_s": setup_times, "passes": passes,
                      "kind_s": {k: statistics.median(p[k] for p in passes) for k in passes[0]}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(), **detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
