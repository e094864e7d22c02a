"""Experiment runner.

Every checker in the package is exposed as an experiment kind; a run reads an
INI-style config, executes the experiment, and writes a CSV table plus a JSON
report side by side.  Same config and seed give byte-identical CSV output.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config error.
"""

import argparse
import configparser
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import bogoliubov, fock, hardyshift, modular, opalg, quasifree


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("config file not found: %s" % path)
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    kind = parser["experiment"].get("kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(
            "unknown experiment kind %r (known: %s)" % (kind, ", ".join(sorted(EXPERIMENTS)))
        )
    params = dict(parser["params"]) if "params" in parser else {}
    seed = parser["experiment"].getint("seed", fallback=0)
    return {"kind": kind, "seed": seed, "params": params, "path": os.path.abspath(path)}


def load_lambda_file(path, base_dir):
    """Sidecar family file: one 'Re Im' pair per line, '#' comments."""
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise ConfigError("lambda file not found: %s" % full)
    lambdas = []
    with open(full) as fh:
        for line_no, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ConfigError("%s:%d: expected 'Re Im', got %r" % (full, line_no, body))
            lambdas.append(complex(float(parts[0]), float(parts[1])))
    if not lambdas:
        raise ConfigError("lambda file %s contains no entries" % full)
    return lambdas


def _get(params, key, cast, default=None):
    if key not in params:
        if default is None:
            raise ConfigError("missing parameter %r" % key)
        return default
    try:
        return cast(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError("parameter %r: %s" % (key, exc))


def _int_list(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _float_list(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# experiment bodies.  Each returns (columns, rows, verdicts, extra) where rows
# is a list of tuples matching columns and verdicts maps name -> (ok, value).


def _run_car_check(params, seed, base_dir):
    modes = _get(params, "modes", int, 4)
    trials = _get(params, "trials", int, 100)
    rng = np.random.default_rng(seed)
    space = fock.FockSpace(modes)
    numbers = fock.particle_numbers(space)
    rows = []
    worst_car = 0.0
    worst_norm = 0.0
    for trial in range(trials):
        f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        af = fock.annihilator(space, f)
        ag = fock.annihilator(space, g)
        r1 = opalg.sector_operator_norm(opalg.anticommutator(af, ag), numbers)
        r2 = opalg.sector_operator_norm(
            opalg.anticommutator(opalg.adjoint(af), ag) - np.vdot(g, f) * np.eye(space.dim),
            numbers,
        )
        r3 = abs(opalg.sector_operator_norm(af, numbers) - np.linalg.norm(f))
        worst_car = max(worst_car, r1, r2)
        worst_norm = max(worst_norm, r3)
        rows.append((trial, r1, r2, r3))
    verdicts = {
        "car_identities": (worst_car <= 1e-12, worst_car),
        "norm_identity": (worst_norm <= 1e-10, worst_norm),
    }
    return ["trial", "anticomm_ff", "anticomm_star", "norm_residual"], rows, verdicts, {}


def _run_quasifree_verify(params, seed, base_dir):
    modes = _get(params, "modes", int, 3)
    degree = _get(params, "degree", int, 4)
    trials = _get(params, "trials", int, 50)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for trial in range(trials):
        a = rng.standard_normal((modes, modes))
        sym = a + a.T
        w, v = np.linalg.eigh(sym)
        r = (v * (0.1 + 0.8 * (w - w.min()) / max(np.ptp(w), 1e-9))) @ v.T
        state = quasifree.CovarianceState(r)
        rep = quasifree.doubled_representation(state)
        half = degree // 2
        fs = [rng.standard_normal(modes) for _ in range(half)]
        gs = [rng.standard_normal(modes) for _ in range(half)]
        want = quasifree.quasifree_expectation(state, fs, gs)
        ops = [rep.field_star(f, None) for f in reversed(fs)]
        ops += [rep.field(g, None) for g in gs]
        got = rep.vacuum_expectation(ops)
        resid = abs(want - got)
        worst = max(worst, resid)
        rows.append((trial, want.real, got.real, resid))
    verdicts = {"det_vs_gns": (worst <= 1e-9, worst)}
    return ["trial", "determinant", "gns_value", "residual"], rows, verdicts, {}


def _run_modular_verify(params, seed, base_dir):
    modes = _get(params, "modes", int, 2)
    nu = _get(params, "nu", float, 0.25)
    rng = np.random.default_rng(seed)
    state = quasifree.CovarianceState.isotropic(nu, modes)
    rep = quasifree.doubled_representation(state)
    data = modular.tomita_operator(rep)
    j_formula = modular.modular_involution_formula(rep)
    j_resid = opalg.sector_operator_norm(data.j.matrix - j_formula.matrix, rep.charge)
    f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    lhs = modular.conjugate_by(data.j, rep.field(f, None))
    rhs = -opalg.adjoint(modular.commutant_generator(rep, f))
    b_resid = opalg.sector_operator_norm(lhs - rhs, rep.charge)
    eigs = data.delta_eigenvalues
    eigs = eigs[eigs > 1e-12]
    ratio = nu / (1.0 - nu)
    powers = np.round(np.log(eigs) / np.log(ratio))
    spec_resid = float(np.max(np.abs(eigs - ratio ** powers)))
    rows = [(modes, nu, j_resid, b_resid, spec_resid, data.solve_residual)]
    verdicts = {
        "involution_formula": (j_resid <= 1e-9, j_resid),
        "commutant_identity": (b_resid <= 1e-10, b_resid),
        "delta_spectrum": (spec_resid <= 1e-8, spec_resid),
    }
    cols = ["modes", "nu", "j_residual", "b_residual", "spectrum_residual", "solve_residual"]
    return cols, rows, verdicts, {"identity": "J pi(a(f+0)) J = -b*(f)"}


def _run_innerness(params, seed, base_dir):
    nu = _get(params, "nu", float, 0.3)
    sizes = _get(params, "sizes", _int_list, [4, 8, 16, 32, 64])
    case = _get(params, "case", str, "minus-identity")
    if case == "minus-identity":
        w_of = lambda n: -np.eye(n)
    elif case == "finite-rank":
        def w_of(n):
            w = np.eye(n)
            w[0, 0] = -1.0
            return w
    else:
        raise ConfigError("case must be 'minus-identity' or 'finite-rank'")
    report = bogoliubov.innerness_norm(nu, w_of, sizes)
    rows = list(zip(report.sizes, report.values))
    verdicts = {"innerness": (report.verdict in ("converges", "diverges"), report.values[-1])}
    extra = {"verdict": report.verdict, "case": case, "nu": nu}
    return ["size", "hs_norm"], rows, verdicts, extra


def _run_extension(params, seed, base_dir):
    nu = _get(params, "nu", float, 0.25)
    sizes = _get(params, "sizes", _int_list, [4, 8, 16, 32])
    case = _get(params, "case", str, "opposite")
    if case == "equal":
        v_of = lambda n: np.eye(n)
        w_of = lambda n: np.eye(n)
    elif case == "opposite":
        v_of = lambda n: -np.eye(n)
        w_of = lambda n: np.eye(n)
    elif case == "finite-rank":
        v_of = lambda n: np.eye(n)
        def w_of(n):
            w = np.eye(n)
            w[0, 0] = -1.0
            return w
    else:
        raise ConfigError("case must be one of equal, opposite, finite-rank")
    ext = bogoliubov.extension_criterion(nu, v_of, w_of, sizes)
    araki = bogoliubov.araki_criterion(nu, v_of, w_of, sizes)
    rows = list(zip(ext.sizes, ext.values, araki.values))
    agree = ext.verdict == araki.verdict
    verdicts = {"criteria_agree": (agree, ext.values[-1])}
    extra = {"extension_verdict": ext.verdict, "araki_verdict": araki.verdict, "case": case}
    return ["size", "extension_hs", "araki_hs"], rows, verdicts, extra


def _dilation_models(basis, horizons, step):
    """One grid model per horizon, keyed by the doubled-space dimension."""
    models = {}
    for horizon in horizons:
        model = hardyshift.GridModel(basis, horizon, step)
        models[2 * model.n] = model
    return models


def _conjugacy(nu, models, t_grid):
    """Conjugacy criterion between the factored shift and flow dilations."""
    return bogoliubov.conjugacy_criterion(
        nu,
        lambda t, n: models[n].shift_dilation(t),
        lambda t, n: models[n].flow_dilation(t),
        t_grid,
        sorted(models),
    )


def _run_conjugacy(params, seed, base_dir):
    nu = _get(params, "nu", float, 0.25)
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    horizons = _get(params, "horizons", _float_list, [12.0, 16.0, 20.0])
    step = _get(params, "step", float, 1.0 / 16)
    t_grid = _get(params, "t_grid", _float_list, [0.25, 0.5])
    family = hardyshift.ExponentialFamily(lambdas)
    basis = hardyshift.orthogonalize(family)
    models = _dilation_models(basis, horizons, step)
    verdict, per_t = _conjugacy(nu, models, t_grid)
    rows = []
    for t in t_grid:
        rep = per_t[t]
        for n, val in zip(rep.sizes, rep.values):
            rows.append((t, n, val))
    verdicts = {"conjugacy": (verdict in ("converges", "diverges"), rows[-1][2])}
    return ["t", "size", "weighted_hs"], rows, verdicts, {"verdict": verdict}


def _run_blaschke(params, seed, base_dir):
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    samples = _get(params, "samples", int, 1000)
    family = hardyshift.ExponentialFamily(lambdas)
    ys = np.linspace(-50.0, 50.0, samples)
    vals = np.abs(hardyshift.blaschke_eval(family, 1j * ys))
    boundary = float(np.max(np.abs(vals - 1.0)))
    asym = hardyshift.blaschke_asymptotics(family)
    c3_err = abs(asym["c3"] - asym["two_s"]) / abs(asym["two_s"])
    rows = [(y, v) for y, v in zip(ys, vals)]
    verdicts = {
        "boundary_modulus": (boundary <= 1e-12, boundary),
        "c3_matches_2s": (c3_err <= 0.01, asym["c3"]),
    }
    return ["y", "abs_b"], rows, verdicts, {"two_s": asym["two_s"], "c3": asym["c3"]}


def _run_approx(params, seed, base_dir):
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    t_grid = _get(params, "t_grid", _float_list, [2.0 ** -k for k in range(4, 13)])
    family = hardyshift.ExponentialFamily(lambdas)
    basis = hardyshift.orthogonalize(family)
    values = [hardyshift.defect_hs_norm(basis, t) for t in t_grid]
    slope = hardyshift.fit_power(t_grid, values)
    rows = list(zip(t_grid, values))
    verdicts = {"defect_slope": (abs(slope - 0.5) <= 0.1, slope)}
    return ["t", "defect_hs"], rows, verdicts, {"slope": slope}


def _run_prop2(params, seed, base_dir):
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    t = _get(params, "t", float, 1.0)
    deltas = _get(params, "delta_grid", _float_list, [2.0 ** -k for k in range(3, 11)])
    k_max = _get(params, "k_max", int, 64)
    family = hardyshift.ExponentialFamily(lambdas)
    rows = []
    values = []
    for delta in deltas:
        rep = hardyshift.prop2_defect(family, t, delta, k_max)
        values.append(rep["value"])
        rows.append((delta, rep["value"], rep["tail_estimate_sq"]))
    slope = hardyshift.fit_power(deltas, values)
    verdicts = {"defect_slope": (abs(slope - 0.5) <= 0.15, slope)}
    return ["delta", "hs_estimate", "tail_sq"], rows, verdicts, {"slope": slope}


def _run_dilation_check(params, seed, base_dir):
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    step = _get(params, "step", float, 1.0 / 256)
    horizon = _get(params, "horizon", float, 8.0)
    t = _get(params, "t", float, 0.25)
    family = hardyshift.ExponentialFamily(lambdas)
    basis = hardyshift.orthogonalize(family)
    model = hardyshift.GridModel(basis, horizon, step)
    shift = model.shift_dilation(t)
    flow = model.flow_dilation(t)
    rows = [
        ("shift", shift.unitarity_residual(), 0.0, 0.0),
        (
            "flow",
            flow.unitarity_residual(),
            model.compression_residual(t),
            flow.offspace_deviation(),
        ),
    ]
    worst = max(rows[0][1], rows[1][1])
    verdicts = {"unitarity": (worst <= 1e-8, worst)}
    cols = ["operator", "unitarity_residual", "compression_residual", "offspace_deviation"]
    return cols, rows, verdicts, {"step": step, "horizon": horizon, "t": t}


def _run_pipeline(params, seed, base_dir):
    lambdas = load_lambda_file(_get(params, "family", str, "-"), base_dir)
    nu = _get(params, "nu", float, 0.25)
    if not 0.0 < nu <= 0.5:
        raise ConfigError("nu must lie in (0, 1/2]")
    rows = []
    verdicts = {}
    extra = {"regime": "trace (nu = 1/2)" if nu == 0.5 else "type III"}

    # stage 1: condition (1) on the family
    try:
        family = hardyshift.ExponentialFamily(lambdas)
    except ValueError as exc:
        raise ConfigError("stage condition-1: %s" % exc)
    rows.append(("condition-1", 1.0))
    verdicts["condition-1"] = (True, float(len(lambdas)))

    # stage 2: norm continuity of the perturbed semigroup on a dyadic grid
    basis = hardyshift.orthogonalize(family)
    cont = hardyshift.condition_n_check(
        lambda t: hardyshift.backward_shift_matrix(basis, t).conj().T,
        [k / 64.0 for k in range(33)],
        atol=1e-10,
    )
    rows.append(("condition-n", float(max(cont["moduli"]))))
    verdicts["condition-n"] = (cont["pass"], float(max(cont["moduli"])))

    # stage 3: defect slope of V_t against the shift
    t_grid = [2.0 ** -k for k in range(4, 13)]
    values = [hardyshift.defect_hs_norm(basis, t) for t in t_grid]
    slope = hardyshift.fit_power(t_grid, values)
    rows.append(("defect-slope", slope))
    verdicts["defect-slope"] = (abs(slope - 0.5) <= 0.1, slope)

    # stage 4: unitary dilations and the approximation check
    step = _get(params, "step", float, 1.0 / 16)
    horizons = _get(params, "horizons", _float_list, [12.0, 16.0, 20.0])
    models = _dilation_models(basis, horizons, step)
    largest = models[max(models)]
    t_check = [0.25, 0.5]
    approx = bogoliubov.approximation_check(
        largest.shift_dilation, largest.flow_dilation, largest.n, t_check, tol=1e-6
    )
    worst_dev = max(row["offspace_deviation"] for row in approx["rows"])
    rows.append(("approximation", float(worst_dev)))
    verdicts["approximation"] = (approx["pass"], float(worst_dev))

    # stage 5: conjugacy-criterion weighted norms on the dilated pair
    verdict, per_t = _conjugacy(nu, models, t_check)
    last = per_t[t_check[-1]].values[-1]
    rows.append(("conjugacy", float(last)))
    verdicts["conjugacy"] = (verdict != "diverges", float(last))

    return ["stage", "value"], rows, verdicts, extra


EXPERIMENTS = {
    "car-check": _run_car_check,
    "quasifree-verify": _run_quasifree_verify,
    "modular-verify": _run_modular_verify,
    "innerness": _run_innerness,
    "conjugacy": _run_conjugacy,
    "extension": _run_extension,
    "approx": _run_approx,
    "blaschke": _run_blaschke,
    "prop2": _run_prop2,
    "dilation-check": _run_dilation_check,
    "pipeline": _run_pipeline,
}

SCHEMAS = {
    "car-check": "modes (int), trials (int)",
    "quasifree-verify": "modes (int), degree (int), trials (int)",
    "modular-verify": "modes (int), nu (float)",
    "innerness": "nu (float), sizes (ints), case (minus-identity|finite-rank)",
    "conjugacy": "nu (float), family (path), horizons (floats), step (float), t_grid (floats)",
    "extension": "nu (float), sizes (ints), case (equal|opposite|finite-rank)",
    "approx": "family (path), t_grid (floats)",
    "blaschke": "family (path), samples (int)",
    "prop2": "family (path), t (float), delta_grid (floats), k_max (int)",
    "dilation-check": "family (path), step (float), horizon (float), t (float)",
    "pipeline": "family (path), nu (float), step (float), horizons (floats)",
}


# ---------------------------------------------------------------------------
# report assembly


def _fmt(value):
    # repr of a numpy scalar is "np.float64(x)" under numpy 2
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_reports(out_dir, config, columns, rows, verdicts, extra, elapsed):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, config["kind"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in sorted(rows, key=lambda r: tuple(str(x) for x in r)):
        writer.writerow([_fmt(x) for x in row])
    with open(base + ".csv", "w") as fh:
        fh.write(buf.getvalue())
    report = {
        "kind": config["kind"],
        "seed": config["seed"],
        "params": config["params"],
        "verdicts": {name: {"pass": bool(ok), "value": val} for name, (ok, val) in verdicts.items()},
        "extra": extra,
        "rows": len(rows),
        "elapsed_seconds": elapsed,
    }
    with open(base + ".json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return report


def run(config, out_dir):
    body = EXPERIMENTS[config["kind"]]
    start = time.time()
    columns, rows, verdicts, extra = body(
        config["params"], config["seed"], os.path.dirname(config["path"])
    )
    report = write_reports(out_dir, config, columns, rows, verdicts, extra, time.time() - start)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(prog="carshift")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=".")
    run_p.add_argument("--seed", type=int, default=None)
    sub.add_parser("list", help="print experiment kinds and their parameters")
    args = parser.parse_args(argv)

    if args.command == "list":
        for kind in sorted(EXPERIMENTS):
            print("%-18s %s" % (kind, SCHEMAS[kind]))
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        report = run(config, args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    all_pass = all(entry["pass"] for entry in report["verdicts"].values())
    for name in sorted(report["verdicts"]):
        entry = report["verdicts"][name]
        print("%s: %s (%.6g)" % (name, "pass" if entry["pass"] else "FAIL", entry["value"]))
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
