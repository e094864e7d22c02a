"""Experiment runner.

Every checker in the package is exposed as an experiment kind; a run reads an
INI-style config, executes the experiment, and writes a CSV table plus a JSON
report side by side.  Same config and seed give byte-identical CSV output.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config error.
"""

import argparse
import configparser
import json
import os
import re
import sys
import time

import numpy as np
from scipy import sparse

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
            lam = complex(float(parts[0]), float(parts[1]))
            # condition (1) lets NaN (every comparison with it is False) and infinities through
            if not np.isfinite(lam):
                raise ConfigError("%s:%d: exponent must be finite, got %r" % (full, line_no, body))
            lambdas.append(lam)
    if not lambdas:
        raise ConfigError("lambda file %s contains no entries" % full)
    return lambdas


def _tokens(cast):
    return lambda text, base_dir: [cast(tok) for tok in text.replace(",", " ").split()]


def _family(text, base_dir):
    """An exponent family file, checked against condition (1) as it is loaded."""
    return hardyshift.ExponentialFamily(load_lambda_file(text, base_dir))


def _count(text):
    value = int(text)
    if value <= 0:
        raise ValueError("must be a positive integer, got %d" % value)
    return value


def _positive(text):
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError("must be a positive number, got %s" % text.strip())
    return value


# A parameter type is (label printed by `carshift list`, cast(text, base_dir)).
INT = ("int", lambda text, base_dir: int(text))
FLOAT = ("float", lambda text, base_dir: float(text))
FAMILY = ("path", _family)
COUNT = ("int", lambda text, base_dir: _count(text))  # a positive integer
COUNTS = ("ints", _tokens(_count))  # a list of positive integers
POSITIVE = ("float", lambda text, base_dir: _positive(text))  # a finite float > 0
POSITIVES = ("floats", _tokens(_positive))  # a list of finite floats > 0
REQUIRED = object()  # default of a parameter that has none


def _choice(table):
    """Type of a parameter that names one key of ``table``."""

    def cast(text, base_dir):
        if text not in table:
            raise ValueError("must be one of %s" % ", ".join(table))
        return text

    return "|".join(table), cast


def parse_params(spec, params, base_dir):
    """Typed keyword arguments from the raw ``[params]`` strings.

    ``spec`` lists ``(name, type, default)``; keys outside it are ignored.
    """
    values = {}
    for name, (_, cast), default in spec:
        if name not in params:
            if default is REQUIRED:
                raise ConfigError("missing parameter %r" % name)
            values[name] = default
            continue
        try:
            values[name] = cast(params[name], base_dir)
        except ValueError as exc:
            raise ConfigError("parameter %r: %s" % (name, exc))
    return values


# ---------------------------------------------------------------------------
# experiment bodies.  Each takes the seed and its parameters as keywords and
# returns (table, verdicts, extra): table maps each CSV header name, in
# header order, to its column (a list or a 1-D array, all of one length), and
# verdicts maps name -> (ok, value).


# Basis rows of one car-check batch: the trials of a batch share one
# block-diagonal operator of at most this many rows (one trial when a single
# a(f) has more).
_CAR_BATCH_ROWS = 2048


def _run_car_check(seed, modes, trials):
    """CAR residuals of ``a(f)``, ``a(g)`` for random ``f``, ``g``, in batches.

    The ``a(f)`` of a batch's trials stand on the diagonal of one CSR
    operator, trial ``t`` on basis vectors ``t*dim .. (t+1)*dim - 1`` with
    labels ``numbers + (modes+1)*t``.  So for the whole batch an
    anticommutator takes two sparse products, each quantity one
    ``sector_stacks`` and one SVD per block shape, and ``sector_norms`` gives
    each trial's maximum.  Each dense ``a(f)`` is read at the Jordan-Wigner
    pattern; a nonzero entry off it is a ``ValueError``.
    """
    rng = np.random.default_rng(seed)
    space = fock.FockSpace(modes)
    dim, sectors = space.dim, modes + 1
    per_batch = max(1, _CAR_BATCH_ROWS // dim)
    # every a(f) lies on the Jordan-Wigner pattern; a batch repeats it down the diagonal
    tables = [fock.mode_table(space, i) for i in range(modes)]
    _, _, indices, indptr = fock.csr_pattern(tables, dim)
    rows, nnz = np.repeat(np.arange(dim), np.diff(indptr)), len(indices)
    shift = np.arange(per_batch)[:, None]
    batch_indices = (indices + dim * shift).ravel()
    batch_indptr = np.append((indptr[:-1] + nnz * shift).ravel(), nnz * per_batch)
    batch_labels = (fock.particle_numbers(space) + sectors * shift).ravel()

    def pattern_entries(f):
        # a(f) comes from fock.annihilator, whose calls perfbench's tracer counts
        dense = fock.annihilator(space, f)
        entries = dense[rows, indices]
        dense[rows, indices] = 0
        if dense.any():
            raise ValueError("a(f) has a nonzero entry off the Jordan-Wigner pattern")
        return entries

    def trial_maxima(op, count):
        labels = batch_labels[: count * dim]
        return opalg.sector_norms(op, labels).reshape(count, sectors).max(axis=1)

    ff, star, norm = [], [], []
    for first in range(0, trials, per_batch):
        count = min(per_batch, trials - first)
        af_data, ag_data = np.empty((2, count, nnz), dtype=complex)
        overlaps, f_norms = np.empty(count, dtype=complex), np.empty(count)
        for t in range(count):
            f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            af_data[t], ag_data[t] = pattern_entries(f), pattern_entries(g)
            overlaps[t], f_norms[t] = np.vdot(g, f), np.linalg.norm(f)
        size = count * dim
        pattern = (batch_indices[: count * nnz], batch_indptr[: size + 1])
        af = sparse.csr_array((af_data.ravel(), *pattern), shape=(size, size))
        ag = sparse.csr_array((ag_data.ravel(), *pattern), shape=(size, size))
        scalar = sparse.diags_array(np.repeat(overlaps, dim))  # (g, f) on trial t's block
        ff.append(trial_maxima(opalg.anticommutator(af, ag), count))
        star.append(trial_maxima(opalg.anticommutator(opalg.adjoint(af), ag) - scalar, count))
        norm.append(np.abs(trial_maxima(af, count) - f_norms))
    ff, star, norm = np.concatenate(ff), np.concatenate(star), np.concatenate(norm)
    worst_car = max(ff.max(), star.max())
    worst_norm = norm.max()
    verdicts = {
        "car_identities": (worst_car <= 1e-12, worst_car),
        "norm_identity": (worst_norm <= 1e-10, worst_norm),
    }
    table = {
        "trial": list(range(trials)), "anticomm_ff": ff, "anticomm_star": star, "norm_residual": norm
    }
    return table, verdicts, {}


def _run_quasifree_verify(seed, modes, degree, trials):
    if degree <= 0 or degree % 2:
        raise ConfigError("degree must be a positive even integer, got %d" % degree)
    rng = np.random.default_rng(seed)
    table = {"trial": list(range(trials)), "determinant": [], "gns_value": [], "residual": []}
    for _ in range(trials):
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
        table["determinant"].append(want.real)
        table["gns_value"].append(got.real)
        table["residual"].append(abs(want - got))
    worst = max(table["residual"])
    verdicts = {"det_vs_gns": (worst <= 1e-9, worst)}
    return table, verdicts, {}


def _run_modular_verify(seed, modes, nu):
    rng = np.random.default_rng(seed)
    state = quasifree.CovarianceState.isotropic(nu, modes)
    rep = quasifree.doubled_representation(state)
    data = modular.tomita_operator(rep)
    formula = modular.modular_involution_formula(rep)
    j_resid = opalg.sector_operator_norm(data.j - formula, rep.labels)
    # J pi(a(f)) J = -b*(f) is linear in f: checked on the basis vectors
    b_resid = max(
        opalg.sector_operator_norm(
            modular.conjugate_by(data, rep.field(e))
            + opalg.adjoint(modular.commutant_generator(rep, e)),
            rep.labels,
        )
        for e in np.eye(modes)
    )
    # the isotropic state's Delta is (nu / (1 - nu))^Q times the identity on
    # a sector of total charge Q: each sector's eigenvalues are checked
    # relative to that
    want = (nu / (1.0 - nu)) ** rep.charge
    spec_resid = float(np.max(np.abs(data.delta_eigenvalues / want - 1.0)))
    f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    kms = modular.kms_residual(rep, data, rep.field_star(f), rep.field(g))
    table = {
        "modes": [modes], "nu": [nu], "j_residual": [j_resid], "b_residual": [b_resid],
        "spectrum_residual": [spec_resid], "solve_residual": [data.solve_residual],
        "kms_residual": [kms],
    }
    verdicts = {
        "involution_formula": (j_resid <= 1e-9, j_resid),
        "commutant_identity": (b_resid <= 1e-10, b_resid),
        "delta_spectrum": (spec_resid <= 1e-8, spec_resid),
        "kms_condition": (kms <= 1e-10, kms),
    }
    return table, verdicts, {"identity": "J pi(a(e_i+0)) J = -b*(e_i)"}


# The operators of the innerness and extension cases are signed identities,
# held as CSR diagonals: the criteria read their n stored entries, not n^2.
def _identity(n):
    return sparse.eye_array(n, format="csr")


def _minus_identity(n):
    return -_identity(n)


def _finite_rank(n):
    """The identity with its first diagonal entry negated: a rank-one change."""
    w = _identity(n)
    w.data[0] = -1.0
    return w


# case -> W for innerness, case -> (V', W') for extension
_INNERNESS_CASES = {"minus-identity": _minus_identity, "finite-rank": _finite_rank}
_EXTENSION_CASES = {
    "equal": (_identity, _identity),
    "opposite": (_minus_identity, _identity),
    "finite-rank": (_identity, _finite_rank),
}


def _run_innerness(seed, nu, sizes, case):
    report = bogoliubov.innerness_norm(nu, _INNERNESS_CASES[case], sizes)
    verdicts = {"innerness": (report.verdict in ("converges", "diverges"), report.values[-1])}
    extra = {"verdict": report.verdict, "case": case, "nu": nu}
    return {"size": report.sizes, "hs_norm": report.values}, verdicts, extra


def _run_extension(seed, nu, sizes, case):
    v_of, w_of = _EXTENSION_CASES[case]
    ext = bogoliubov.extension_criterion(nu, v_of, w_of, sizes)
    araki = bogoliubov.araki_criterion(nu, v_of, w_of, sizes)
    agree = ext.verdict == araki.verdict
    verdicts = {"criteria_agree": (agree, ext.values[-1])}
    extra = {"extension_verdict": ext.verdict, "araki_verdict": araki.verdict, "case": case}
    table = {"size": ext.sizes, "extension_hs": ext.values, "araki_hs": araki.values}
    return table, verdicts, extra


_DILATION_T_GRID = [0.25, 0.5]  # times at which shift and flow dilations are compared
_DEFECT_T_GRID = [2.0 ** -k for k in range(4, 13)]


def _conjugacy(nu, basis, horizons, step, t_grid):
    """Grid models per horizon, keyed by the doubled-space dimension, and the
    conjugacy criterion between their shift and flow dilations, taken as the
    identity against the rotation of :meth:`GridModel.flow_frame`: the flow
    dilation is the shift times that rotation, and the weight
    ``sqrt(nu(1-nu))`` of the isotropic ``nu`` is a scalar.

    Returns ``(models, verdict, per_t)``.
    """
    models = {}
    for horizon in horizons:
        model = hardyshift.GridModel(basis, horizon, step)
        models[2 * model.n] = model
    verdict, per_t = bogoliubov.conjugacy_criterion(
        nu,
        lambda t, n: np.eye(2 * basis.family.size),
        lambda t, n: models[n].flow_frame(t),
        t_grid,
        sorted(models),
    )
    return models, verdict, per_t


def _defect_slope(basis, t_grid):
    """Defect norms of ``V_t`` against the shift along ``t_grid`` and the
    verdict ``(ok, slope)`` that they scale like ``t^(1/2)``."""
    values = [hardyshift.defect_hs_norm(basis, t) for t in t_grid]
    slope = hardyshift.fit_power(t_grid, values)
    return values, (abs(slope - 0.5) <= 0.1, slope)


def _run_conjugacy(seed, nu, family, horizons, step, t_grid):
    basis = hardyshift.orthogonalize(family)
    _, verdict, per_t = _conjugacy(nu, basis, horizons, step, t_grid)
    table = {"t": [], "size": [], "weighted_hs": []}
    for t in t_grid:
        rep = per_t[t]
        table["t"] += [t] * len(rep.sizes)
        table["size"] += rep.sizes
        table["weighted_hs"] += rep.values
    verdicts = {"conjugacy": (verdict in ("converges", "diverges"), table["weighted_hs"][-1])}
    return table, verdicts, {"verdict": verdict}


def _run_blaschke(seed, family, samples):
    ys = np.linspace(-50.0, 50.0, samples)
    vals = np.abs(hardyshift.blaschke_eval(family, 1j * ys))
    boundary = float(np.max(np.abs(vals - 1.0)))
    asym = hardyshift.blaschke_asymptotics(family)
    c3_err = abs(asym["c3"] - asym["two_s"]) / abs(asym["two_s"])
    verdicts = {
        "boundary_modulus": (boundary <= 1e-12, boundary),
        "c3_matches_2s": (c3_err <= 0.01, asym["c3"]),
    }
    return {"y": ys, "abs_b": vals}, verdicts, {"two_s": asym["two_s"], "c3": asym["c3"]}


def _run_approx(seed, family, t_grid):
    values, verdict = _defect_slope(hardyshift.orthogonalize(family), t_grid)
    return {"t": t_grid, "defect_hs": values}, {"defect_slope": verdict}, {"slope": verdict[1]}


def _run_prop2(seed, family, delta_grid, k_max):
    table = {"delta": delta_grid, "hs_estimate": [], "tail_sq": []}
    for delta in delta_grid:
        rep = hardyshift.prop2_defect(family, delta, k_max)
        table["hs_estimate"].append(rep["value"])
        table["tail_sq"].append(rep["tail_estimate_sq"])
    slope = hardyshift.fit_power(delta_grid, table["hs_estimate"])
    verdicts = {"defect_slope": (abs(slope - 0.5) <= 0.15, slope)}
    return table, verdicts, {"slope": slope}


def _run_dilation_check(seed, family, step, horizon, t):
    model = hardyshift.GridModel(hardyshift.orthogonalize(family), horizon, step)
    shift = model.shift_dilation(t)
    flow = model.flow_dilation(t)
    table = {
        "operator": ["shift", "flow"],
        "unitarity_residual": [shift.unitarity_residual(), flow.unitarity_residual()],
        "compression_residual": [0.0, model.compression_residual(t, flow)],
        "offspace_deviation": [shift.offspace_deviation(), flow.offspace_deviation()],
    }
    worst = max(table["unitarity_residual"])
    verdicts = {"unitarity": (worst <= bogoliubov.UNITARY_TOL, worst)}
    extra = {
        "step": step,
        "horizon": horizon,
        "t": t,
        "dim": flow.dim,
        "factor_columns": flow.x.shape[1],
    }
    return table, verdicts, extra


def _run_pipeline(seed, family, nu, step, horizons):
    if not 0.0 < nu <= 0.5:
        raise ConfigError("nu must lie in (0, 1/2]")
    # The grid truncates K at the horizon T, which leaves an edge tail
    # exp(-a T) of the slowest decay a = min |Re l|.  The default horizons
    # (12, 16, 20)/a, each rounded up to a multiple of the step, give every
    # family the tail that a = 1 has at 12, 16 and 20.
    rate = min(-lam.real for lam in family.lambdas)
    if horizons is None:
        horizons = [np.ceil(h / rate / step - 1e-9) * step for h in (12.0, 16.0, 20.0)]
    extra = {
        "regime": "trace (nu = 1/2)" if nu == 0.5 else "type III",
        "edge_tail": float(np.exp(-rate * max(horizons))),
    }

    # stage 1: condition (1) on the family, checked when it was loaded
    verdicts = {"condition-1": (True, float(family.size))}

    # stage 2: norm continuity of the perturbed semigroup on a dyadic grid
    basis = hardyshift.orthogonalize(family)
    cont = hardyshift.condition_n_check(
        lambda t: hardyshift.backward_shift_matrix(basis, t).conj().T,
        [k / 64.0 for k in range(33)],
    )
    verdicts["condition-n"] = (cont["pass"], float(max(cont["moduli"])))

    # stage 3: defect slope of V_t against the shift
    verdicts["defect-slope"] = _defect_slope(basis, _DEFECT_T_GRID)[1]

    # stages 4 and 5: unitary dilations, the approximation check on the
    # largest grid, and conjugacy-criterion weighted norms on the dilated pair
    models, verdict, per_t = _conjugacy(nu, basis, horizons, step, _DILATION_T_GRID)
    largest = models[max(models)]
    flows = {t: largest.flow_dilation(t) for t in _DILATION_T_GRID}
    for t, flow in flows.items():
        bogoliubov.check_unitarity(flow.unitarity_residual(), f"V'_{t}")
    approx = bogoliubov.approximation_check(largest.shift_dilation, flows.get, _DILATION_T_GRID)
    worst_dev = max(row["offspace_deviation"] for row in approx["rows"])
    verdicts["approximation"] = (approx["pass"], float(worst_dev))
    last = per_t[_DILATION_T_GRID[-1]].values[-1]
    verdicts["conjugacy"] = (verdict != "diverges", float(last))

    # one CSV row per stage, named as its verdict and holding its value
    values = [value for _, value in verdicts.values()]
    return {"stage": list(verdicts), "value": values}, verdicts, extra


_FAMILY = ("family", FAMILY, REQUIRED)
_HORIZONS = ("horizons", POSITIVES, [12.0, 16.0, 20.0])
_GRID_STEP = ("step", POSITIVE, 1.0 / 16)

# kind -> (body, [(name, type, default)]).  `carshift list` prints the same
# declarations, in this order.
EXPERIMENTS = {
    "car-check": (_run_car_check, [("modes", COUNT, 4), ("trials", COUNT, 100)]),
    "quasifree-verify": (
        _run_quasifree_verify, [("modes", COUNT, 3), ("degree", INT, 4), ("trials", COUNT, 50)]
    ),
    "modular-verify": (_run_modular_verify, [("modes", COUNT, 2), ("nu", FLOAT, 0.25)]),
    "innerness": (_run_innerness, [
        ("nu", FLOAT, 0.3),
        ("sizes", COUNTS, [4, 8, 16, 32, 64]),
        ("case", _choice(_INNERNESS_CASES), "minus-identity"),
    ]),
    "conjugacy": (_run_conjugacy, [
        ("nu", FLOAT, 0.25), _FAMILY, _HORIZONS, _GRID_STEP,
        ("t_grid", POSITIVES, _DILATION_T_GRID),
    ]),
    "extension": (_run_extension, [
        ("nu", FLOAT, 0.25),
        ("sizes", COUNTS, [4, 8, 16, 32]),
        ("case", _choice(_EXTENSION_CASES), "opposite"),
    ]),
    "approx": (_run_approx, [_FAMILY, ("t_grid", POSITIVES, _DEFECT_T_GRID)]),
    "blaschke": (_run_blaschke, [_FAMILY, ("samples", COUNT, 1000)]),
    "prop2": (_run_prop2, [
        _FAMILY,
        ("delta_grid", POSITIVES, [2.0 ** -k for k in range(3, 11)]),
        ("k_max", COUNT, 64),
    ]),
    "dilation-check": (_run_dilation_check, [
        _FAMILY, ("step", POSITIVE, 1.0 / 256), ("horizon", POSITIVE, 8.0), ("t", POSITIVE, 0.25)
    ]),
    "pipeline": (_run_pipeline, [
        # horizons default to (12, 16, 20)/min|Re l| (see _run_pipeline)
        _FAMILY, ("nu", FLOAT, 0.25), _GRID_STEP, ("horizons", POSITIVES, None)
    ]),
}


# ---------------------------------------------------------------------------
# report assembly


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fmt(value):
    """Text of one CSV cell, as :func:`write_reports` describes it."""
    if isinstance(value, (float, np.floating)):
        # repr of a numpy scalar is "np.float64(x)" under numpy 2
        return repr(float(value))
    text = str(value)
    if _NEEDS_QUOTES.search(text):
        return '"%s"' % text.replace('"', '""')
    return text


def _column_ranks(column):
    """The distinct cell texts of one column as an object array in string
    order, and the rank of each cell's text among them."""
    if (isinstance(column, np.ndarray) and column.dtype == np.float64) or all(
        isinstance(x, float) for x in column
    ):
        values = np.asarray(column, dtype=np.float64)
        # every NaN prints as "nan": one bit pattern stands for all of them
        bits = np.where(np.isnan(values), np.nan, values).view(np.int64)
        distinct, ranks = np.unique(bits, return_inverse=True)
        texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
        order = np.array(sorted(range(len(texts)), key=texts.__getitem__), dtype=np.intp)
        rank_of = np.empty(len(order), np.intp)
        rank_of[order] = np.arange(len(order))
        return np.array(texts, dtype=object)[order], rank_of[ranks]
    cells = list(map(_fmt, column))
    texts = sorted(set(cells))
    index = dict(zip(texts, range(len(texts))))
    ranks = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
    return np.array(texts, dtype=object), ranks


def write_reports(out_dir, config, table, verdicts, extra, start):
    """Write ``<kind>.csv`` and ``<kind>.json`` into ``out_dir``; return the report.

    The report's ``elapsed_seconds`` runs from ``start``, a
    ``time.perf_counter()`` reading, to the end of the CSV write.

    ``table`` maps each header name to its column, a list or a 1-D array;
    columns of unequal length are a ``ValueError``, raised before anything
    is written.  The CSV holds the header and one comma-separated line per
    row.  A float cell (Python or numpy) is written as ``repr(float(x))``,
    anything else as ``str(x)``; a cell holding a comma, a quote or a line
    break is put in quotes, with its quotes doubled.  Rows are sorted by the
    text of their cells, compared column by column, so the same rows give
    the same bytes in any order.

    Each distinct text is made once: a float column (a float64 array, or a
    list of floats) is reduced to its distinct doubles, all NaNs counting as
    one, and any other column goes through ``_fmt`` a cell at a time.  The
    rows are ordered by ``np.lexsort`` of the ranks of their texts in string
    order, the first column leading, which is the order of sorting the
    tuples of texts; rows of equal ranks are equal lines.

    For every cell type the bodies emit (Python and numpy ints and float64s,
    strings) the text equals ``str(x)``, so the order is that of sorting rows
    by ``tuple(str(x) for x in row)``.  A ``np.float32`` cell would break that
    equality: ``str`` gives its shortest float32 digits, ``repr(float(x))``
    those of the double.
    """
    lengths = {name: len(column) for name, column in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError("table columns differ in length: %s" % lengths)
    ranked = [_column_ranks(column) for column in table.values()]
    order = np.lexsort([ranks for _, ranks in reversed(ranked)])
    ordered = [texts[ranks[order]].tolist() for texts, ranks in ranked]
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, config["kind"])
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join([",".join(map(_fmt, table)), *map(",".join, zip(*ordered))]) + "\n")
    elapsed = time.perf_counter() - start
    report = {
        "kind": config["kind"],
        "seed": config["seed"],
        "params": config["params"],
        "verdicts": {name: {"pass": bool(ok), "value": val} for name, (ok, val) in verdicts.items()},
        "extra": extra,
        "rows": len(order),
        "elapsed_seconds": elapsed,
    }
    with open(base + ".json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return report


def run(config, out_dir):
    body, spec = EXPERIMENTS[config["kind"]]
    start = time.perf_counter()
    params = parse_params(spec, config["params"], os.path.dirname(config["path"]))
    table, verdicts, extra = body(config["seed"], **params)
    return write_reports(out_dir, config, table, verdicts, extra, start)


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
        for kind, (_, spec) in sorted(EXPERIMENTS.items()):
            params = ", ".join("%s (%s)" % (name, label) for name, (label, _), _ in spec)
            print("%-18s %s" % (kind, params))
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
