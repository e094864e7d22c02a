"""Checks on the CSV a `carshift run` writes, against a reference or an oracle.

Kinds whose output does not depend on the seed are compared value by value
with ``reference.json``, the CSVs this benchmark's configs produced when the
benchmark was defined (regenerate with ``record_reference.py``).  Kinds that
draw random vectors from the seed are checked against the identity each
column verifies instead: the CAR residuals are 0, the determinant equals the
GNS value, and so on.  ``blaschke`` writes 10^5 rows, so it is checked against
``|B(iy)| = 1`` on the sampled grid rather than stored.
"""

import csv
import io
import json
import os

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# A recorded value v and a new value x agree when |x - v| <= ATOL + RTOL * |v|.
RTOL = 1e-8
ATOL = 1e-10


def _parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _num(cell):
    """A CSV number.  carshift formats floats with repr, which under numpy 2
    turns a numpy scalar into ``np.float64(x)``; both forms are accepted."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _column(header, rows, name):
    return np.array([_num(row[header.index(name)]) for row in rows])


def _bounded(header, rows, bounds):
    problems = []
    for name, bound in bounds.items():
        worst = float(np.max(np.abs(_column(header, rows, name))))
        if not worst <= bound:
            problems.append(f"{name} reaches {worst:.3e} > {bound:g}")
    return problems


def _against_reference(text, reference):
    header, rows = _parse(text)
    ref_header, ref_rows = _parse(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"shape {header} x {len(rows)} differs from reference "
                f"{ref_header} x {len(ref_rows)}"]
    problems = []
    for row, ref_row in zip(rows, ref_rows):
        for name, cell, ref in zip(header, row, ref_row):
            try:
                x, v = _num(cell), _num(ref)
            except ValueError:
                ok = cell == ref
            else:
                ok = abs(x - v) <= ATOL + RTOL * abs(v)
            if not ok:
                problems.append(f"{name}: {cell} differs from reference {ref}")
    return problems


def _car_check(header, rows, params):
    problems = _bounded(header, rows, {"anticomm_ff": 1e-12, "anticomm_star": 1e-12,
                                       "norm_residual": 1e-10})
    if sorted(_column(header, rows, "trial")) != list(range(int(params["trials"]))):
        problems.append("trial column is not 0 .. trials-1")
    return problems


def _quasifree_verify(header, rows, params):
    problems = _bounded(header, rows, {"residual": 1e-9})
    gap = _column(header, rows, "determinant") - _column(header, rows, "gns_value")
    if len(rows) != int(params["trials"]) or np.max(np.abs(gap)) > 1e-9:
        problems.append("determinant and GNS columns disagree")
    return problems


def _modular_verify(header, rows, params):
    problems = _bounded(header, rows, {"j_residual": 1e-9, "b_residual": 1e-10,
                                       "spectrum_residual": 1e-8, "solve_residual": 1e-10})
    if [row[:2] for row in rows] != [[params["modes"], params.get("nu", "0.25")]]:
        problems.append("modes/nu row does not echo the config")
    return problems


def _blaschke(header, rows, params):
    problems = []
    ys = np.sort(_column(header, rows, "y"))
    grid = np.linspace(-50.0, 50.0, int(params["samples"]))
    if ys.shape != grid.shape or np.max(np.abs(ys - grid)) > 1e-12:
        problems.append("y column is not the sampled grid")
    worst = float(np.max(np.abs(_column(header, rows, "abs_b") - 1.0)))
    if worst > 1e-12:
        problems.append(f"|B(iy)| deviates from 1 by {worst:.3e}")
    return problems


ORACLES = {
    "car-check": _car_check,
    "quasifree-verify": _quasifree_verify,
    "modular-verify": _modular_verify,
    "blaschke": _blaschke,
}


class OutputCheck:
    """Checks one `carshift run` output directory for a given kind and config."""

    def __init__(self):
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)

    def problems(self, kind, params, out_dir):
        """Everything wrong with the run's outputs; empty when it is right."""
        with open(os.path.join(out_dir, kind + ".json")) as fh:
            report = json.load(fh)
        problems = [f"verdict {name} failed" for name, entry in report["verdicts"].items()
                    if not entry["pass"]]
        with open(os.path.join(out_dir, kind + ".csv")) as fh:
            text = fh.read()
        if kind in ORACLES:
            header, rows = _parse(text)
            problems += ORACLES[kind](header, rows, params)
        else:
            problems += _against_reference(text, self.reference[kind])
        return problems
