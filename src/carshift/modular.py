"""Finite-dimensional Tomita-Takesaki data for the doubled quasifree representation.

The vacuum is cyclic and separating for the von Neumann algebra ``M`` generated
by the first-component fields, so the closable map ``S: x vac -> x* vac``
extends to an invertible antilinear operator on the whole doubled space.  It is
assembled by solving a linear system over the normal-ordered monomial basis and
polar-decomposed into ``S = J Delta^{1/2}``.  The state is gauge invariant, so
the monomial ``a*(I) a(J) vac`` lies in the charge sector ``Q = |I| - |J|`` and
``S`` maps sector ``q`` onto ``-q``: the solve and the polar decomposition run
sector by sector.

The commutant is generated by ``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``;
its adjoint is ``b(f)* = pi(a*(0 (+) f)) (Gamma (x) Gamma)``.
"""

import itertools

import numpy as np

from . import fock
from .opalg import RANK_TOL, AntilinearOperator, adjoint, hs_norm, polar_antilinear


def monomial_indices(n):
    """All (creation subset, annihilation subset) pairs, 4^n of them."""
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        )
    )
    return [(i_set, j_set) for i_set in subsets for j_set in subsets]


def _basis_vec(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _monomial_columns(rep):
    """Columns ``pi(x_k) vac`` and ``pi(x_k*) vac`` over the monomial basis.

    ``x = prod_{i in I} a*(e_i) prod_{j in J} a(e_j)`` with both products in
    increasing index order; the adjoint reverses the factors.  Each column is
    one sparse matvec from a column listed before it:
    ``x vac = a*(e_{I[0]}) (x_{I[1:], J} vac)`` and
    ``x* vac = a*(e_{J[-1]}) (x_{I, J[:-1]}* vac)``, with ``a(e_{J[0]})`` and
    ``a(e_{I[-1]})`` in their places when ``I`` or ``J`` is empty.
    """
    n = rep.n
    create = [rep.field_star(_basis_vec(n, i)) for i in range(n)]
    annihilate = [rep.field(_basis_vec(n, i)) for i in range(n)]
    pairs = monomial_indices(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    x_rows = np.empty((len(pairs), rep.dim), dtype=complex)
    xstar_rows = np.empty((len(pairs), rep.dim), dtype=complex)
    for k, (i_set, j_set) in enumerate(pairs):
        if i_set:
            x_rows[k] = create[i_set[0]] @ x_rows[index[i_set[1:], j_set]]
        elif j_set:
            x_rows[k] = annihilate[j_set[0]] @ x_rows[index[(), j_set[1:]]]
        else:
            x_rows[k] = rep.vacuum
        if j_set:
            xstar_rows[k] = create[j_set[-1]] @ xstar_rows[index[i_set, j_set[:-1]]]
        elif i_set:
            xstar_rows[k] = annihilate[i_set[-1]] @ xstar_rows[index[i_set[:-1], ()]]
        else:
            xstar_rows[k] = rep.vacuum
    return x_rows.T, xstar_rows.T


class ModularData:
    """Container for the Tomita operator and its polar parts."""

    def __init__(self, s, j, delta, delta_eigenvalues, solve_residual):
        self.s = s                      # AntilinearOperator
        self.j = j                      # AntilinearOperator (antiunitary)
        self.delta = delta              # positive definite ndarray
        self.delta_eigenvalues = delta_eigenvalues  # ascending
        self.solve_residual = solve_residual


def tomita_operator(rep):
    """Build ``S``, ``J`` and ``Delta`` for the vacuum of a doubled representation.

    The monomial system is solved, and ``S`` polar-decomposed, per charge
    sector.  The condition number is the largest singular value of the
    monomial blocks over the smallest, the same as for the full monomial
    matrix, and must stay below ``1 / RANK_TOL``; the ``RANK_TOL`` cutoff of
    the polar decomposition is relative to each sector's largest eigenvalue
    of ``Delta``.  Raises if the monomial columns fail to span (vacuum not
    cyclic at the working precision) or leave their charge sectors.
    """
    x_cols, xstar_cols = _monomial_columns(rep)
    charge = rep.charge
    col_charge = np.array([len(i) - len(j) for i, j in monomial_indices(rep.n)])
    if np.any(x_cols[charge[:, None] != col_charge]) or np.any(
        xstar_cols[charge[:, None] != -col_charge]
    ):
        raise ValueError("monomial columns leave their charge sectors")
    # Antilinear S with matrix M: M conj(x_cols) = xstar_cols, one block per sector.
    blocks = []
    for q in np.unique(col_charge):
        rows = np.flatnonzero(charge == q)
        image = np.flatnonzero(charge == -q)
        cols = np.flatnonzero(col_charge == q)
        xc = np.conj(x_cols[np.ix_(rows, cols)])
        blocks.append((rows, image, xc, xstar_cols[np.ix_(image, cols)]))
    sv = np.concatenate([np.linalg.svd(xc, compute_uv=False) for _, _, xc, _ in blocks])
    cond = sv.max() / sv.min() if sv.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > 1.0 / RANK_TOL:
        raise ValueError(
            f"vacuum not cyclic/separating at tolerance {RANK_TOL:g} "
            f"(monomial matrix condition {cond:.3e})"
        )
    m = np.zeros((rep.dim, rep.dim), dtype=complex)
    j = np.zeros((rep.dim, rep.dim), dtype=complex)
    delta = np.zeros((rep.dim, rep.dim), dtype=complex)
    eigenvalues = []
    misfit = 0.0
    for rows, image, xc, y in blocks:
        mq = np.linalg.solve(xc.T, y.T).T
        misfit += hs_norm(mq @ xc - y) ** 2
        jq, dq, wq = polar_antilinear(AntilinearOperator(mq))
        m[np.ix_(image, rows)] = mq
        j[np.ix_(image, rows)] = jq.matrix
        delta[np.ix_(rows, rows)] = dq
        eigenvalues.append(wq)
    residual = np.sqrt(misfit) / max(hs_norm(xstar_cols), 1e-300)
    return ModularData(
        AntilinearOperator(m),
        AntilinearOperator(j),
        delta,
        np.sort(np.concatenate(eigenvalues)),
        float(residual),
    )


def modular_involution_formula(rep):
    """Closed-form modular conjugation on the doubled number basis.

    ``J (f_1^..^f_k (x) g_1^..^g_m) = conj(g_m)^..^conj(g_1) (x)
    conj(f_k)^..^conj(f_1)``: swap the factors, reverse each wedge (sign
    ``(-1)^{k(k-1)/2}``), conjugate entries.  In the index convention of
    :func:`carshift.quasifree.tensor` row ``b1 d + b2`` has its one entry in
    column ``b2 d + b1``.
    """
    d = rep.factor.dim
    k = fock.particle_numbers(rep.factor)
    sign = 1.0 - 2.0 * ((k * (k - 1) // 2) & 1)
    rows = np.arange(d * d)
    m = np.zeros((d * d, d * d), dtype=complex)
    m[rows, (rows % d) * d + rows // d] = np.outer(sign, sign).ravel()
    return AntilinearOperator(m)


def commutant_generator(rep, f):
    """``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``, commuting with ``M``."""
    return rep.gamma_gamma @ rep.field(None, f)


def _algebra_span(rep, create, annihilate):
    """Vectorized span of all normal-ordered monomials in the given generators."""
    pairs = monomial_indices(rep.n)
    eye = np.eye(rep.dim, dtype=complex)
    cols = np.empty((rep.dim * rep.dim, len(pairs)), dtype=complex)
    for k, (i_set, j_set) in enumerate(pairs):
        op = eye
        for i in i_set:
            op = op @ create[i]
        for j in j_set:
            op = op @ annihilate[j]
        cols[:, k] = op.reshape(-1)
    return cols


def commutant_check(rep):
    """Brute-force commutant dimension and span comparison with ``J M J``.

    Solves ``[X, G] = 0`` for all algebra generators ``G`` via the vectorized
    Sylvester system and compares the solution space with the span of
    monomials in the ``b(f)`` generators; both rank decisions cut singular
    values at ``1e-8``, relative.  Feasible for ``modes <= 3``; intended for
    small sanity checks.
    """
    tol = 1e-8
    n, d = rep.n, rep.dim
    gens = []
    for i in range(n):
        e = _basis_vec(n, i)
        gens.append(rep.field(e).toarray())
        gens.append(rep.field_star(e).toarray())
    eye = np.eye(d, dtype=complex)
    blocks = [np.kron(eye, g) - np.kron(g.T, eye) for g in gens]
    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    null_dim = int(np.sum(sv <= tol * sv.max()))

    b_create = [adjoint(commutant_generator(rep, _basis_vec(n, i))) for i in range(n)]
    b_annih = [commutant_generator(rep, _basis_vec(n, i)) for i in range(n)]
    span = _algebra_span(rep, b_create, b_annih)
    rank = int(np.linalg.matrix_rank(span, tol=tol * max(1.0, float(np.abs(span).max()))))

    resid = 0.0
    for g in gens:
        for i in range(n):
            b = b_annih[i]
            resid = max(resid, hs_norm(g @ b - b @ g))
    return {
        "commutant_dim": null_dim,
        "b_span_dim": rank,
        "expected_dim": rep.factor.dim ** 2,
        "max_commutator_residual": resid,
    }


def conjugate_by(j, x):
    """``J x J`` for antiunitary ``j`` and a linear matrix ``x`` (linear result)."""
    return j.compose(AntilinearOperator(x @ j.matrix))


def kms_residual(rep, data, ops_x, ops_y):
    """Residual of ``<vac, x y vac> = <vac, y Delta x vac>`` for x, y in ``M``."""
    from .opalg import inner

    vac = rep.vacuum
    lhs = inner(vac, ops_x @ (ops_y @ vac))
    rhs = inner(vac, ops_y @ (data.delta @ (ops_x @ vac)))
    return abs(lhs - rhs)
