"""Finite-dimensional Tomita-Takesaki data for the doubled quasifree representation.

The vacuum is cyclic and separating for the von Neumann algebra ``M`` generated
by the first-component fields, so the closable map ``S: x vac -> x* vac``
extends to an invertible antilinear operator on the whole doubled space.  It is
assembled by solving a linear system over the normal-ordered monomial basis and
polar-decomposed into ``S = J Delta^{1/2}``.

The commutant is generated by ``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``;
its adjoint is ``b(f)* = pi(a*(0 (+) f)) (Gamma (x) Gamma)``.
"""

import itertools

import numpy as np

from .opalg import AntilinearOperator, adjoint, hs_norm, polar_antilinear


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
    increasing index order; the adjoint reverses the factors.
    """
    n = rep.n
    create = [rep.field_star(_basis_vec(n, i)) for i in range(n)]
    annihilate = [rep.field(_basis_vec(n, i)) for i in range(n)]
    pairs = monomial_indices(n)
    x_cols = np.empty((rep.dim, len(pairs)), dtype=complex)
    xstar_cols = np.empty((rep.dim, len(pairs)), dtype=complex)
    for k, (i_set, j_set) in enumerate(pairs):
        v = rep.vacuum
        for j in reversed(j_set):
            v = annihilate[j] @ v
        for i in reversed(i_set):
            v = create[i] @ v
        x_cols[:, k] = v
        w = rep.vacuum
        for i in i_set:
            w = annihilate[i] @ w
        for j in j_set:
            w = create[j] @ w
        xstar_cols[:, k] = w
    return x_cols, xstar_cols


class ModularData:
    """Container for the Tomita operator and its polar parts."""

    def __init__(self, s, j, delta, solve_residual):
        self.s = s                      # AntilinearOperator
        self.j = j                      # AntilinearOperator (antiunitary)
        self.delta = delta              # positive definite ndarray
        self.solve_residual = solve_residual

    def delta_power(self, p):
        w, vecs = np.linalg.eigh(self.delta)
        if w.min() <= 0:
            raise ValueError("Delta not positive definite")
        return (vecs * np.power(w, p)) @ adjoint(vecs)


def tomita_operator(rep, rank_tol=1e-10):
    """Build ``S``, ``J`` and ``Delta`` for the vacuum of a doubled representation.

    Raises if the monomial columns fail to span (vacuum not cyclic at the
    working precision).
    """
    x_cols, xstar_cols = _monomial_columns(rep)
    # Antilinear S with matrix M: M conj(x_cols) = xstar_cols.
    xc = np.conj(x_cols)
    cond = np.linalg.cond(xc)
    if not np.isfinite(cond) or cond > 1.0 / rank_tol:
        raise ValueError(
            f"vacuum not cyclic/separating at tolerance {rank_tol:g} "
            f"(monomial matrix condition {cond:.3e})"
        )
    m = np.linalg.solve(xc.T, xstar_cols.T).T
    residual = hs_norm(m @ xc - xstar_cols) / max(hs_norm(xstar_cols), 1e-300)
    s = AntilinearOperator(m)
    j, delta = polar_antilinear(s, rank_tol=rank_tol)
    return ModularData(s, j, delta, residual)


def modular_involution_formula(rep):
    """Closed-form modular conjugation on the doubled number basis.

    ``J (f_1^..^f_k (x) g_1^..^g_m) = conj(g_m)^..^conj(g_1) (x)
    conj(f_k)^..^conj(f_1)``: swap the factors, reverse each wedge (sign
    ``(-1)^{k(k-1)/2}``), conjugate entries.
    """
    d = rep.factor.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for b1 in range(d):
        k1 = b1.bit_count()
        s1 = -1.0 if (k1 * (k1 - 1) // 2) & 1 else 1.0
        for b2 in range(d):
            k2 = b2.bit_count()
            s2 = -1.0 if (k2 * (k2 - 1) // 2) & 1 else 1.0
            # index convention of quasifree.tensor: first factor on low bits
            m[b1 * d + b2, b2 * d + b1] = s1 * s2
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


def commutant_check(rep, tol=1e-8):
    """Brute-force commutant dimension and span comparison with ``J M J``.

    Solves ``[X, G] = 0`` for all algebra generators ``G`` via the vectorized
    Sylvester system and compares the solution space with the span of
    monomials in the ``b(f)`` generators.  Feasible for ``modes <= 3``;
    intended for small sanity checks.
    """
    n, d = rep.n, rep.dim
    gens = []
    for i in range(n):
        e = _basis_vec(n, i)
        gens.append(rep.field(e))
        gens.append(rep.field_star(e))
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
    return j.compose(AntilinearOperator(np.asarray(x, dtype=complex) @ j.matrix))


def kms_residual(rep, data, ops_x, ops_y):
    """Residual of ``<vac, x y vac> = <vac, y Delta x vac>`` for x, y in ``M``."""
    from .opalg import inner

    vac = rep.vacuum
    lhs = inner(vac, ops_x @ (ops_y @ vac))
    rhs = inner(vac, ops_y @ (data.delta @ (ops_x @ vac)))
    return abs(lhs - rhs)
