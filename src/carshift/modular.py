"""Finite-dimensional Tomita-Takesaki data for the doubled quasifree representation.

The vacuum is cyclic and separating for the von Neumann algebra ``M`` generated
by the first-component fields, so the closable map ``S: x vac -> x* vac``
extends to an invertible antilinear operator on the whole doubled space.  It is
solved from the normal-ordered monomial basis and polar-decomposed into
``S = J Delta^{1/2}``.  The state is gauge invariant, so the monomial
``a*(I) a(J) vac`` lies in the charge sector ``Q = |I| - |J|``, ``S`` and ``J``
map sector ``q`` onto ``-q`` and ``Delta`` is block diagonal (Araki, Publ. RIMS
6 (1970) 385-442).  Everything here stays in those blocks: the monomial
columns are built sector by sector, the solve and the polar decomposition run
per sector, :class:`ModularData` holds one block per sector, the closed-form
involution is a signed permutation and :func:`conjugate_by` returns the
blocks of ``J x J``.  No ``dim x dim`` matrix is formed.  Only the ``4^n``
monomials ``x`` are multiplied out: every ``x* vac`` is a signed copy of one
of their columns, half of the vectors the system holds.

The commutant is generated by ``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``;
its adjoint is ``b(f)* = pi(a*(0 (+) f)) (Gamma (x) Gamma)``.
"""

import itertools

import numpy as np
from scipy import sparse

from . import fock
from .opalg import RANK_TOL, hs_norm, inner, polar_antilinear, sector_blocks


def monomial_indices(n):
    """All (creation subset, annihilation subset) pairs, 4^n of them."""
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        )
    )
    return [(i_set, j_set) for i_set in subsets for j_set in subsets]


def _sectors(charge):
    """``q -> `` the basis indices of charge ``q``, ascending, for ascending ``q``."""
    return {q: np.flatnonzero(charge == q) for q in np.unique(charge).tolist()}


def _monomial_columns(rep, sectors):
    """Columns ``pi(x) vac`` and ``pi(x*) vac`` of the monomials, per charge sector.

    ``x = prod_{i in I} a*(e_i) prod_{j in J} a(e_j)`` with both products in
    increasing index order.  Returns two dicts ``q -> block``: the ``x vac``
    of the monomials of charge ``q = |I| - |J|`` restricted to sector ``q``,
    and their ``x* vac`` restricted to sector ``-q``, columns in the order of
    :func:`monomial_indices`.  Raises ``ValueError`` if a column has a
    nonzero entry outside its sector.

    Only the 4^n vectors ``x vac`` are multiplied out.  A monomial
    ``(A, B)``'s vector is one factor applied to that of a shorter monomial:
    ``a*(e_A[0]) (A[1:], B) vac``, or ``a(e_B[0]) ((), B[1:]) vac`` when
    ``A`` is empty.  One sparse product per first factor and sector of the
    shorter monomials builds them: first those with empty ``A`` from charge
    0 down, then the others from the lowest charge up, so every shorter
    monomial is built before it is used.  The creators anticommute, and so
    do the annihilators, so ``x* = a*(e_J reversed) a(e_I reversed)`` is
    ``(-1)^{|I|(|I|-1)/2 + |J|(|J|-1)/2}`` times the monomial ``(J, I)``:
    every ``x*`` block is a signed column copy of an ``x`` block.
    """
    n = rep.n
    # monomial -> (charge, column of the charge's block)
    column, counts = {}, {}
    for a, b in monomial_indices(n):
        q = len(a) - len(b)
        column[a, b] = (q, counts.get(q, 0))
        counts[q] = column[a, b][1] + 1
    x_cols = {q: np.empty((len(sectors.get(q, ())), k), complex) for q, k in counts.items()}
    groups, flips = {}, {}
    for (a, b), (q, col) in column.items():
        if a or b:
            step, mode, rest = (1, a[0], (a[1:], b)) if a else (-1, b[0], ((), b[1:]))
            members = groups.setdefault((step, q - step, mode), ([], []))
            members[0].append(col)
            members[1].append(column[rest][1])
        # x* = (-1)^{|I|(|I|-1)/2 + |J|(|J|-1)/2} times the monomial (J, I)
        members = flips.setdefault(q, ([], []))
        members[0].append(column[b, a][1])
        members[1].append((-1) ** (len(a) * (len(a) - 1) // 2 + len(b) * (len(b) - 1) // 2))

    def store(full, target, cols):
        rows = sectors.get(target, np.empty(0, dtype=int))
        inside = full[rows]
        full[rows] = 0.0
        if np.any(full):
            raise ValueError("monomial columns leave their charge sectors")
        x_cols[target][:, cols] = inside

    store(rep.vacuum[:, None].copy(), 0, [column[(), ()][1]])
    factors = {}
    for step, source, mode in sorted(groups, key=lambda g: (g[0], g[0] * g[1])):
        cols, rest = groups[step, source, mode]
        if (step, mode) not in factors:
            factor = rep.field_star if step == 1 else rep.field
            factors[step, mode] = factor(np.eye(n)[mode]).tocsc()
        op = factors[step, mode][:, sectors[source]]
        store(op @ x_cols[source][:, rest], source + step, cols)
    xstar_cols = {}
    for q, (cols, signs) in flips.items():
        xstar_cols[q] = x_cols[-q][:, cols]
        xstar_cols[q] *= signs
    return x_cols, xstar_cols


class ModularData:
    """The Tomita operator and its polar parts, one block per charge sector.

    ``sectors[q]`` holds the basis indices of charge ``q`` in ascending order.
    ``s[q]`` and ``j[q]`` are the matrices of the antilinear blocks from
    sector ``q`` to sector ``-q``: for ``v`` supported on sector ``q``,
    ``(S v)[sectors[-q]] = s[q] @ conj(v[sectors[q]])``.  ``delta[q]`` is the
    positive definite block of ``Delta`` on sector ``q``, and
    ``delta_eigenvalues[q]`` its eigenvalues, ascending.
    """

    def __init__(self, charge, sectors, s, j, delta, delta_eigenvalues, solve_residual):
        self.charge = charge
        self.sectors = sectors
        self.s = s
        self.j = j
        self.delta = delta
        self.delta_eigenvalues = delta_eigenvalues
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
    sectors = _sectors(rep.charge)
    x_cols, xstar_cols = _monomial_columns(rep, sectors)
    # Antilinear S with block matrix M: M conj(x_cols) = xstar_cols.
    for xq in x_cols.values():
        np.conj(xq, out=xq)
    sv = np.concatenate([np.linalg.svd(xc, compute_uv=False) for xc in x_cols.values()])
    cond = sv.max() / sv.min() if sv.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > 1.0 / RANK_TOL:
        raise ValueError(
            f"vacuum not cyclic/separating at tolerance {RANK_TOL:g} "
            f"(monomial matrix condition {cond:.3e})"
        )
    scale = np.sqrt(sum(hs_norm(y) ** 2 for y in xstar_cols.values()))
    s, j, delta, eigenvalues = {}, {}, {}, {}
    misfit = 0.0
    for q in sorted(x_cols):
        xc, y = x_cols.pop(q), xstar_cols.pop(q)
        s[q] = np.linalg.solve(xc.T, y.T).T
        misfit += hs_norm(s[q] @ xc - y) ** 2
        del xc, y
        j[q], delta[q], eigenvalues[q] = polar_antilinear(s[q])
    residual = np.sqrt(misfit) / max(scale, 1e-300)
    return ModularData(rep.charge, sectors, s, j, delta, eigenvalues, float(residual))


def modular_involution_formula(rep):
    """Closed-form modular conjugation on the doubled number basis.

    ``J (f_1^..^f_k (x) g_1^..^g_m) = conj(g_m)^..^conj(g_1) (x)
    conj(f_k)^..^conj(f_1)``: swap the factors, reverse each wedge (sign
    ``(-1)^{k(k-1)/2}``), conjugate entries.  Returned as ``(perm, signs)``
    with ``(J v)[r] = signs[r] * conj(v[perm[r]])``: in the index convention
    of :func:`carshift.quasifree.tensor`, ``perm`` sends ``b1 d + b2`` to
    ``b2 d + b1``.
    """
    d = rep.factor.dim
    k = fock.particle_numbers(rep.factor)
    sign = 1.0 - 2.0 * ((k * (k - 1) // 2) & 1)
    rows = np.arange(d * d)
    return (rows % d) * d + rows // d, np.outer(sign, sign).ravel()


def involution_blocks(data, perm, signs):
    """The antilinear ``v -> signs * conj(v[perm])`` in the block layout of
    ``data.j``, read with :func:`carshift.opalg.sector_blocks` from the
    signed permutation matrix; ``ValueError`` unless it maps each sector
    ``q`` onto ``-q``."""
    matrix = sparse.csr_array((signs, perm, np.arange(len(perm) + 1)), shape=(len(perm),) * 2)
    blocks = sector_blocks(matrix, data.charge)
    if {q: target for q, (target, _) in blocks.items()} != {q: -q for q in data.sectors}:
        raise ValueError("the involution does not map charge sector q onto -q")
    return {q: block for q, (_, block) in blocks.items()}


def commutant_generator(rep, f):
    """``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``, commuting with ``M``."""
    return rep.gamma_gamma @ rep.field(None, f)


def conjugate_by(data, x):
    """The blocks of ``J x J`` for the modular conjugation ``J`` of ``data``
    and a matrix ``x`` that maps each charge sector into one sector (a field
    lowers the charge by one), as ``{source: (target, block)}`` in the
    layout of :func:`carshift.opalg.sector_blocks`.

    The block ``x_{s -> t}`` gives ``(J x J)_{-s -> -t} = J_t conj(x_{s -> t})
    conj(J_{-s})``; for a field, ``(J x J)_{q -> q+1} = J_{-q-1}
    conj(x_{-q -> -q-1}) conj(J_q)``.
    """
    return {
        -source: (-target, data.j[target] @ np.conj(block) @ np.conj(data.j[-source]))
        for source, (target, block) in sector_blocks(x, data.charge).items()
    }


def kms_residual(rep, data, ops_x, ops_y):
    """Residual of ``<vac, x y vac> = <vac, y Delta x vac>`` for x, y in ``M``,
    with ``Delta`` applied block by block."""
    vac = rep.vacuum
    xv = ops_x @ vac
    delta_xv = np.zeros_like(xv)
    for q, rows in data.sectors.items():
        delta_xv[rows] = data.delta[q] @ xv[rows]
    lhs = inner(vac, ops_x @ (ops_y @ vac))
    rhs = inner(vac, ops_y @ delta_xv)
    return abs(lhs - rhs)
