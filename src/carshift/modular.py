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
involution is a signed permutation and :func:`conjugate_by` works one block
pair at a time.  No ``dim x dim`` matrix is formed.

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


def _basis_vec(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _sectors(charge):
    """``q -> `` the basis indices of charge ``q``, ascending, for ascending ``q``."""
    return {q: np.flatnonzero(charge == q) for q in np.unique(charge).tolist()}


def _monomial_columns(rep, sectors):
    """Columns ``pi(x) vac`` and ``pi(x*) vac`` of the monomials, per charge sector.

    ``x = prod_{i in I} a*(e_i) prod_{j in J} a(e_j)`` with both products in
    increasing index order, and ``x*`` reverses the factors.  Returns two
    dicts ``q -> block``: the ``x vac`` of the monomials of charge
    ``q = |I| - |J|`` restricted to sector ``q``, and their ``x* vac``
    restricted to sector ``-q``, columns in the order of
    :func:`monomial_indices`.  Raises ``ValueError`` if a column has a
    nonzero entry outside its sector.

    Both ``x`` and ``x*`` are words ``a*(e_A[0]) .. a*(e_A[-1]) a(e_B[0]) ..
    a(e_B[-1])`` of charge ``|A| - |B|``, and a word's vector is one factor
    applied to that of a shorter word: ``a*(e_A[0]) (A[1:], B) vac``, or
    ``a(e_B[0]) ((), B[1:]) vac`` when ``A`` is empty.  One sparse product
    per first factor and sector of the shorter words builds them: first the
    words with empty ``A`` from charge 0 down, then the others from the
    lowest charge up, so every shorter word is built before it is used.
    """
    n = rep.n
    x_words = monomial_indices(n)
    xstar_words = [(j_set[::-1], i_set[::-1]) for i_set, j_set in x_words]
    # word -> (charge, column of the charge's matrix of word vectors)
    column, counts = {}, {}
    for word in x_words + xstar_words:
        q = len(word[0]) - len(word[1])
        if word not in column:
            column[word] = (q, counts.get(q, 0))
            counts[q] = column[word][1] + 1
    vectors = {q: np.empty((len(sectors.get(q, ())), k), complex) for q, k in counts.items()}
    factors = {}
    groups = {}
    for (a, b), (q, col) in column.items():
        if a or b:
            step, mode, rest = (1, a[0], (a[1:], b)) if a else (-1, b[0], ((), b[1:]))
            members = groups.setdefault((step, q - step, mode), ([], []))
            members[0].append(col)
            members[1].append(column[rest][1])

    def store(full, target, cols):
        rows = sectors.get(target, np.empty(0, dtype=int))
        inside = full[rows]
        full[rows] = 0.0
        if np.any(full):
            raise ValueError("monomial columns leave their charge sectors")
        vectors[target][:, cols] = inside

    store(rep.vacuum[:, None].copy(), 0, [column[(), ()][1]])
    for step, source, mode in sorted(groups, key=lambda g: (g[0], g[0] * g[1])):
        cols, rest = groups[step, source, mode]
        if (step, mode) not in factors:
            factor = rep.field_star if step == 1 else rep.field
            factors[step, mode] = factor(_basis_vec(n, mode)).tocsc()
        op = factors[step, mode][:, sectors[source]]
        store(op @ vectors[source][:, rest], source + step, cols)
    x_cols, xstar_cols = {}, {}
    for q in sorted(vectors):
        block = vectors.pop(q)
        x_cols[q] = block[:, [column[w][1] for w in x_words if column[w][0] == q]]
        xstar_cols[-q] = block[:, [column[w][1] for w in xstar_words if column[w][0] == q]]
    return x_cols, xstar_cols


class ModularData:
    """The Tomita operator and its polar parts, one block per charge sector.

    ``sectors[q]`` holds the basis indices of charge ``q`` in ascending order.
    ``s[q]`` and ``j[q]`` are the matrices of the antilinear blocks from
    sector ``q`` to sector ``-q``: for ``v`` supported on sector ``q``,
    ``(S v)[sectors[-q]] = s[q] @ conj(v[sectors[q]])``.  ``delta[q]`` is the
    positive definite block of ``Delta`` on sector ``q``.
    ``delta_eigenvalues`` are the eigenvalues of ``Delta``, ascending.
    """

    def __init__(self, charge, s, j, delta, delta_eigenvalues, solve_residual):
        self.charge = charge
        self.sectors = _sectors(charge)
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
    s, j, delta = {}, {}, {}
    eigenvalues = []
    misfit = 0.0
    for q in sorted(x_cols):
        xc, y = x_cols.pop(q), xstar_cols.pop(q)
        s[q] = np.linalg.solve(xc.T, y.T).T
        misfit += hs_norm(s[q] @ xc - y) ** 2
        del xc, y
        j[q], delta[q], wq = polar_antilinear(s[q])
        eigenvalues.append(wq)
    residual = np.sqrt(misfit) / max(scale, 1e-300)
    return ModularData(
        rep.charge, s, j, delta, np.sort(np.concatenate(eigenvalues)), float(residual)
    )


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
    ``data.j``; ``ValueError`` unless it maps each sector ``q`` onto ``-q``."""
    position = np.empty(len(perm), dtype=int)
    for rows in data.sectors.values():
        position[rows] = np.arange(len(rows))
    blocks = {}
    for q, cols in data.sectors.items():
        rows = data.sectors.get(-q, np.empty(0, dtype=int))
        if len(rows) != len(cols) or np.any(data.charge[perm[rows]] != q):
            raise ValueError("the involution does not map charge sector q onto -q")
        block = np.zeros((len(rows), len(cols)), dtype=complex)
        block[np.arange(len(rows)), position[perm[rows]]] = signs[rows]
        blocks[q] = block
    return blocks


def commutant_generator(rep, f):
    """``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``, commuting with ``M``."""
    return rep.gamma_gamma @ rep.field(None, f)


def conjugate_by(data, x):
    """``J x J`` for the modular conjugation ``J`` of ``data`` and a matrix
    ``x`` that maps each charge sector into one sector (a field lowers the
    charge by one), as a CSR array.

    One block pair at a time: the block ``x_{s -> t}`` of
    :func:`carshift.opalg.sector_blocks` gives
    ``(J x J)_{-s -> -t} = J_t conj(x_{s -> t}) conj(J_{-s})``; for a field,
    ``(J x J)_{q -> q+1} = J_{-q-1} conj(x_{-q -> -q-1}) conj(J_q)``.  Each
    row of sector ``-t`` holds the columns of sector ``-s``, so the CSR
    arrays are written block by block.
    """
    blocks = [
        (data.sectors[-target], data.sectors[-source],
         data.j[target] @ np.conj(block) @ np.conj(data.j[-source]))
        for source, (target, block) in sector_blocks(x, data.charge).items()
    ]
    lengths = np.zeros(len(data.charge), dtype=np.intp)
    for rows, cols, _ in blocks:
        lengths[rows] = len(cols)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.empty(indptr[-1], dtype=np.intp)
    values = np.empty(indptr[-1], dtype=complex)
    for rows, cols, out in blocks:
        where = indptr[rows][:, None] + np.arange(len(cols))
        indices[where] = cols
        values[where] = out
    return sparse.csr_array((values, indices, indptr), shape=x.shape)


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
