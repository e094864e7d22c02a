"""Finite-dimensional Tomita-Takesaki data for the doubled quasifree representation.

The vacuum is cyclic and separating for the von Neumann algebra ``M`` generated
by the first-component fields, so the closable map ``S: x vac -> x* vac``
extends to an invertible antilinear operator on the whole doubled space.  It is
solved from the normal-ordered monomials of the eigenmodes ``U e_i`` of ``R``,
in whose number basis the doubled space is written, and polar-decomposed into
``S = J Delta^{1/2}``.  The monomial ``a*(U e_A) a(U e_B) vac`` stands on its
own basis vector ``e_A (x) e_B``, whose index is ``a + d b`` for the bitmasks
``a``, ``b`` of ``A``, ``B`` and ``d = 2^n``, and lies in that vector's
sector of the per-mode charges ``q_i = N_1i - N_2i``; ``S`` and ``J`` map
sector ``q`` onto ``-q`` and ``Delta`` is block diagonal (Araki, Publ. RIMS 6
(1970) 385-442).  Everything here stays in those blocks, in the layout of
:mod:`carshift.opalg`: the monomial columns form one sparse matrix,
which ``sector_stacks`` cuts into stacks of equal-size blocks; each stack is
solved and polar-decomposed by one batched LAPACK call, and ``stacked_matrix``
writes ``S``, ``J`` and ``Delta`` into the ``scipy.sparse`` CSR matrices of
:class:`ModularData`, each sector's block whole.  The closed-form involution
is a signed permutation matrix.  No dense ``dim x dim`` matrix is formed.
Only the ``4^n`` monomials ``x`` are multiplied out: every ``x* vac`` is a
signed copy of one of their columns.

The commutant is generated by ``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``;
its adjoint is ``b(f)* = pi(a*(0 (+) f)) (Gamma (x) Gamma)``.
"""

import numpy as np
from scipy import sparse

from . import fock
from .opalg import RANK_TOL, hs_norm, inner, polar_antilinear, sector_stacks, stacked_matrix


def _monomial_columns(rep):
    """The monomials' adjoints and signs, and the columns ``pi(x) vac``.

    The monomial ``x = prod_{i in A} a*(U e_i) prod_{j in B} a(U e_j)``, both
    products in increasing index order and ``U e_i`` the eigenmodes of ``R``,
    has the index ``k = a + d b`` of the basis vector ``e_A (x) e_B``, with
    ``a`` and ``b`` the bitmasks of ``A`` and ``B`` and ``d = 2^n``; its
    sector is ``rep.labels[k]``.  Returns ``(adjoint, signs, columns)``:
    ``adjoint[k] = rep.swap[k]``, the index of ``(B, A)``, and the sign with
    ``x* = sign (B, A)``, so that ``pi(x*) vac`` is ``signs[k]`` times column
    ``adjoint[k]``.  The creators anticommute, and so do the annihilators, so
    ``x* = a*(U e_B reversed) a(U e_A reversed)`` has the sign
    ``(-1)^{|A|(|A|-1)/2 + |B|(|B|-1)/2}``: only the 4^n vectors ``x vac``
    are multiplied out.  ``columns`` yields their entries as ``(rows,
    monomials, values)``, one monomial length ``0, 1, .., 2n`` at a time,
    and raises ``ValueError`` if a column has a nonzero entry outside the
    sector of its monomial.

    A monomial ``(A, B)``'s vector is one factor applied to that of a
    monomial one shorter: ``a*(U e_A[0]) (A[1:], B) vac``, or ``a(U e_B[0])
    ((), B[1:]) vac`` when ``A`` is empty.  Either way the factor is the
    lowest set bit of ``k``, the bitmask of the ``2n`` modes, and the shorter
    monomial is ``k`` with that bit cleared.  The columns of one length are one
    sparse product: the rows ``(x vac)^T`` of the shorter monomials, each
    shifted into the block of its factor, times the stacked transposes of
    the ``2n`` factors of :meth:`DoubledRepresentation.mode_fields`.
    """
    n = rep.n
    a, b = rep.first, rep.second
    count = fock.particle_numbers(rep.factor)
    adjoint = rep.swap
    signs = 1 - 2 * ((count[a] * (count[a] - 1) // 2 + count[b] * (count[b] - 1) // 2) & 1)

    def columns():
        dim = rep.dim
        # the first factor of monomial k is block `factor` of the stack below
        k = np.arange(dim)
        lowest = k & -k
        rest = k ^ lowest
        factor = np.log2(np.maximum(lowest, 1)).astype(np.intp)
        length = count[a] + count[b]
        # the transposes a*(U e_i)^T = conj(a(U e_i)), then a(U e_i)^T = conj(a*(U e_i))
        stack = sparse.vstack(rep.mode_fields(), format="csr")
        np.conj(stack.data, out=stack.data)
        # place[k]: the row of monomial k in `words`, the x vac of its length
        place = np.zeros(dim, dtype=np.intp)
        words, built = sparse.csr_array(rep.vacuum[None, :]), np.zeros(1, dtype=np.intp)
        for level in range(2 * n + 1):
            if level:
                built = np.flatnonzero(length == level)
                starts = words.indptr[place[rest[built]]]
                sizes = words.indptr[place[rest[built]] + 1] - starts
                indptr = np.concatenate([[0], np.cumsum(sizes)])
                taken = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
                shifted = words.indices[taken] + np.repeat(factor[built] * dim, sizes)
                shorter = sparse.csr_array(
                    (words.data[taken], shifted, indptr), shape=(len(built), 2 * n * dim)
                )
                words = shorter @ stack
                place[built] = np.arange(len(built))
            monomials = np.repeat(built, np.diff(words.indptr))
            if np.any((rep.labels[words.indices] != rep.labels[monomials]) & (words.data != 0)):
                raise ValueError("monomial columns leave their charge sectors")
            yield words.indices, monomials, words.data

    return adjoint, signs, columns()


class ModularData:
    """The Tomita operator and its polar parts as sparse matrices on the doubled basis.

    The basis is the doubled number basis of the eigenmodes of ``R``, and
    ``labels[k]`` the sector of basis vector ``k``.  ``s`` and ``j`` are the
    ``scipy.sparse`` CSR matrices of the antilinear ``S v = s @ conj(v)`` and
    ``J v = j @ conj(v)``; both map sector ``q`` onto ``-q``, so a row of
    sector ``t`` holds the columns of sector ``-t``, and they share one
    pattern, stored once: ``j`` holds the ``indptr`` and ``indices`` arrays of
    ``s``.  ``delta`` is the CSR matrix of ``Delta``, block diagonal.  Each
    sector's block is stored whole (:func:`carshift.opalg.stacked_matrix`),
    so every matrix holds the squared sector sizes, ``6^n`` entries in all.
    ``delta_eigenvalues`` holds each sector's eigenvalues of ``Delta``,
    ascending, on that sector's basis indices.
    """

    def __init__(self, labels, s, j, delta, delta_eigenvalues, solve_residual):
        self.labels = labels
        self.s = s
        self.j = j
        self.delta = delta
        self.delta_eigenvalues = delta_eigenvalues
        self.solve_residual = solve_residual


def tomita_operator(rep):
    """Build ``S``, ``J`` and ``Delta`` for the vacuum of a doubled representation.

    The ``x vac`` are the columns of one CSR matrix ``X``, monomial ``(A,
    B)`` on basis vector ``a + d b``, and ``X* = X F`` with ``F`` the signed
    permutation from each monomial to its adjoint, the factor swap
    ``rep.swap``: ``X*`` is written straight from the entries of ``X``, each
    signed and moved to the column of its monomial's adjoint.  ``S conj(X)
    = X*`` is solved, and ``S`` polar-decomposed, on the stacks of
    :func:`carshift.opalg.sector_stacks`, and the solved stacks are written
    out by :func:`carshift.opalg.stacked_matrix`.  The condition number, the
    largest singular value of the monomial blocks over the smallest, must
    stay below ``1 / RANK_TOL``.  Raises if the monomial columns fail to
    span (vacuum not cyclic at the working precision) or leave their charge
    sectors.
    """
    adjoint, signs, columns = _monomial_columns(rep)
    basis, monomials, values = (np.concatenate(part) for part in zip(*columns))
    x = sparse.csr_array((values, (basis, monomials)), shape=(rep.dim, rep.dim))
    # adding 0.0 stores a -0.0 part as +0.0, as the sparse product X F would
    xstar = sparse.csr_array(
        (values * signs[monomials] + 0.0, (basis, adjoint[monomials])), shape=x.shape
    )
    del basis, monomials, values
    # each matrix is dropped once its stacks are read
    x_stacks = sector_stacks(x, rep.labels)
    del x
    # stack h of X* maps the sectors q of stack h of X, in the same order, into -q
    xstar_stacks = sector_stacks(xstar, rep.labels)
    del xstar
    for _, _, xb in x_stacks:
        np.conj(xb, out=xb)
    sv = np.concatenate([np.linalg.svd(xb, compute_uv=False).ravel() for _, _, xb in x_stacks])
    cond = sv.max() / sv.min() if len(sv) == rep.dim and sv.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > 1.0 / RANK_TOL:
        raise ValueError(
            f"vacuum not cyclic/separating at tolerance {RANK_TOL:g} "
            f"(monomial matrix condition {cond:.3e})"
        )
    scale = hs_norm([hs_norm(y) for _, _, y in xstar_stacks])
    s_blocks, j_blocks, delta_blocks = [], [], []
    delta_eigenvalues = np.empty(rep.dim)
    misfits = []
    for h in range(len(x_stacks)):
        (at_q, _, xb), (at_minus_q, _, y) = x_stacks[h], xstar_stacks[h]
        s = np.swapaxes(np.linalg.solve(np.swapaxes(xb, 1, 2), np.swapaxes(y, 1, 2)), 1, 2)
        misfits.append(hs_norm(s @ xb - y))
        x_stacks[h] = xstar_stacks[h] = xb = y = None
        j, delta, eigenvalues = polar_antilinear(s)
        delta_eigenvalues[at_q] = eigenvalues
        s_blocks.append((at_minus_q, at_q, s))
        j_blocks.append((at_minus_q, at_q, j))
        delta_blocks.append((at_q, at_q, delta))
    residual = hs_norm(misfits) / max(scale, 1e-300)
    # the lists alone now hold the stacks, so stacked_matrix frees each once written
    del s, j, delta
    s = stacked_matrix(s_blocks, rep.dim)
    j = stacked_matrix(j_blocks, rep.dim, pattern=s)
    delta = stacked_matrix(delta_blocks, rep.dim)
    return ModularData(rep.labels, s, j, delta, delta_eigenvalues, float(residual))


def modular_involution_formula(rep):
    """Closed-form modular conjugation on the doubled number basis.

    ``J (f_1^..^f_k (x) g_1^..^g_m) = conj(g_m)^..^conj(g_1) (x)
    conj(f_k)^..^conj(f_1)``: swap the factors, reverse each wedge (sign
    ``(-1)^{k(k-1)/2}``), conjugate entries.  Returned as the CSR matrix
    ``M`` of ``J v = M @ conj(v)``, a signed permutation: row ``k`` holds its
    sign in column ``rep.swap[k]``, the basis vector with the factors swapped.
    That is the signed swap that carries each monomial to its adjoint, read
    from :func:`_monomial_columns` without multiplying out any column.
    """
    adjoint, signs, _ = _monomial_columns(rep)
    return sparse.csr_array(
        (signs.astype(float), adjoint, np.arange(rep.dim + 1)), shape=(rep.dim, rep.dim)
    )


def commutant_generator(rep, f):
    """``b(f) = (Gamma (x) Gamma) pi(a(0 (+) f))``, commuting with ``M``."""
    return rep.gamma_gamma @ rep.field(None, f)


def conjugate_by(data, x):
    """``J x J`` for the modular conjugation ``J`` of ``data`` and a dense or
    sparse matrix ``x``: ``J x J v = j conj(x) conj(j) v`` with ``J v = j @
    conj(v)``."""
    return data.j @ x.conj() @ data.j.conj()


def kms_residual(rep, data, ops_x, ops_y):
    """Residual of ``<vac, x y vac> = <vac, y Delta x vac>`` for x, y in ``M``."""
    vac = rep.vacuum
    lhs = inner(vac, ops_x @ (ops_y @ vac))
    rhs = inner(vac, ops_y @ (data.delta @ (ops_x @ vac)))
    return abs(lhs - rhs)
