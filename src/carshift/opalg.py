"""Complex operator helpers: norms (dense, of low-rank products ``a b*`` from
their factors, and of operators graded by a sector label) and the polar
decomposition of an antilinear map given by its matrix.

Inner products are antilinear in the first argument throughout the package
(``inner(u, v) == np.vdot(u, v)``).
"""

import numpy as np
from scipy import sparse

# Relative cutoff below which a singular value or an eigenvalue counts as zero.
RANK_TOL = 1e-10


def as_operator(a):
    """Validate and return a square matrix; a real one stays real."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inner(u, v):
    """Inner product, antilinear in the first argument."""
    return np.vdot(u, v)


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def operator_norm(a):
    """Operator (spectral) norm, i.e. the largest singular value."""
    return float(np.linalg.norm(np.asarray(a), ord=2))


def sector_blocks(op, labels):
    """The blocks of a matrix that maps each label sector into one sector.

    ``labels[k]`` is the sector of basis vector ``k``.  When the columns of
    each sector have nonzero entries in the rows of a single sector, a
    different one for each source sector (a shift of the particle number, or
    the charge flip ``q -> -q``), the matrix is a permuted block diagonal.
    Returns ``{source: (target, block)}`` with the dense ``block`` of rows
    ``labels == target`` and columns ``labels == source``, for each source
    sector with a nonzero entry.  Raises ``ValueError`` when an entry outside
    those blocks is nonzero.  ``op`` may be dense or ``scipy.sparse``; only
    its nonzero entries are read (a stored exact zero counts as zero), and
    each block is one scatter of them.
    """
    labels = np.asarray(labels)
    op = op if sparse.issparse(op) else np.asarray(op)
    if op.shape != (len(labels), len(labels)):
        raise ValueError(f"expected a {len(labels)}x{len(labels)} matrix, got {op.shape}")
    entries = sparse.csr_array(op)
    if not entries.has_canonical_format:
        entries = entries.copy()
        entries.sum_duplicates()
    rows = np.repeat(np.arange(len(labels)), np.diff(entries.indptr))
    nonzero = entries.data != 0
    rows, cols, vals = rows[nonzero], entries.indices[nonzero], entries.data[nonzero]
    names, sector = np.unique(labels, return_inverse=True)
    sizes = np.bincount(sector, minlength=len(names))
    # position[k]: the index of basis vector k within its sector
    by_sector = np.argsort(sector, kind="stable")
    position = np.empty(len(labels), dtype=np.intp)
    position[by_sector] = np.arange(len(labels)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pairs, inverse, counts = np.unique(
        sector[cols] * len(names) + sector[rows], return_inverse=True, return_counts=True
    )
    sources, targets = np.divmod(pairs, len(names))
    if len(np.unique(sources)) < len(pairs) or len(np.unique(targets)) < len(pairs):
        raise ValueError("matrix does not map each sector into a sector of its own")
    by_pair = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    blocks = {}
    for source, target, run in zip(sources, targets, by_pair):
        block = np.zeros((sizes[target], sizes[source]), dtype=vals.dtype)
        block[position[rows[run]], position[cols[run]]] = vals[run]
        blocks[names[source]] = (names[target], block)
    return blocks


def sector_operator_norm(op, labels):
    """Operator norm of a matrix that maps each label sector into one sector:
    the largest norm of its :func:`sector_blocks` (0 for a zero matrix)."""
    blocks = sector_blocks(op, labels).values()
    return max((operator_norm(block) for _, block in blocks), default=0.0)


def lowrank_hs_norm(a, b):
    """``||a b*||_2`` from the factors: ``sqrt(tr((a* a)(b* b)))``.

    The trace carries a rounding error of about ``eps ||a||_2^2 ||b||_2^2``
    (Frobenius norms), so the result is accurate to about
    ``sqrt(eps) ||a||_2 ||b||_2`` in absolute terms, not to ``eps``: a product
    that nearly cancels, ``||a b*||_2`` of ``1e-8 ||a||_2 ||b||_2`` or below,
    reads as rounding noise.
    """
    if a.shape[1] == 0:
        return 0.0
    gram = (adjoint(a) @ a) @ (adjoint(b) @ b)
    return float(np.sqrt(max(np.trace(gram).real, 0.0)))


def lowrank_operator_norm(a, b):
    """``||a b*||`` from the triangular factors ``ra``, ``rb`` of reduced QRs of
    ``a`` and ``b``: ``a b* = Qa (ra rb*) Qb*``.  The QRs run with
    ``mode="r"``, which computes the same ``R`` and never forms ``Q``."""
    if a.shape[1] == 0:
        return 0.0
    ra = np.linalg.qr(a, mode="r")
    rb = np.linalg.qr(b, mode="r")
    return operator_norm(ra @ adjoint(rb))


def adjoint(a):
    """Conjugate transpose of a dense or ``scipy.sparse`` matrix."""
    if sparse.issparse(a):
        return a.conj().T
    return np.conj(np.asarray(a)).T


def anticommutator(a, b):
    return a @ b + b @ a


def polar_antilinear(m):
    """Polar decomposition ``S = J Delta^{1/2}`` of the antilinear map
    ``S v = m @ conj(v)``.

    Returns ``(j, delta, eigenvalues)``: the matrix ``j`` of the antiunitary
    ``J v = j @ conj(v)``, the positive semidefinite ``delta`` with
    ``S v = J (delta^{1/2} v)``, and the eigenvalues of ``delta``, ascending.
    Eigenvalues of ``delta`` below ``RANK_TOL * max(eig)`` are treated as
    zero (pseudo-inverted away).
    """
    m = as_operator(m)
    mc = np.conj(m)
    delta = adjoint(mc) @ mc          # = (S* S) as a linear matrix
    delta = 0.5 * (delta + adjoint(delta))
    w, vecs = np.linalg.eigh(delta)
    w = np.clip(w, 0.0, None)
    cutoff = RANK_TOL * max(w.max(), 1e-300)
    inv_sqrt = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    delta_inv_sqrt = (vecs * inv_sqrt) @ adjoint(vecs)
    # J = S o delta^{-1/2}: its matrix is m @ conj(delta^{-1/2}).
    return m @ np.conj(delta_inv_sqrt), delta, w


def psd_sqrt(a):
    """Square root of a Hermitian positive semidefinite matrix via eigh.

    Negative eigenvalues (rounding noise) are clipped to zero.
    """
    a = as_operator(a)
    w, vecs = np.linalg.eigh(0.5 * (a + adjoint(a)))
    w = np.clip(w, 0.0, None)
    return (vecs * np.sqrt(w)) @ adjoint(vecs)
