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


def sector_operator_norm(op, labels):
    """Operator norm of a matrix that maps each label sector into one sector,
    a different one for each source sector (a shift of the particle number,
    or the charge flip ``q -> -q``): the largest norm of its blocks between
    sectors (0 for a zero matrix).  ``labels[k]`` is the sector of basis
    vector ``k``.  ``op`` may be dense or ``scipy.sparse``; only its nonzero
    entries are read (a stored exact zero counts as zero).  The blocks of one
    shape are one scatter of those entries into a stack and one stacked
    singular value decomposition.  Raises ``ValueError`` when a sector maps
    into two, or two into one."""
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
    position = sector_positions(sector, sizes)
    pairs, inverse = np.unique(sector[cols] * len(names) + sector[rows], return_inverse=True)
    sources, targets = np.divmod(pairs, len(names))
    if len(np.unique(sources)) < len(pairs) or len(np.unique(targets)) < len(pairs):
        raise ValueError("matrix does not map each sector into a sector of its own")
    # a block's shape as one integer, rows * base + columns
    base = sizes.max() + 1
    shapes, shape = np.unique(sizes[targets] * base + sizes[sources], return_inverse=True)
    count = np.bincount(shape)
    slot = sector_positions(shape, count)
    entry_shape = shape[inverse]
    norm = 0.0
    for h, code in enumerate(shapes.tolist()):
        stack = np.zeros((count[h], *divmod(code, base)), dtype=vals.dtype)
        run = entry_shape == h
        stack[slot[inverse[run]], position[rows[run]], position[cols[run]]] = vals[run]
        norm = max(norm, np.linalg.svd(stack, compute_uv=False).max())
    return float(norm)


def sector_positions(sector, sizes):
    """The index of each basis vector within its sector, counted in
    ascending order: ``sector[k]`` is the sector of vector ``k`` (an index
    into ``sizes``, the sector sizes)."""
    by_sector = np.argsort(sector, kind="stable")
    position = np.empty(len(sector), dtype=np.intp)
    position[by_sector] = np.arange(len(sector)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return position


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
    ``S v = m @ conj(v)``, for one square matrix ``m`` or a stack of them
    (shape ``(..., k, k)``), each decomposed on its own.

    Returns ``(j, delta, eigenvalues)``: the matrix ``j`` of the antiunitary
    ``J v = j @ conj(v)``, the positive semidefinite ``delta = S* S`` with
    ``S v = J (delta^{1/2} v)``, and the eigenvalues of ``delta``, ascending.
    All three come from the singular value decomposition
    ``conj(m) = U s V*``: ``j = conj(U V*)``, ``delta = V s^2 V*`` and the
    eigenvalues are ``s^2``.  Forming ``m* m`` would square the condition
    number of ``m`` before ``J`` is read off.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    u, s, vh = np.linalg.svd(np.conj(m))
    v = np.conj(np.swapaxes(vh, -1, -2))
    return np.conj(u @ vh), (v * s[..., None, :] ** 2) @ vh, s[..., ::-1] ** 2


def psd_sqrt(a):
    """Square root of a Hermitian positive semidefinite matrix via eigh.

    Negative eigenvalues (rounding noise) are clipped to zero.
    """
    a = as_operator(a)
    w, vecs = np.linalg.eigh(0.5 * (a + adjoint(a)))
    w = np.clip(w, 0.0, None)
    return (vecs * np.sqrt(w)) @ adjoint(vecs)
