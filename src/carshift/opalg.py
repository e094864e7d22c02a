"""Complex operator helpers: norms (dense, of low-rank products ``a b*`` from
their factors, and of operators graded by a sector label), the triangular
factor of a tall matrix (:func:`triangular_factor`, a row-blocked QR that
never forms ``Q``), the one layout of sector blocks (:func:`sector_stacks`
reads a graded matrix into stacks of equal-shape blocks,
:func:`stacked_matrix` writes such stacks into CSR) and the polar
decomposition of an antilinear map given by its matrix.

Inner products are antilinear in the first argument throughout the package
(``inner(u, v) == np.vdot(u, v)``).
"""

import numpy as np
from scipy import sparse

# Relative cutoff below which a singular value or an eigenvalue counts as zero.
RANK_TOL = 1e-10

# Rows per block of triangular_factor's first QR pass: a 2048 x 24 complex
# block (768 KiB) stays in cache while it is factored.
_QR_BLOCK_ROWS = 2048
# Blocks per batched QR of that pass.  Each group's rows of the column blocks
# are put side by side on their own, so no copy is as tall as the matrix.
_QR_GROUP_BLOCKS = 8
# Entries per block of an elementwise pass, so that the block stays in cache
# (256 KiB of floats): hs_norm's buffer between the squaring and the sum, and
# bogoliubov's blocks of a scalar commutator.
CACHE_ENTRIES = 1 << 15


def as_operator(a):
    """Validate and return a square matrix, dense or ``scipy.sparse``; a real
    one stays real."""
    a = a if sparse.issparse(a) else np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inner(u, v):
    """Inner product, antilinear in the first argument."""
    return np.vdot(u, v)


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm of an array of any shape: the square
    root of numpy's pairwise sum of the squared real and imaginary parts, in
    memory order.

    No BLAS call is made, so the bits do not depend on the BLAS thread count
    (``np.linalg.norm`` takes a BLAS ``dot``, which OpenBLAS splits across
    threads).  The squares are taken ``CACHE_ENTRIES`` entries at a time, into
    one buffer, along numpy's own pairwise split: the result equals
    ``sqrt(np.add.reduce(np.square(a.view(float)), axis=None))`` to the bit,
    without a temporary of the array's size.  Integer and single-precision
    entries are summed in double precision; NaN and inf propagate.

    A ``scipy.sparse`` matrix is normed by its nonzero entries alone, in CSR
    order once its duplicates are summed (:func:`_canonical_csr`): an
    ``n x n`` diagonal costs ``n`` squares, not ``n^2``.  The pairwise sum
    then groups its terms otherwise than over the dense matrix, so the two
    agree to rounding, not always to the bit.
    """
    a = _canonical_csr(a).data if sparse.issparse(a) else np.asarray(a)
    flat = np.ravel(a.astype(np.result_type(a, float), copy=False), order="K")
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return float(np.sqrt(_sum_squares(flat, np.empty(min(len(flat), CACHE_ENTRIES)))))


def _sum_squares(x, buf):
    """``np.add.reduce(np.square(x))`` of a 1-d float array, to the bit: a
    part that fits ``buf`` is squared into it and summed, a longer one is cut
    where numpy's pairwise sum cuts it (half, rounded down to a multiple of
    8) and the two sums are added."""
    n = len(x)
    if n <= len(buf):
        return np.add.reduce(np.multiply(x, x, out=buf[:n]))
    half = n // 2 - n // 2 % 8
    return _sum_squares(x[:half], buf) + _sum_squares(x[half:], buf)


def operator_norm(a):
    """Operator (spectral) norm of a matrix: its largest singular value, 0 for
    an empty one.  The same bits as ``np.linalg.norm(a, 2)``."""
    return float(np.linalg.svd(np.asarray(a), compute_uv=False).max(initial=0.0))


def sector_operator_norm(op, labels):
    """Operator norm of a matrix as :func:`sector_stacks` reads it: the largest
    of its :func:`sector_norms` (0 for a zero matrix)."""
    return float(sector_norms(op, labels).max(initial=0.0))


def sector_norms(op, labels):
    """The largest singular value of each source sector's block of a matrix as
    :func:`sector_stacks` reads it, one per sector in ascending order of the
    labels (``np.unique(labels)``), 0 for a sector that maps nowhere.  Takes
    one stacked SVD per stack."""
    labels = np.asarray(labels)
    names = np.unique(labels)
    norms = np.zeros(len(names))
    for _, cols, stack in sector_stacks(op, labels):
        sources = np.searchsorted(names, labels[cols[:, 0]])
        norms[sources] = np.linalg.svd(stack, compute_uv=False).max(axis=-1)
    return norms


def sector_stacks(op, labels):
    """The blocks between sectors of a dense or ``scipy.sparse`` matrix that
    maps each sector into one sector, a different one for each source sector
    (a shift of the particle number, or the charge flip ``q -> -q``), stacked
    by shape.  ``labels[k]`` is the sector of basis vector ``k``.  Only
    nonzero entries are read: a stored zero counts as zero, and a zero block
    is left out.  Returns one ``(rows, cols, stack)`` per shape ``(m, n)``,
    ascending: ``stack[k] == op[rows[k][:, None], cols[k]]``, with the
    ascending basis indices of the target sector in ``rows[k]`` and of the
    source sector in ``cols[k]``, the blocks in ascending order of their
    source sector.  Raises ``ValueError`` when a sector maps into two
    sectors, or two into one."""
    labels = np.asarray(labels)
    op = op if sparse.issparse(op) else np.asarray(op)
    if op.shape != (len(labels), len(labels)):
        raise ValueError(f"expected a {len(labels)}x{len(labels)} matrix, got {op.shape}")
    entries = _canonical_csr(op)
    names, sector = np.unique(labels, return_inverse=True)
    sizes = np.bincount(sector, minlength=len(names))
    # the basis indices of sector s are by_sector[starts[s]:starts[s] + sizes[s]]
    by_sector = np.argsort(sector, kind="stable")
    starts = np.cumsum(sizes) - sizes
    position = np.empty(len(labels), dtype=np.intp)
    position[by_sector] = np.arange(len(labels)) - np.repeat(starts, sizes)
    # target[s]: the sector that sector s maps into, -1 if none
    counts = np.diff(entries.indptr)
    source = sector[entries.indices]
    row_sector = np.repeat(sector, counts)
    target = np.full(len(names), -1)
    target[source] = row_sector
    mapped = np.flatnonzero(target >= 0)
    if np.any(target[source] != row_sector) or len(np.unique(target[mapped])) < len(mapped):
        raise ValueError("matrix does not map each sector into a sector of its own")
    # a block's shape as one integer, rows * base + columns; group[s] is the
    # stack of sector s's block, offset[s] where it starts in the flat stack
    base = sizes.max() + 1
    shapes, shape = np.unique(sizes[target[mapped]] * base + sizes[mapped], return_inverse=True)
    members = [mapped[shape == h] for h in range(len(shapes))]
    group, offset = np.zeros(len(names), dtype=np.intp), np.zeros(len(names), dtype=np.intp)
    for h, code in enumerate(shapes.tolist()):
        group[members[h]] = h
        offset[members[h]] = np.arange(len(members[h])) * (code // base) * (code % base)
    flat = np.repeat(position, counts) * sizes[source]
    flat += position[entries.indices] + offset[source]
    blocks = []
    for h, code in enumerate(shapes.tolist()):
        m, n = divmod(code, base)
        stack = np.zeros((len(members[h]), m, n), dtype=entries.dtype)
        run = group[source] == h
        stack.reshape(-1)[flat[run]] = entries.data[run]
        rows = by_sector[starts[target[members[h]]][:, None] + np.arange(m)]
        blocks.append((rows, by_sector[starts[members[h]][:, None] + np.arange(n)], stack))
    return blocks


def _canonical_csr(op):
    """The CSR array of a dense or ``scipy.sparse`` matrix with its duplicate
    entries summed and its stored zeros dropped.  ``op`` is left as it is; a
    copy is made only where the conversion to CSR makes none."""
    entries = sparse.csr_array(op)
    if not entries.has_canonical_format or not entries.data.all():
        entries = entries.copy()
        entries.sum_duplicates()
        entries.eliminate_zeros()
    return entries


def stacked_matrix(blocks, dim, pattern=None):
    """The ``dim x dim`` CSR array of the blocks ``(rows, cols, stack)`` that
    :func:`sector_stacks` returns, zero outside them.  Each stack is dropped
    from the list ``blocks`` once written, so only one exists twice at a
    time; offsets and indices are int32, as scipy picks them below ``2^31``.
    ``pattern``, a CSR array written here from blocks on the same ``rows``
    and ``cols``, lends the result its ``indptr`` and ``indices`` arrays."""
    if pattern is None:
        lengths = np.zeros(dim, dtype=np.int32)
        for rows, cols, _ in blocks:
            lengths[rows] = cols.shape[1]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
        indices = np.empty(indptr[-1], dtype=np.int32)
    else:
        indptr, indices = pattern.indptr, pattern.indices
    data = np.empty(indptr[-1], dtype=np.result_type(float, *(b[2].dtype for b in blocks)))
    for h, (rows, cols, stack) in enumerate(blocks):
        offsets = indptr[rows][..., None] + np.arange(cols.shape[1], dtype=np.int32)
        if pattern is None:
            indices[offsets] = cols[:, None, :]
        data[offsets] = stack
        blocks[h] = None
    return sparse.csr_array((data, indices, indptr), shape=(dim, dim))


def lowrank_hs_norm(a, b):
    """``||a b*||_2`` from the factors: ``sqrt(tr((a* a)(b* b)))``.

    The trace carries a rounding error of about ``eps ||a||_2^2 ||b||_2^2``
    (Frobenius norms), so the result is accurate to about
    ``sqrt(eps) ||a||_2 ||b||_2`` in absolute terms, not to ``eps``: a product
    that nearly cancels, ``||a b*||_2`` of ``1e-8 ||a||_2 ||b||_2`` or below,
    reads as rounding noise.  Factors with no columns give 0.
    """
    gram = (adjoint(a) @ a) @ (adjoint(b) @ b)
    return float(np.sqrt(max(np.trace(gram).real, 0.0)))


def lowrank_operator_norm(a, b):
    """``||a b*||`` from the triangular factors ``ra``, ``rb`` of reduced QRs of
    ``a`` and ``b``: ``a b* = Qa (ra rb*) Qb*``.  Both come from
    :func:`triangular_factor`, two QRs that never form ``Q``; a unitary
    diagonal on either factor leaves the norm as it is.  Factors with no
    columns have an empty ``ra rb*``, of norm 0."""
    return operator_norm(triangular_factor(a) @ adjoint(triangular_factor(b)))


def triangular_factor(*blocks):
    """The upper triangular ``R`` of a reduced QR ``[a, b, ...] = Q R`` of the
    column blocks ``a, b, ...`` (matrices of one height) side by side,
    without ``Q``.

    A tall matrix is cut into blocks of ``_QR_BLOCK_ROWS`` rows.  Batched QRs
    take each block's ``R``, ``_QR_GROUP_BLOCKS`` blocks at a time, and one
    more QR of those ``R`` stacked over the leftover rows gives ``R`` (a
    tall-skinny QR: Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34 (2012) A206-A239).  Only a group's rows of the column blocks
    are copied side by side at a time, never all of ``[a, b, ...]``; the
    result is the same to the bit.  It is as backward stable as one QR of
    ``[a, b, ...]`` and has the same ``R*R``, so it equals that QR's ``R`` up
    to a unitary diagonal.  Below two whole blocks it is
    ``np.linalg.qr(np.hstack([a, b, ...]), mode="r")``.  Real matrices give
    a real ``R``.
    """
    blocks = [np.asarray(b) for b in blocks]
    rows = blocks[0].shape[0]
    whole = rows // _QR_BLOCK_ROWS
    if whole < 2:
        return np.linalg.qr(_side_by_side(blocks, 0, rows), mode="r")
    cols = sum(b.shape[1] for b in blocks)
    split = whole * _QR_BLOCK_ROWS
    group = _QR_GROUP_BLOCKS * _QR_BLOCK_ROWS
    tops = []
    for lo in range(0, split, group):
        hi = min(lo + group, split)
        stack = _side_by_side(blocks, lo, hi).reshape(
            (hi - lo) // _QR_BLOCK_ROWS, _QR_BLOCK_ROWS, cols
        )
        tops.extend(np.linalg.qr(stack, mode="r"))
    return np.linalg.qr(np.concatenate([*tops, _side_by_side(blocks, split, rows)]), mode="r")


def _side_by_side(blocks, lo, hi):
    """Rows ``lo:hi`` of the column blocks side by side; a view for one block."""
    if len(blocks) == 1:
        return blocks[0][lo:hi]
    return np.hstack([b[lo:hi] for b in blocks])


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
