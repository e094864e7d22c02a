"""Dense matrices assembled from the charge-sector blocks of ``carshift.modular``,
for tests that compare the blocks with full-matrix oracles."""

import numpy as np


def _assemble(data, blocks, flip):
    dim = len(data.labels)
    out = np.zeros((dim, dim), dtype=complex)
    for q, block in blocks.items():
        out[np.ix_(data.sectors[-q if flip else q], data.sectors[q])] = block
    return out


def dense_s(data):
    """The matrix ``M`` of the antilinear ``S v = M conj(v)``."""
    return _assemble(data, data.s, flip=True)


def dense_j(data):
    """The matrix ``M`` of the antilinear ``J v = M conj(v)``."""
    return _assemble(data, data.j, flip=True)


def dense_delta(data):
    return _assemble(data, data.delta, flip=False)


def dense_blocks(data, blocks):
    """The matrix with the blocks ``{(source, target): block}`` of ``conjugate_by``."""
    out = np.zeros((len(data.labels),) * 2, dtype=complex)
    for (source, target), block in blocks.items():
        out[np.ix_(data.sectors[target], data.sectors[source])] = block
    return out


def dense_involution(perm, signs):
    """The matrix ``M`` of ``v -> signs * conj(v[perm])``."""
    out = np.zeros((len(perm), len(perm)), dtype=complex)
    out[np.arange(len(perm)), perm] = signs
    return out
