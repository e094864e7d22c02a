"""Jordan-Wigner realization of the CAR algebra on a finite fermionic Fock space.

Basis states of ``FockSpace(n)`` are indexed by bitmasks ``0 .. 2^n - 1``;
mode ``i`` is occupied in basis state ``b`` iff bit ``i`` of ``b`` is set.
The sign string of mode ``i`` counts occupied modes with index below ``i``,
so ``a_i |b> = (-1)^{popcount(b & (2^i - 1))} |b ^ (1 << i)>`` when occupied.

Each ``a_i`` is therefore a signed partial permutation with ``2^(n-1)``
nonzeros; the space caches it as a table and every operator here is built
from those tables.

Annihilators are antilinear in their vector argument:
``annihilator(space, f) = sum_i conj(f_i) a_i``.
"""

import numpy as np
from scipy import sparse

MAX_MODES = 12


class FockSpace:
    """Fermionic Fock space over C^modes, dimension ``2**modes``."""

    def __init__(self, modes):
        if not 0 <= modes <= MAX_MODES:
            raise ValueError(f"modes must be in [0, {MAX_MODES}], got {modes}")
        self.modes = modes
        self.dim = 1 << modes
        self._mode_tables = {}

    def occupation(self, index):
        """Tuple of occupied mode indices of a basis state."""
        return tuple(i for i in range(self.modes) if index >> i & 1)

    def __repr__(self):
        return f"FockSpace(modes={self.modes})"


def particle_numbers(space):
    """The particle number of every basis state (an int array of length ``dim``)."""
    return np.array([b.bit_count() for b in range(space.dim)])


def vacuum(space):
    v = np.zeros(space.dim, dtype=complex)
    v[0] = 1.0
    return v


def _mode_table(space, i):
    """``a_i`` as ``(rows, cols, signs)``: ``a_i = sum_k signs[k] |rows[k]><cols[k]|``.

    ``cols`` are the basis states with mode ``i`` occupied.  Cached per space.
    """
    if not 0 <= i < space.modes:
        raise ValueError(f"mode index {i} out of range for {space!r}")
    table = space._mode_tables.get(i)
    if table is None:
        cols = np.flatnonzero(np.arange(space.dim) >> i & 1)
        below = particle_numbers(space)[cols & ((1 << i) - 1)]
        table = (cols ^ (1 << i), cols, 1.0 - 2.0 * (below & 1))
        space._mode_tables[i] = table
    return table


def mode_annihilator(space, i):
    """The matrix of ``a_i = a(e_i)``."""
    rows, cols, signs = _mode_table(space, i)
    op = np.zeros((space.dim, space.dim), dtype=complex)
    op[rows, cols] = signs
    return op


def sparse_annihilator(space, f):
    """``a(f) = sum_i conj(f_i) a_i`` as a CSR array, antilinear in ``f``.

    The modes' tables occupy disjoint entries, so no entry is a sum.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.modes,):
        raise ValueError(f"expected vector of length {space.modes}, got {f.shape}")
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for i in np.flatnonzero(f):
        r, c, signs = _mode_table(space, i)
        rows.append(r)
        cols.append(c)
        vals.append(np.conj(f[i]) * signs)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csr_array(entries, shape=(space.dim, space.dim))


def annihilator(space, f):
    """The dense matrix of ``a(f)``, antilinear in ``f``."""
    return sparse_annihilator(space, f).toarray()


def creator(space, f):
    """``a*(f) = a(f)^dagger``, linear in ``f``."""
    return np.conj(annihilator(space, f)).T


def parity(space):
    """The grading unitary: ``(-1)^N`` on the number basis."""
    return np.diag(1.0 - 2.0 * (particle_numbers(space) & 1)).astype(complex)


def wedge_vector(space, vectors):
    """``f_1 ^ ... ^ f_k`` realized as ``a*(f_1) ... a*(f_k) vacuum``."""
    v = vacuum(space)
    for f in reversed(list(vectors)):
        v = sparse_annihilator(space, f).conj().T @ v
    return v


def second_quantized(space, v):
    """Multiplicative second quantization of a one-particle matrix.

    For unitary ``v`` this is the unitary sending
    ``f_1 ^ ... ^ f_k -> (v f_1) ^ ... ^ (v f_k)``.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (space.modes, space.modes):
        raise ValueError(f"expected {space.modes}x{space.modes} matrix, got {v.shape}")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for b in range(space.dim):
        out[:, b] = wedge_vector(space, [v[:, i] for i in space.occupation(b)])
    return out


def number_operator(space):
    return np.diag(particle_numbers(space).astype(float)).astype(complex)

