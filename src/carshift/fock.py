"""Jordan-Wigner realization of the CAR algebra on a finite fermionic Fock space.

Basis states of ``FockSpace(n)`` are indexed by bitmasks ``0 .. 2^n - 1``;
mode ``i`` is occupied in basis state ``b`` iff bit ``i`` of ``b`` is set.
The sign string of mode ``i`` counts occupied modes with index below ``i``,
so ``a_i |b> = (-1)^{popcount(b & (2^i - 1))} |b ^ (1 << i)>`` when occupied.

Each ``a_i`` is therefore a signed partial permutation with ``2^(n-1)``
nonzeros; the space caches it as a table.  The tables of different modes
occupy disjoint entries, so a sum ``sum_i c_i a_i`` stores each entry once:
the space merges its mode tables into one cached CSR pattern, and every
annihilator is that pattern filled with its coefficients, one gather.

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
        self._pattern = None

    def __repr__(self):
        return f"FockSpace(modes={self.modes})"


def particle_numbers(space):
    """The particle number of every basis state (an int array of length ``dim``)."""
    return np.array([b.bit_count() for b in range(space.dim)])


def vacuum(space):
    v = np.zeros(space.dim, dtype=complex)
    v[0] = 1.0
    return v


def mode_table(space, i):
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
    rows, cols, signs = mode_table(space, i)
    op = np.zeros((space.dim, space.dim), dtype=complex)
    op[rows, cols] = signs
    return op


def csr_pattern(tables, dim):
    """Merge the disjoint ``(rows, cols, signs)`` tables of some terms into one
    CSR pattern ``(term, signs, indices, indptr)`` of ``dim x dim`` matrices,
    entries sorted by row, then column: ``sum_t c[t] T_t`` stores
    ``c[term] * signs``.
    """
    empty = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]
    rows, cols, signs = (np.concatenate(part) for part in zip(*(empty + list(tables))))
    term = np.repeat(np.arange(len(tables)), [len(table[0]) for table in tables])
    order = np.argsort(rows * dim + cols)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return term[order], signs[order], cols[order], indptr


def fill_pattern(pattern, coefficients, dim):
    """``sum_t coefficients[t] T_t`` on a :func:`csr_pattern` as a CSR array.

    The entries of a term whose coefficient is exactly zero are left out.
    """
    term, signs, indices, indptr = pattern
    data = coefficients[term] * signs
    zero = coefficients == 0
    if zero.any():
        keep = ~zero[term]
        data, indices = data[keep], indices[keep]
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
    return sparse.csr_array((data, indices, indptr), shape=(dim, dim))


def sparse_annihilator(space, f):
    """``a(f) = sum_i conj(f_i) a_i`` as a CSR array, antilinear in ``f``,
    filled into the space's cached pattern of its mode tables."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.modes,):
        raise ValueError(f"expected vector of length {space.modes}, got {f.shape}")
    if space._pattern is None:
        tables = [mode_table(space, i) for i in range(space.modes)]
        space._pattern = csr_pattern(tables, space.dim)
    return fill_pattern(space._pattern, np.conj(f), space.dim)


def annihilator(space, f):
    """The dense matrix of ``a(f)``, antilinear in ``f``."""
    return sparse_annihilator(space, f).toarray()


def parity(space):
    """The diagonal of the grading unitary ``(-1)^N`` on the number basis."""
    return 1.0 - 2.0 * (particle_numbers(space) & 1)
