"""Quasifree states on the CAR algebra and their doubled GNS representation.

A gauge-invariant quasifree state is given by a real symmetric covariance
``R`` with spectrum in the open interval (0, 1).  Expectations of normal
ordered monomials reduce to determinants of ``(f_i, R g_j)`` Gram matrices.

With ``R = U D U^T``, ``U`` real orthogonal, ``Gamma(U)`` carries the state of
``D`` to that of ``R`` (Araki, Publ. RIMS 6 (1970) 385-442).  The GNS
representation acts on ``F(K) (x) F(K)`` in the number basis of the eigenmodes
``U e_i``; with ``f' = U^T f``, ``g' = U^T g`` and elementwise products,

    pi(a(f (+) g)) = a((1-D)^{1/2} f' - D^{1/2} g') (x) Gamma
                     + 1 (x) a*(J(D^{1/2} f' + (1-D)^{1/2} g'))

with ``J`` entrywise conjugation and ``Gamma`` the parity grading.  ``W =
Gamma(U) (x) Gamma(U)`` maps this basis to the number basis of ``K``, where
the square roots of ``R`` replace those of ``D``, and fixes the vacuum.  The
creation operator in the second summand and the sign of the second-component
embedding are fixed so that the vacuum two-point function reproduces the
purification projection ``P = [[R, S], [S, 1-R]]``, ``S = (R(1-R))^{1/2}``.

Basis vector ``b1 (x) b2`` has index ``k = b1 + d b2``, ``d = 2^n``: ``k`` is
the bitmask of the ``2n`` modes, the first factor's on the low bits.  The
representation holds this layout once, as the gathers ``first``, ``second``
and ``swap`` (the index of ``b2 (x) b1``), and builds its vacuum, charges
and grading from them.  The field is a sum of ``2n`` signed partial
permutations, ``a_i (x) Gamma`` and ``1 (x) a_i*``, whose entries do not
overlap.  The representation merges their tables once into a cached CSR
pattern (:func:`carshift.fock.csr_pattern`), so every field is one gather of
its ``2n`` coefficients into a ``scipy.sparse`` CSR array, and a creation
field is its adjoint.
Each eigenmode's charge ``q_i = N_1i - N_2i`` is a grading: ``pi(a(U e_i (+)
0))`` lowers ``q_i`` by one and keeps the others.
"""

import numpy as np
from scipy import sparse

from . import fock
from .opalg import adjoint, as_operator, inner, psd_sqrt


class CovarianceState:
    """Covariance operator of a gauge-invariant quasifree state.

    ``R`` must be real symmetric with ``0 < spec(R) < 1`` (equivalently
    ``ker R = ker(1-R) = 0``).  ``R = U D U^T``: ``d`` holds the eigenvalues,
    ascending, and ``u`` the real orthogonal ``U`` of eigenvectors.
    """

    def __init__(self, r):
        r = as_operator(r)
        if not np.all(np.isfinite(r)):
            raise ValueError("covariance must have finite entries")
        if np.max(np.abs(r.imag)) > 0:
            raise ValueError("covariance must be real-entried")
        r = r.real
        if np.max(np.abs(r - r.T)) > 1e-12 * max(1.0, np.max(np.abs(r))):
            raise ValueError("covariance must be symmetric")
        d, u = np.linalg.eigh(r)
        if d.min() <= 0.0 or d.max() >= 1.0:
            raise ValueError(
                "ker R = ker(1-R) = 0 violated: spectrum of R must lie in (0,1), "
                f"got [{d.min():.3e}, {d.max():.3e}]"
            )
        self.r = r
        self.dim = r.shape[0]
        self.d, self.u = d, u

    @classmethod
    def isotropic(cls, nu, dim):
        """The nu-state covariance ``R = nu * I``."""
        return cls(np.diag(np.full(dim, float(nu))))

    def __repr__(self):
        return f"CovarianceState(dim={self.dim})"


def quasifree_expectation(state, fs, gs):
    """Expectation of ``a*(f_m) ... a*(f_1) a(g_1) ... a(g_n)``.

    Vanishes unless ``m == n``; otherwise equals the determinant of the
    matrix with entries ``(g_j, R f_i)`` (inner product antilinear in the
    first slot), so ``omega(a*(f) a(g)) = (g, R f)`` and the empty product
    has the determinant 1 of the empty matrix.
    """
    fs = [np.asarray(f, dtype=complex) for f in fs]
    gs = [np.asarray(g, dtype=complex) for g in gs]
    if len(fs) != len(gs):
        return 0.0 + 0.0j
    m = len(fs)
    mat = np.empty((m, m), dtype=complex)
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            mat[i, j] = inner(state.r @ g, f)  # = (g_j, R f_i), R self-adjoint
    return complex(np.linalg.det(mat))


class DoubledRepresentation:
    """GNS representation of the CAR algebra over ``K (+) K`` on ``F(K) (x) F(K)``.

    The basis is the doubled number basis of the eigenmodes of ``R``.  Basis
    vector ``k`` is ``e_first[k] (x) e_second[k]``, ``k = first + d second``,
    and ``swap[k]`` is the index of ``e_second[k] (x) e_first[k]``.  It has
    ``charge[k]``, ``Q = N_1 - N_2``, and ``labels[k]``, its per-mode charges
    ``q_i = N_1i - N_2i`` in balanced ternary ``sum_i q_i 3^i``; the fields
    conserve them, and the label of ``-q`` is minus that of ``q``.
    """

    def __init__(self, state):
        if state.dim > fock.MAX_MODES // 2:
            raise ValueError(
                f"doubled representation needs 2*{state.dim} <= {fock.MAX_MODES} modes"
            )
        self.state = state
        self.n = state.dim
        self.factor = fock.FockSpace(self.n)
        d = self.factor.dim
        self.dim = d * d
        self._a, self._b = np.sqrt(1.0 - state.d), np.sqrt(state.d)
        k = np.arange(self.dim)
        self.first, self.second = k % d, k // d
        self.swap = self.second + d * self.first
        vacuum = fock.vacuum(self.factor)
        self.vacuum = vacuum[self.second] * vacuum[self.first]
        numbers = fock.particle_numbers(self.factor)
        self.charge = numbers[self.first] - numbers[self.second]
        bits = np.arange(d)[:, None] >> np.arange(self.n) & 1
        weights = bits @ 3 ** np.arange(self.n)
        self.labels = weights[self.first] - weights[self.second]
        gamma = fock.parity(self.factor)
        self.gamma_gamma = sparse.csr_array(
            ((gamma[self.second] * gamma[self.first]).astype(complex), k, np.arange(self.dim + 1)),
            shape=(self.dim, self.dim),
        )
        # (rows, cols, signs) of a_i (x) Gamma for i < n, then of 1 (x) a_i*,
        # the swapped transpose of a_i (x) 1
        other = np.arange(d)[:, None]
        tables = [None] * (2 * self.n)
        for i in range(self.n):
            rows, cols, signs = fock.mode_table(self.factor, i)
            rows, cols = (rows + d * other).ravel(), (cols + d * other).ravel()
            tables[i] = (rows, cols, (gamma[:, None] * signs).ravel())
            tables[self.n + i] = (self.swap[cols], self.swap[rows], np.tile(signs, d))
        self._pattern = fock.csr_pattern(tables, self.dim)

    def _eigen(self, f):
        """``U^T f``, or zeros for ``None``."""
        return np.zeros(self.n) if f is None else self.state.u.T @ np.asarray(f, dtype=complex)

    def _fill(self, f, g):
        """``pi(a(f (+) g))`` for ``f`` and ``g`` in eigen coordinates: ``conj(u)``
        on ``a_i (x) Gamma`` and ``w`` on ``1 (x) a_i*``, with ``u = (1-D)^{1/2} f
        - D^{1/2} g``, ``w = conj(D^{1/2} f + (1-D)^{1/2} g)``.

        A coefficient times a sign of -1 can have a ``-0.0`` part; adding
        ``0.0`` stores every zero real or imaginary part as ``+0.0``, so the
        stored bits are those of a sparse sum of the field's terms.
        """
        u = self._a * f - self._b * g
        w = np.conj(self._b * f + self._a * g)
        op = fock.fill_pattern(self._pattern, np.concatenate([np.conj(u), w]), self.dim)
        op.data += 0.0
        return op

    def field(self, f, g=None):
        """The annihilation image ``pi(a(f (+) g))`` as a CSR array (``g`` defaults to 0)."""
        return self._fill(self._eigen(f), self._eigen(g))

    def field_star(self, f, g=None):
        """The creation image ``pi(a*(f (+) g))``: the adjoint of :meth:`field`,
        as the CSC array that transposes its CSR array without a conversion."""
        return adjoint(self.field(f, g))

    def mode_fields(self):
        """``pi(a(U e_i (+) 0))`` for ``i < n``, then their adjoints ``pi(a*(U e_i
        (+) 0))``, filled from the eigen coordinates ``e_i``: each moves its own
        mode's charge alone."""
        zero = np.zeros(self.n)
        fields = [self._fill(e, zero) for e in np.eye(self.n)]
        return fields + [adjoint(op).tocsr() for op in fields]

    def vacuum_expectation(self, ops):
        """``<vac, ops[0] ... ops[-1] vac>`` applied right to left."""
        v = self.vacuum
        for op in reversed(list(ops)):
            v = op @ v
        return inner(self.vacuum, v)


def doubled_representation(state):
    """The representation of the CAR algebra over the doubled space ``K (+) K``."""
    return DoubledRepresentation(state)


def purification_projection(state):
    """The projection ``P = [[R, S], [S, 1-R]]`` with ``S = (R(1-R))^{1/2}``."""
    r = state.r
    s = psd_sqrt(r @ (np.eye(state.dim) - r))
    top = np.hstack([r, s])
    bot = np.hstack([s, np.eye(state.dim) - r])
    return np.vstack([top, bot]).astype(complex)
