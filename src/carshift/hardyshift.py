"""Shift semigroup on the half-line, Blaschke products, and unitary dilations.

The one-parameter shift ``(S_t f)(x) = f(x - t)`` acts on L2(0, inf).  For a
family of exponents ``l_k`` with ``Re l_k < 0``, bounded imaginary parts and
summable real parts, the normalized exponentials ``f_k`` span a subspace K1 on
which the adjoint shift acts diagonally; successive orthogonalization of the
``f_k`` produces an orthonormal family ``g_k`` and an isometry ``V_t`` that is
diagonal (pure phases) on K1 and agrees with ``S_t`` on the complement K0.

Every defect norm is evaluated in closed form: on the basis ``g_n`` from its
coefficient matrix over the ``f_k``, and the window defects of the Blaschke
multiplier (prop2) through :mod:`carshift.expcalc`.
Grid discretizations identify the doubled space K (+) K with cell functions on
a circle of circumference ``2 * horizon``; the shift dilation is then a
rotation of the circle cells, stored as its shift count, and the flow
dilation that rotation times an exact unitary built from a rotation on a
small subspace, so unitarity holds to rounding error at any resolution.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs

from . import expcalc
from .expcalc import ExpCombo
from .opalg import (
    RANK_TOL, adjoint, lowrank_hs_norm, lowrank_operator_norm, operator_norm, triangular_factor
)


# ---------------------------------------------------------------------------
# exponent families and condition (1)


@dataclass
class ExponentialFamily:
    """A nonempty family of exponents ``l_k`` subject to condition (1):
    ``Re l_k < 0`` and pairwise distinct.  A finite family has bounded
    ``|Im l_k|`` and summable ``|Re l_k|`` by construction."""

    lambdas: list

    def __post_init__(self):
        self.lambdas = lambdas = [complex(l) for l in self.lambdas]
        if not lambdas:
            raise ValueError("an exponent family needs at least one exponent")
        failures = [f"Re lambda_{k} >= 0" for k, l in enumerate(lambdas) if l.real >= 0]
        for i in range(len(lambdas)):
            for j in range(i + 1, len(lambdas)):
                if abs(lambdas[i] - lambdas[j]) < 1e-12:
                    failures.append(f"lambda_{i} == lambda_{j}")
        if failures:
            raise ValueError(f"condition (1) violated: {failures}")

    @property
    def size(self):
        return len(self.lambdas)

    @property
    def s_value(self):
        """``s = sum |Re l_k|`` -- the total decay rate."""
        return float(-sum(l.real for l in self.lambdas))


# ---------------------------------------------------------------------------
# Blaschke product


def blaschke_eval(family, z):
    """``B(z) = prod_k (z + conj(l_k)) / (z - l_k)``; inner for the right half-plane."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for l in family.lambdas:
        denom = z - l
        if np.any(np.abs(denom) < 1e-12):
            raise ValueError("evaluation point collides with a Blaschke pole")
        out = out * (z + np.conj(l)) / denom
    return out if out.shape else complex(out)


def blaschke_asymptotics(family):
    """The ``1/z`` coefficient of ``B``.

    Returns ``c3`` with ``B(z) = 1 - c3/z + o(1/z)``, fit from samples on
    the real axis at ``c2 * 2^j``, ``j = 4..9``, ``c2 = 2 max |l_k| + 1``;
    it should equal ``two_s = 2 * s_value``.
    """
    max_abs = max(abs(l) for l in family.lambdas)
    c2 = 2.0 * max_abs + 1.0
    radii = np.array([c2 * (2.0 ** j) for j in range(4, 10)])
    vals = radii * (1.0 - blaschke_eval(family, radii.astype(complex)))
    # c3 + a/r fit: intercept at 1/r -> 0
    coeffs = np.polyfit(1.0 / radii, np.asarray(vals).real, 1)
    c3 = float(coeffs[1])
    return {"c3": c3, "two_s": 2.0 * family.s_value}


# ---------------------------------------------------------------------------
# orthogonalized exponential basis and the isometry V_t


def gram_exponentials(family):
    """Gram matrix ``(f_m, f_n) = -c_m c_n / (conj(l_m) + l_n)`` (unit diagonal)."""
    lam = np.asarray(family.lambdas, dtype=complex)
    c = np.sqrt(-2.0 * lam.real)
    denom = lam.conjugate()[:, None] + lam[None, :]
    return -np.outer(c, c) / denom


@dataclass
class ExponentialBasis:
    family: ExponentialFamily
    coeff: np.ndarray            # upper triangular: g_n = sum_m coeff[m, n] f_m

    def phases(self, t):
        """The phases ``exp(i Im(l_n) t)`` of the isometry ``V_t`` on the ``g_n``."""
        lam = np.asarray(self.family.lambdas)
        return np.exp(1j * lam.imag * t)


def _solve_triangular(a, b, lower):
    """``a^{-1} b`` for a triangular ``a`` (its ``lower`` or upper triangle),
    through BLAS ``?trsm`` on the calling thread.

    ``scipy.linalg.solve_triangular`` takes LAPACK ``?trtrs``, which OpenBLAS
    runs on a worker thread for two or more right-hand sides: on a 2-core
    machine a 3 x 3 solve waits 6-8 ms for it, and the thread keeps spinning
    into what runs next.  With two or more right-hand sides ``?trtrs`` is
    ``?trsm`` after a check of the diagonal, so this keeps its checks (a
    non-finite entry is a ``ValueError``, an exactly zero diagonal entry a
    ``LinAlgError``) and its bits.  With one, ``?trtrs`` takes another route,
    which can differ in the last bit; here that is only the 1 x 1 solve of a
    one-exponent family, whose real ``a`` gave the same bits on every family
    tried.  ``?trsm`` goes threaded too once ``b`` has 512 entries, a square
    solve of 23 columns.  The condition cap of :func:`orthogonalize` refuses
    families from a bounded box of exponents from about 12 on, but a family
    with widely spread imaginary parts passes it at any size.
    """
    a = np.asarray_chkfinite(a)
    b = np.asarray_chkfinite(b)
    zero = np.flatnonzero(np.diagonal(a) == 0)
    if zero.size:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {zero[0]}")
    trsm = get_blas_funcs("trsm", (a, b))
    if a.flags.f_contiguous:
        return trsm(1.0, a, b, lower=lower)
    # a C-ordered ``a`` is the Fortran-ordered ``a.T``: solve the transposed
    # system, as solve_triangular does, and copy nothing
    return trsm(1.0, a.T, b, lower=not lower, trans_a=1)


def orthogonalize(family):
    """Successive orthogonalization of the normalized exponentials.

    The coefficient matrix is upper triangular with positive diagonal
    (Cholesky of the Gram matrix); families whose Gram matrix has condition
    number above ``1e12`` are rejected.
    """
    g = gram_exponentials(family)
    if np.linalg.cond(g) > 1e12:
        raise ValueError("exponential family too ill-conditioned to orthogonalize")
    low = np.linalg.cholesky(g)
    coeff = _solve_triangular(low, np.eye(family.size), lower=True).conj().T
    return ExponentialBasis(family, coeff)


def backward_shift_matrix(basis, t):
    """Matrix of ``S_t*`` on span{g_n}: upper triangular, diagonal ``exp(l_n t)``."""
    d = np.diag(np.exp(np.asarray(basis.family.lambdas) * t))
    return _solve_triangular(basis.coeff, d @ basis.coeff, lower=False)


def _defect_terms(basis, t):
    """``||(V_t - S_t) g_n||^2 = 2 - 2 Re[exp(-i Im(l_n) t) exp(conj(l_n) t)]``, per ``n``."""
    lam = np.asarray(basis.family.lambdas)
    return 2.0 - 2.0 * np.exp(lam.real * t) * np.cos(2.0 * lam.imag * t)


def defect_hs_norm(basis, t):
    """``||V_t - S_t||_2`` in closed form: the defect vanishes on K0, and on
    each ``g_n`` it is :func:`_defect_terms`."""
    return float(np.sqrt(max(np.sum(_defect_terms(basis, t)), 0.0)))


def defect_increment_hs(basis, t, delta):
    """``||(V_{t+d} - S_{t+d}) - (V_t - S_t)||_2`` in closed form."""
    total = 0.0
    for lam in basis.family.lambdas:
        p = np.exp(1j * lam.imag * (t + delta)) - np.exp(1j * lam.imag * t)
        b = 2.0 - 2.0 * (np.exp(lam * delta)).real
        cross = np.conj(p) * (np.exp(np.conj(lam) * (t + delta)) - np.exp(np.conj(lam) * t))
        total += abs(p) ** 2 + b - 2.0 * cross.real
    return float(np.sqrt(max(total, 0.0)))


def estimate_inequalities(basis, t):
    """Exact left sides of the two defect estimates at time ``t``, per basis
    vector ``g_n``.

    ``near[n] = ||P_{[0,t]} V_t S_t* S_t g_n||^2 = ||P_{[0,t]} g_n||^2`` is the
    diagonal of ``coeff* G coeff`` with the Gram matrix of the ``f_k`` over
    ``(0, t)``, ``G[m, k] = c_m c_k expm1(rho t)/rho``, ``rho = conj(l_m) + l_k``;
    ``far[n] = ||(P_{[t,inf)} V_t S_t* - P_{[t,inf)}) S_t g_n||^2`` is the rest
    of ``||(V_t - S_t) g_n||^2``, and ``sum`` adds both over ``n``, which is
    ``defect_hs_norm(basis, t)**2``.  As ``t -> 0`` the near terms are O(t)
    and the far terms O(t^2), so the sum is O(t).
    """
    lam = np.asarray(basis.family.lambdas)
    c = np.sqrt(-2.0 * lam.real)
    rho = lam.conj()[:, None] + lam[None, :]
    gram = np.outer(c, c) * np.expm1(rho * t) / rho
    near = np.sum(basis.coeff.conj() * (gram @ basis.coeff), axis=0).real
    terms = _defect_terms(basis, t)
    return {"near": near, "far": terms - near, "sum": float(np.sum(terms))}


def fit_power(xs, ys):
    """Least-squares exponent of ``y ~ C x^p`` on a log-log scale.

    A slope needs two distinct ``x``; fewer is a ``ValueError``.
    """
    distinct = len(set(xs))
    if distinct < 2:
        raise ValueError(f"a power fit needs two distinct abscissae, got {distinct}")
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# window defects of the Blaschke multiplier


def window_exponent(k, delta):
    """``mu_{k,delta} = -1/(2|k|) + 2 pi i k / delta`` (``mu_0 = -1/2``),
    elementwise over an array ``k``."""
    k = np.asarray(k)
    return (-0.5 / np.maximum(np.abs(k), 1) + 1j * (2.0 * np.pi * k / delta))[()]


def prop2_defect(family, delta, k_max):
    """Hilbert-Schmidt estimate for the window defect of ``Theta``.

    Bounds ``P_w Theta P_w - P_w`` on a window ``w`` of length ``delta`` by
    ``(Theta - 1)P_w``, evaluated on the normalized window exponentials
    ``f_{k,delta}``, ``|k| <= k_max`` (the projected defect is dominated by
    this and decays at least as fast):
    ``sum_sq = sum_k ||(Theta - 1) f_{k,delta}||^2``, each term in closed form
    by :func:`expcalc.window_defects`.  ``Theta`` commutes with translation,
    so no term depends on where the window starts.  Returns the partial sum,
    its square root, a ``1/k^2`` tail estimate from the median of
    ``k^2 ||(Theta - 1) f_k||^2`` over ``|k| >= max(2, k_max // 2)``, and the
    per-``k`` contributions as a pair of arrays ``(k, value)``.
    """
    ks = np.arange(-k_max, k_max + 1)
    values = expcalc.window_defects(family.lambdas, window_exponent(ks, delta), delta)
    total = float(np.sum(values))
    far = np.abs(ks) >= max(2, k_max // 2)
    if np.any(far):
        amp = np.median(values[far] * ks[far] ** 2)
        tail = 2.0 * amp / max(k_max, 1)
    else:
        tail = 0.0
    return {
        "value": float(np.sqrt(total)),
        "sum_sq": total,
        "tail_estimate_sq": float(tail),
        "per_k": (ks, values),
    }


def laplace_pairing(family, mu, start=0.0, end=np.inf):
    """``(f, Theta f)`` for the normalized exponential of rate ``mu``.

    The exact value is ``B(-conj(mu)) * ||f||^2``: the Blaschke factor is
    evaluated at the right-half-plane reflection of the exponent (where
    ``|B| <= 1``, consistent with ``Theta`` being a contraction pairing).
    """
    f = ExpCombo.normalized_exponential(mu, start=start, end=end)
    pairing = f.inner(expcalc.theta_apply(family.lambdas, f))
    reference = blaschke_eval(family, -np.conj(mu))
    return complex(pairing), complex(reference)


# ---------------------------------------------------------------------------
# norm continuity


def condition_n_check(u_path, t_grid):
    """Operator-norm continuity of a unitary path on a grid.

    Compares the modulus of continuity at the grid spacing with the modulus
    at doubled spacing; a genuinely norm-continuous path contracts by about
    one half, while a discontinuous (unbounded-generator) path saturates.
    Moduli up to ``1e-10`` count as zero.
    """
    atol = 1e-10
    mats = [np.asarray(u_path(t), dtype=complex) for t in t_grid]
    fine = [operator_norm(mats[i + 1] - mats[i]) for i in range(len(mats) - 1)]
    coarse = [operator_norm(mats[i + 2] - mats[i]) for i in range(len(mats) - 2)]
    max_fine = max(fine) if fine else 0.0
    max_coarse = max(coarse) if coarse else 0.0
    ok = max_fine <= atol or (coarse and max_fine <= 0.75 * max_coarse + atol)
    return {"pass": bool(ok), "moduli": fine}


# ---------------------------------------------------------------------------
# circle-grid discretization and unitary dilations


class DilationOperator:
    """Unitary on the doubled grid space: rotation of the circle cells times
    ``I + X Y*``.

    The ``dim`` cells of the circle ``[-T, T)`` carry the doubled space, so
    the translation ``S'_t`` is the rotation ``P`` by ``shift`` cells,
    ``(P B)[i] = B[(i - shift) mod dim]``; the low-rank rotation (2-D factors
    ``X``, ``Y`` of one shape) carries the flow correction.  Stored as the
    shift count and the factors, so norms are exact and cheap at any
    resolution.
    """

    def __init__(self, shift, x, y, k_dim):
        self.x = np.asarray(x, dtype=complex)
        self.y = np.asarray(y, dtype=complex)
        self.dim = self.x.shape[0]
        self.shift = int(shift) % self.dim
        self.k_dim = k_dim

    def to_dense(self):
        """The dense matrix, kept as a test oracle; refused above dimension 6000."""
        if self.dim > 6000:
            raise ValueError("dense form refused above dimension 6000")
        m = np.eye(self.dim, dtype=complex) + self.x @ self.y.conj().T
        return _rotated_rows(m, self.shift, 0, self.dim)

    def unitarity_residual(self):
        """Operator norm of ``U*U - 1``, exact for any factors ``X``, ``Y``.

        ``U*U - 1 = Y X* + X Y* + Y (X*X) Y*`` has range and co-range in
        ``span[X, Y]``.  With the triangular factor ``[Rx, Ry]`` of one
        reduced QR of ``[X, Y]`` (``X = Q Rx``, ``Y = Q Ry``) it is
        ``Q (M*M - 1) Q*`` with ``M = 1 + Rx Ry*``, so the norm is that of
        the small matrix ``M*M - 1``.  The factor comes from
        :func:`opalg.triangular_factor` of the blocks ``X`` and ``Y``, which
        never copies ``[X, Y]`` whole; a unitary diagonal ``D`` on it turns
        ``M*M - 1`` into ``D (M*M - 1) D*``, of the same norm.  A pure
        rotation (factors with no columns) gives an empty ``M``, of norm 0.
        """
        k = self.x.shape[1]
        r = triangular_factor(self.x, self.y)
        m = np.eye(r.shape[0]) + r[:, :k] @ adjoint(r[:, k:])
        return operator_norm(adjoint(m) @ m - np.eye(r.shape[0]))

    def offspace_deviation(self):
        """Operator norm of ``(S' U* - 1)`` restricted to the second summand.

        That is ``(P Y) (P X)*`` on the columns ``k_dim..``; ``P`` is unitary,
        so the norm is that of ``Y`` times those rows of ``P X``, taken by
        :func:`opalg.lowrank_operator_norm` from the factors.
        """
        rows = _rotated_rows(self.x, self.shift, self.k_dim, self.dim)
        return lowrank_operator_norm(self.y, rows)

    def product_defect_factors(self, other):
        """Factors ``(l, r)`` with ``self other* - 1 = l r*``.

        With a shared rotation ``P``,
        ``U V* - 1 = P [X_u, Y_v + X_u (Y_u* Y_v)] (P [Y_u, X_v])*``.
        """
        if (self.shift, self.dim, self.k_dim) != (other.shift, other.dim, other.k_dim):
            raise ValueError("dilations with different rotations have no shared factored form")
        cross = other.y + self.x @ (self.y.conj().T @ other.y)
        l = _rotated_rows(np.hstack([self.x, cross]), self.shift, 0, self.dim)
        r = _rotated_rows(np.hstack([self.y, other.x]), self.shift, 0, self.dim)
        return l, r


def _rotated_rows(block, shift, lo, hi):
    """Rows ``lo..hi`` of ``P B``, ``(P B)[i] = B[(i - shift) mod dim]``, for
    the rows ``B`` of ``block``: a view when they do not wrap past the last
    row, else a copy of those rows only."""
    dim = block.shape[0]
    start = (lo - shift) % dim
    stop = start + hi - lo
    if stop <= dim:
        return block[start:stop]
    return np.concatenate([block[start:], block[: stop - dim]])


class GridModel:
    """Cell discretization of ``L2(0, T)`` and its doubled circle space.

    ``T`` is the horizon.  Every operator at a time ``t`` (the factors of the
    grid flow and the dilations) refuses ``t >= T`` with ``ValueError``:
    ``S_t`` then moves all of ``L2(0, T)`` past the horizon, and on the circle
    of circumference ``2 T`` a longer translation wraps back into the first
    summand, so the dilations no longer dilate the grid ``V_t``.
    """

    def __init__(self, basis, horizon, step):
        self.basis = basis
        self.horizon = float(horizon)
        self.step = float(step)
        self.n = round(self.horizon / self.step)
        if abs(self.n * self.step - self.horizon) > 1e-9:
            raise ValueError("horizon must be an integer number of cells")
        q, r = np.linalg.qr(self.cell_averages())
        signs = np.sign(np.diag(r).real)
        signs[signs == 0] = 1.0
        self.ghat = q * signs

    def steps_of(self, t):
        """``t`` in grid steps; ``ValueError`` at or past the horizon or off
        the grid."""
        if t >= self.horizon:
            raise ValueError(f"t = {t:g} must lie below the horizon {self.horizon:g}")
        m = round(t / self.step)
        if abs(m * self.step - t) > 1e-9:
            raise ValueError("t must be a multiple of the grid step")
        return m

    def cell_averages(self):
        """The ``n x nlam`` matrix of exact L2 cell averages (times
        ``1/sqrt(h)``) of the ``g_n`` on the cells ``[jh, (j+1)h]``.

        ``g_n = sum_m coeff[m, n] c_m exp(l_m x)`` with ``c_m = sqrt(-2 Re l_m)``,
        so column ``n`` adds ``coeff[m, n] c_m d_m / l_m`` in ascending ``m``,
        with ``d_m = exp(l_m (j+1)h) - exp(l_m jh)`` taken once per exponent.
        """
        h = self.step
        j = np.arange(self.n)
        out = np.zeros((self.n, self.basis.family.size), dtype=complex)
        for m, lam in enumerate(self.basis.family.lambdas):
            d = np.exp(lam * ((j + 1) * h)) - np.exp(lam * (j * h))
            for n in range(m, out.shape[1]):
                c = np.sqrt(-2.0 * lam.real) * self.basis.coeff[m, n]
                # c * d in explicit real arithmetic: numpy's complex array
                # multiply may fuse it into FMAs and round differently from
                # the scalar product, and the recorded compression_residual
                # holds only by bit reproducibility.  Once that value is
                # re-recorded from an accurate route, the geometric closed
                # form of the cell averages can replace this expression.
                term = np.empty_like(d)
                term.real = c.real * d.real - c.imag * d.imag
                term.imag = c.real * d.imag + c.imag * d.real
                out[:, n] += term / lam
        return out / np.sqrt(h)

    # -- operators on the single grid space K ------------------------------

    def flow_lowrank(self, t):
        """Factors of the direct grid ``V_t = S_t + X Y*`` on K."""
        m = self.steps_of(t)
        phases = self.basis.phases(t)
        shifted = np.zeros_like(self.ghat)
        shifted[m:, :] = self.ghat[: self.n - m, :]
        x = self.ghat * phases[None, :] - shifted
        return x, self.ghat.copy()

    # -- circle dilations ---------------------------------------------------

    def shift_dilation(self, t):
        """The exact unitary dilation of ``S_t``: translation on the circle."""
        m = self.steps_of(t)
        empty = np.zeros((2 * self.n, 0), dtype=complex)
        return DilationOperator(m, empty, empty, self.n)

    def flow_dilation(self, t):
        """An exact unitary dilation of the grid ``V_t``.

        ``V' = S' R`` where ``R`` rotates each ``ghat_n`` onto
        ``phase_n * S'* ghat_n`` and acts as the minimal unitary completion on
        the remaining directions of their joint span (singular values below
        ``RANK_TOL`` of the largest count as zero).  The completion is the
        polar rotation of the SVD of the overlap of the complements ``d1`` of
        ``span ghat`` and ``d2`` of ``span S'* ghat``; where the two spans
        agree (at ``t = 0``) both are empty and so is the rotation.  The
        compression of ``V'`` to the first summand is exactly the grid ``V_t``.
        """
        m = self.steps_of(t)
        n2 = 2 * self.n
        nlam = self.ghat.shape[1]
        b = np.zeros((n2, nlam), dtype=complex)
        b[: self.n, :] = self.ghat
        phases = self.basis.phases(t)
        c = _rotated_rows(b, -m, 0, n2) * phases[None, :]  # S'^* then phase
        joint = np.hstack([b, c])
        uq, sq, _ = np.linalg.svd(joint, full_matrices=False)
        q = uq[:, sq > RANK_TOL * sq[0]]
        d1 = _complement_basis(q, b)
        d2 = _complement_basis(q, c)
        r = min(d1.shape[1], d2.shape[1])
        d1, d2 = d1[:, :r], d2[:, :r]
        uw, _, vwh = np.linalg.svd(d2.conj().T @ d1)
        x = np.hstack([c, d2 @ (uw @ vwh), -q])
        y = np.hstack([b, d1, q])
        return DilationOperator(m, x, y, self.n)

    def flow_frame(self, t):
        """The rotation ``R`` of :meth:`flow_dilation` on ``E = span[b, c]``
        as a ``2 nlam``-square unitary, in the frame of ``b`` and of
        ``E (-) span b``.

        With the SVD ``M = b* c = W Sigma Z*`` of the overlap and
        ``S = (1 - Sigma^2)^{1/2}`` (the cosines and sines of the principal
        angles between ``span b`` and ``span c``),
        ``R = [[M, -W S Z*], [Z S Z*, Z Sigma Z*]]``: its second block column
        is the minimal rotation of ``E (-) span b`` onto ``E (-) span c``.
        ``R`` is 1 off ``E``, so ``||1 - R||_2`` here is ``||S'_t - V'_t||_2``
        there, with no rank cutoff.
        """
        m = self.steps_of(t)
        overlap = adjoint(self.ghat[: self.n - m]) @ self.ghat[m:] * self.basis.phases(t)
        w, cos, zh = np.linalg.svd(overlap)
        cos = np.minimum(cos, 1.0)
        sin = np.sqrt((1.0 - cos) * (1.0 + cos))
        z = adjoint(zh)
        return np.block([[overlap, -(w * sin) @ zh], [(z * sin) @ zh, (z * cos) @ zh]])

    def compression_residual(self, t, dilation):
        """Frobenius distance between the compression of ``dilation`` (the
        flow dilation at ``t``, built by the caller) and the grid ``V_t``.

        Evaluated from the factors by :func:`opalg.lowrank_hs_norm`, which is
        accurate to about ``sqrt(eps) ||a||_2 ||b||_2`` only.  On the
        dilation-check benchmark config (fam3, step 2^-11, horizon 32,
        t = 0.25) the value, 1.15e-7, sits below that floor (about 1.65e-7),
        so its recorded value holds only by bit reproducibility until it is
        re-recorded from an accurate route.  Those bits depend on the BLAS
        thread count: with OpenBLAS on one thread the value there is
        1.14678e-7, on two threads 1.15258e-7.
        """
        sx = _rotated_rows(dilation.x, dilation.shift, 0, self.n)
        yk = dilation.y[: self.n, :]
        xd, yd = self.flow_lowrank(t)
        return lowrank_hs_norm(np.hstack([sx, -xd]), np.hstack([yk, yd]))


def _complement_basis(q, cols):
    """Orthonormal basis of ``span(q) (-) span(cols)``."""
    z = q - cols @ (cols.conj().T @ q)
    uz, sz, _ = np.linalg.svd(z, full_matrices=False)
    return uz[:, sz > max(RANK_TOL * sz.max(initial=0.0), 1e-13)]
