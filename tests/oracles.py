"""Reference implementations that tests compare the library's closed forms with."""

import cmath

import numpy as np
from scipy import integrate, sparse
from scipy.linalg import solve_triangular

from carshift import fock
from carshift.expcalc import _GL_NODES, _GL_WEIGHTS, ExpCombo, _eint, blaschke_residues
from carshift.hardyshift import gram_exponentials
from carshift.opalg import adjoint, anticommutator, hs_norm, psd_sqrt, sector_stacks
from carshift.quasifree import CovarianceState


def wedge_vector(space, vectors):
    """``f_1 ^ ... ^ f_k`` realized as ``a*(f_1) ... a*(f_k) vacuum``."""
    v = fock.vacuum(space)
    for f in reversed(list(vectors)):
        v = fock.sparse_annihilator(space, f).conj().T @ v
    return v


def car_check_columns(seed, modes, trials):
    """car-check's ``anticomm_ff``, ``anticomm_star`` and ``norm_residual``
    one trial at a time: each dense ``a(f)`` copied to CSR, its products and
    sector norms taken on their own."""
    rng = np.random.default_rng(seed)
    space = fock.FockSpace(modes)
    numbers = fock.particle_numbers(space)
    eye = sparse.eye_array(space.dim)
    ff, star, norm = [], [], []
    for _ in range(trials):
        f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        af = sparse.csr_array(fock.annihilator(space, f))
        ag = sparse.csr_array(fock.annihilator(space, g))
        ff.append(stack_max_norm(anticommutator(af, ag), numbers))
        star.append(stack_max_norm(anticommutator(adjoint(af), ag) - np.vdot(g, f) * eye, numbers))
        norm.append(abs(stack_max_norm(af, numbers) - np.linalg.norm(f)))
    return ff, star, norm


def stack_max_norm(op, labels):
    """``opalg.sector_operator_norm`` as the largest singular value of all the
    blocks of each stack of ``sector_stacks``, one stacked SVD per stack."""
    stacks = sector_stacks(op, labels)
    return float(max((np.linalg.svd(b, compute_uv=False).max() for _, _, b in stacks), default=0))


def second_quantized(space, v):
    """Multiplicative second quantization of a one-particle matrix ``v``:
    ``f_1 ^ ... ^ f_k -> (v f_1) ^ ... ^ (v f_k)``."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for b in range(space.dim):
        out[:, b] = wedge_vector(space, [v[:, i] for i in range(space.modes) if b >> i & 1])
    return out


def doubled_second_quantized(rep):
    """``W = Gamma(U) (x) Gamma(U)`` for the real orthogonal eigenvectors ``U``
    of the covariance of a doubled representation, as a real matrix: it maps
    the representation's basis, the number basis of the eigenmodes, to the
    number basis of ``K``."""
    factor = second_quantized(rep.factor, rep.state.u).real
    return np.kron(factor, factor)


def tensor(first, second):
    """Kronecker product of dense arrays with the *first* factor on the low bits.

    With this ordering ``tensor(a_i, I)`` equals the Jordan-Wigner ``a_i`` of
    the combined ``2n``-mode space for ``i < n``: first-factor modes occupy
    indices ``0..n-1`` and second-factor modes ``n..2n-1``.
    """
    return np.kron(np.asarray(second), np.asarray(first))


def transposed_creation_fields(rep):
    """``pi(a*(U e_i (+) 0))`` for ``i < n``, each filled into a CSR pattern of
    the transposed tables of ``a_i (x) Gamma`` and ``1 (x) a_i*`` with the
    conjugates of the coefficients of ``pi(a(U e_i (+) 0))``."""
    d, n = rep.factor.dim, rep.n
    gamma = fock.parity(rep.factor)
    other = np.arange(d)[:, None]
    lowered, raised = [], []
    for i in range(n):
        rows, cols, signs = fock.mode_table(rep.factor, i)
        lowered.append(((cols + d * other).ravel(), (rows + d * other).ravel(),
                        (gamma[:, None] * signs).ravel()))
        raised.append(((other + d * rows).ravel(), (other + d * cols).ravel(), np.tile(signs, d)))
    pattern = fock.csr_pattern(lowered + raised, rep.dim)
    a, b = np.sqrt(1.0 - rep.state.d), np.sqrt(rep.state.d)
    zero = np.zeros(n)
    fields = []
    for e in np.eye(n):
        u, w = a * e - b * zero, np.conj(b * e + a * zero)
        op = fock.fill_pattern(pattern, np.concatenate([np.conj(u), w]), rep.dim)
        op.data += 0.0
        np.conj(op.data, out=op.data)
        fields.append(op)
    return fields


def product_xstar(x, adjoint, signs):
    """``X* = X F`` as the sparse product with the signed permutation ``F``
    from each monomial to its adjoint, indices sorted."""
    xstar = x @ sparse.csr_array((signs, (adjoint, np.arange(x.shape[1]))), shape=x.shape)
    xstar.sort_indices()
    return xstar


def evaluate(combo, x):
    """Pointwise values of an exponential combination."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for c, mu, s, e in combo.terms:
        mask = (x > s) & (x < e)
        out[mask] += c * np.exp(mu * (x[mask] - s))
    return out


def quad_inner(f, g, lo=0.0, hi=80.0, limit=400):
    """Quadrature of the L2 pairing ``(f, g)`` on ``(lo, hi)``, antilinear in ``f``."""
    integrand = lambda x: np.conj(evaluate(f, x)) * evaluate(g, x)
    re = integrate.quad(lambda x: integrand(x).real, lo, hi, limit=limit)[0]
    im = integrate.quad(lambda x: integrand(x).imag, lo, hi, limit=limit)[0]
    return re + 1j * im


def shift(combo, t):
    """Forward translation ``(S_t u)(x) = u(x - t)`` (``t >= 0``)."""
    return ExpCombo([(c, mu, s + t, e + t) for c, mu, s, e in combo.terms])


def backshift(combo, t):
    """Backward translation ``(S_t* u)(x) = u(x + t)`` restricted to x > 0."""
    out = []
    for c, mu, s, e in combo.terms:
        s2 = max(s - t, 0.0)
        e2 = e - t
        if e2 > 0:
            out.append((c * cmath.exp(mu * (s2 + t - s)), mu, s2, e2))
    return ExpCombo(out)


def window(combo, lo, hi=np.inf):
    """Restriction to the interval ``(lo, hi)``."""
    out = []
    for c, mu, s, e in combo.terms:
        s2 = max(s, lo)
        e2 = min(e, hi)
        if e2 > s2:
            out.append((c * cmath.exp(mu * (s2 - s)), mu, s2, e2))
    return ExpCombo(out)


def add(*combos):
    """The sum of exponential combinations: their terms side by side."""
    return ExpCombo([term for combo in combos for term in combo.terms])


def subtract(f, g):
    """``f - g`` for exponential combinations."""
    return add(f, scaled(g, -1.0))


def scaled(combo, z):
    """``z`` times an exponential combination."""
    return ExpCombo([(c * z, mu, s, e) for c, mu, s, e in combo.terms])


def norm_sq(combo):
    """``||u||^2`` by the closed-form inner product."""
    return max(combo.inner(combo).real, 0.0)


def full_gram_window_defects(lambdas, mus, length):
    """``expcalc.window_defects`` with the whole ``(n+1)``-square window Gram
    matrix of ``(exp(mu u), exp(l_1 u), ..., exp(l_n u))`` taken for every
    rate, ``(n+1)^2`` exponential integrals per rate, and the normalizer taken
    once more; the Gauss-Legendre rows and the tail as in the library.

    Returns the values and, per rate, the sum of the moduli of the window
    form's terms over the normalizer: the size that rounding in any
    evaluation of that form is relative to.  It is far above the value where
    the Blaschke residues are large and cancel."""
    lam = np.asarray(lambdas, dtype=complex)
    residues = np.asarray(blaschke_residues(lambdas), dtype=complex)
    mu = np.asarray(mus, dtype=complex).reshape(-1, 1)
    gap = mu - lam
    a = residues / gap

    coeffs = np.concatenate([a.sum(axis=1, keepdims=True), -a], axis=1)
    rates = np.concatenate([mu, np.broadcast_to(lam, gap.shape)], axis=1)
    window_gram = _eint(rates.conj()[:, :, None] + rates[:, None, :], length)
    window = np.einsum("ki,kij,kj->k", coeffs.conj(), window_gram, coeffs).real
    scale = np.einsum("ki,kij,kj->k", np.abs(coeffs), np.abs(window_gram), np.abs(coeffs))

    smooth = (np.abs(gap).max(axis=1, initial=0.0) + np.abs(mu[:, 0].real)) * length <= 4.0
    if np.any(smooth):
        u = length * _GL_NODES
        terms = np.expm1(-gap[smooth][:, :, None] * u)
        vals = np.einsum("kj,kjm->km", a[smooth], terms)
        tilt = np.exp(2.0 * mu[smooth].real * u)
        window[smooth] = length * (np.abs(vals) ** 2 * tilt) @ _GL_WEIGHTS

    q = np.exp(lam * length) * np.expm1(gap * length) / gap
    tail_coeffs = residues * q
    tail_gram = -1.0 / (lam.conj()[:, None] + lam[None, :])
    tail = np.einsum("ki,ij,kj->k", tail_coeffs.conj(), tail_gram, tail_coeffs).real
    norm = _eint(2.0 * mu[:, 0].real, length).real
    return (window + tail) / norm, scale / norm


def basis_combos(basis):
    """The ``g_n = sum_m coeff[m, n] f_m`` of an orthogonalized family as
    exponential combinations, ``f_m = c_m exp(l_m x)`` on the half-line with
    ``c_m = sqrt(-2 Re l_m)``, the terms in ascending ``m``."""
    fs = [ExpCombo.exponential(lam, coeff=np.sqrt(-2.0 * lam.real)) for lam in basis.family.lambdas]
    return [
        add(*(scaled(fs[m], basis.coeff[m, n]) for m in range(n + 1)))
        for n in range(basis.family.size)
    ]


def lapack_coeff(family):
    """``orthogonalize(family).coeff`` through ``scipy.linalg.solve_triangular``
    (LAPACK ``?trtrs``): the inverse of the Cholesky factor of the Gram matrix."""
    low = np.linalg.cholesky(gram_exponentials(family))
    return solve_triangular(low, np.eye(family.size), lower=True).conj().T


def lapack_backward_shift_matrix(basis, t):
    """``backward_shift_matrix(basis, t)``, ``coeff^-1 D coeff``, through
    ``scipy.linalg.solve_triangular``."""
    d = np.diag(np.exp(np.asarray(basis.family.lambdas) * t))
    return solve_triangular(basis.coeff, d @ basis.coeff, lower=False)


def apply_flow(basis, t, u):
    """``V_t u`` for an exponential combination ``u``, exact: the phases
    ``basis.phases(t)`` on span{g_n}, ``S_t`` on the rest."""
    shifted = u
    out = ExpCombo()
    for phase, g in zip(basis.phases(t), basis_combos(basis)):
        c = g.inner(u)
        shifted = subtract(shifted, scaled(g, c))
        out = add(out, scaled(g, phase * c))
    return add(out, shift(shifted, t))


def flow_matrix(model, t):
    """The dense grid ``V_t = S_t + X Y*`` of :meth:`GridModel.flow_lowrank`."""
    x, y = model.flow_lowrank(t)
    return np.eye(model.n, k=-model.steps_of(t), dtype=complex) + x @ y.conj().T


def difference_factors(u, v):
    """Factors ``(a, b)`` with ``u - v = a b*`` of two dilations that share
    their rotation ``P``: ``u - v = P [X_u, -X_v] [Y_u, Y_v]*``."""
    assert (u.shift, u.dim, u.k_dim) == (v.shift, v.dim, v.k_dim)
    return np.roll(np.hstack([u.x, -v.x]), u.shift, axis=0), np.hstack([u.y, v.y])


def direct_unitarity_residual(dil):
    """``DilationOperator.unitarity_residual`` with one direct QR of ``[X, Y]``."""
    k = dil.x.shape[1]
    r = np.linalg.qr(np.hstack([dil.x, dil.y]), mode="r")
    m = np.eye(r.shape[0]) + r[:, :k] @ r[:, k:].conj().T
    return np.linalg.norm(m.conj().T @ m - np.eye(r.shape[0]), 2)


def direct_offspace_deviation(dil):
    """``DilationOperator.offspace_deviation`` with one direct QR of ``Y``."""
    r = np.linalg.qr(dil.y, mode="r")
    rotated = np.roll(dil.x, dil.shift, axis=0)
    return np.linalg.norm(r @ rotated[dil.k_dim :].conj().T, 2)


def direct_approximation_deviation(u, v):
    """``approximation_check``'s deviation of ``U V*`` from the identity on
    ``K' (-) K``, its two block norms each from direct QRs of the factors."""
    l, r = u.product_defect_factors(v)

    def norm(a, b):
        return np.linalg.norm(np.linalg.qr(a, mode="r") @ np.linalg.qr(b, mode="r").conj().T, 2)

    k = u.k_dim
    return max(norm(l[k:], r[k:]), norm(l[:k], r[k:]))


def _dot_weight(r):
    """``(R, (R(1-R))^{1/2})``: floats for an isotropic ``nu``, else matrices."""
    if np.ndim(r) == 0:
        return float(r), np.sqrt(r * (1.0 - r))
    r = CovarianceState(r).r
    return r, psd_sqrt(r @ (np.eye(r.shape[0]) - r))


def dot_weighted_hs_norm(r, x, dtype=None):
    """``bogoliubov.weighted_hs_norm`` with the weight applied by ``np.dot``;
    ``x`` is first cast to ``dtype`` if one is given."""
    _, weight = _dot_weight(r)
    return hs_norm(np.dot(weight, np.asarray(x, dtype=dtype)))


def dot_araki_commutator(r, v_prime, w_prime, dtype=None):
    """``bogoliubov.araki_commutator`` with every product taken by ``np.dot``;
    ``V'`` and ``W'`` are first cast to ``dtype`` if one is given."""
    r, s = _dot_weight(r)
    v = np.asarray(v_prime, dtype=dtype)
    w = np.asarray(w_prime, dtype=dtype)
    blocks = ((v, r, v), (v, s, w), (w, s, v), (w, r, w))
    return hs_norm([hs_norm(np.dot(a, m) - np.dot(m, b)) for a, m, b in blocks])


def one_batch_triangular_factor(a, block_rows):
    """``opalg.triangular_factor`` with all whole blocks of ``block_rows``
    rows in one batched QR, the whole of ``a`` at once."""
    rows, cols = a.shape
    whole = rows // block_rows
    if whole < 2:
        return np.linalg.qr(a, mode="r")
    split = whole * block_rows
    tops = np.linalg.qr(a[:split].reshape(whole, block_rows, cols), mode="r")
    return np.linalg.qr(np.concatenate([*tops, a[split:]]), mode="r")
