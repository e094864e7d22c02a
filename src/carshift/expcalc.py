"""Closed-form calculus for finite combinations of windowed exponentials.

An :class:`ExpCombo` is a finite sum of terms ``c * exp(mu*(x - s))`` supported
on ``(s, e)`` with ``e = inf`` allowed when ``Re mu < 0``.  The class is closed
under multiplication on the Laplace side by a Blaschke product (a Volterra
convolution, :func:`theta_apply`), and every inner product is evaluated
exactly, without quadrature.

:func:`window_defects` evaluates ``||(Theta - 1) f_k||^2`` for many window
exponentials ``f_k`` at once from the same closed forms, as array expressions;
``ExpCombo`` is its term-by-term oracle.  The frequency of ``f_k`` is a whole
number ``k`` of periods of the window, so ``exp(mu_k length)`` is real and
every boundary factor splits into a per-rate and a per-exponent factor: the
closed form takes no transcendental function per (rate, exponent) pair, only
multiply-adds and two divisions, and its values are those of the mode at the
exact frequency ``2 pi k / length``.
"""

import cmath

import numpy as np

_DROP = 1e-300

# 16-point Gauss-Legendre rule on (0, 1): integrates exp(z t), |z| <= 10, to
# a few ulps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = (_GL_NODES + 1.0) / 2.0
_GL_WEIGHTS = _GL_WEIGHTS / 2.0


def _eint(rho, length):
    """``int_0^length exp(rho * u) du``, elementwise over ``rho`` and
    ``length``; ``length = inf`` is allowed where ``Re rho < 0``.

    Evaluated as ``expm1(z) / rho``, ``z = rho * length``, accurate to a few
    ulps for small and large ``z`` alike.  Below ``|z| = 1e-8`` it is
    ``length * (1 + z/2)``, exact to rounding there, which gives ``length`` at
    ``rho = 0`` and divides by no tiny ``rho``.
    """
    rho, length = np.broadcast_arrays(np.asarray(rho, dtype=complex), np.asarray(length, dtype=float))
    half_line = length == np.inf
    if np.any(rho.real[half_line] >= 0):
        raise ValueError("divergent exponential integral")
    z = rho * np.where(half_line, 0.0, length)
    small = (np.abs(z) < 1e-8) & ~half_line
    out = np.expm1(z, out=np.empty(rho.shape, dtype=complex))
    np.divide(out, rho, out=out, where=~small)
    out[small] = length[small] * (1.0 + z[small] / 2.0)
    out[half_line] = -1.0 / rho[half_line]
    return out[()]


class ExpCombo:
    """Finite combination of exponential terms ``(coeff, rate, start, end)``."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = []
        for c, mu, s, e in terms:
            c = complex(c)
            mu = complex(mu)
            s = float(s)
            e = float(e)
            if e <= s or abs(c) < _DROP:
                continue
            if e == np.inf and mu.real >= 0:
                raise ValueError("unbounded support requires Re(rate) < 0")
            self.terms.append((c, mu, s, e))

    @classmethod
    def exponential(cls, mu, start=0.0, end=np.inf, coeff=1.0):
        return cls([(coeff, mu, start, end)])

    @classmethod
    def normalized_exponential(cls, mu, start=0.0, end=np.inf):
        """Unit L2-norm exponential ``~ exp(mu*(x-start))`` on ``(start, end)``."""
        length = end - start
        nrm2 = _eint(complex(2 * complex(mu).real), length).real
        return cls.exponential(mu, start, end, coeff=1.0 / np.sqrt(nrm2))

    def inner(self, other):
        """L2 inner product, antilinear in ``self``, over all overlapping
        term pairs at once."""
        if not self.terms or not other.terms:
            return 0j
        c1, m1, s1, e1 = (np.array(col) for col in zip(*self.terms))
        c2, m2, s2, e2 = (np.array(col) for col in zip(*other.terms))
        i, j = np.nonzero(np.minimum.outer(e1, e2) > np.maximum.outer(s1, s2))
        lo, hi = np.maximum(s1[i], s2[j]), np.minimum(e1[i], e2[j])
        m1c = m1[i].conj()
        pre = c1[i].conj() * c2[j] * np.exp(m1c * (lo - s1[i]) + m2[j] * (lo - s2[j]))
        return complex(np.sum(pre * _eint(m1c + m2[j], hi - lo)))

    def compress(self):
        """Merge terms sharing (rate, support); merged coefficients that
        cancel are dropped by the constructor."""
        acc = {}
        for c, mu, s, e in self.terms:
            key = (mu, s, e)
            acc[key] = acc.get(key, 0.0) + c
        return ExpCombo([(c, mu, s, e) for (mu, s, e), c in acc.items()])


def blaschke_residues(lambdas):
    """Residues of ``B(z) = prod (z + conj(l_k))/(z - l_k)`` at its poles."""
    lambdas = [complex(l) for l in lambdas]
    res = []
    for k, lk in enumerate(lambdas):
        r = lk + lk.conjugate()
        for j, lj in enumerate(lambdas):
            if j != k:
                r *= (lk + lj.conjugate()) / (lk - lj)
        res.append(r)
    return res


def _volterra(term, lam):
    """Convolution of one term with ``exp(lam * x)`` on the half-line.

    ``(E u)(x) = int_0^x exp(lam*(x-y)) u(y) dy``; the result stays in the
    exponential class.  Requires the term rate to differ from ``lam``.
    """
    c, mu, s, e = term
    if abs(mu - lam) < 1e-12 * max(1.0, abs(lam)):
        raise ValueError("input exponent collides with a Blaschke pole")
    d = c / (mu - lam)
    out = [(d, mu, s, e), (-d, lam, s, e)]
    if e != np.inf:
        q = (cmath.exp(mu * (e - s)) - cmath.exp(lam * (e - s))) / (mu - lam)
        out.append((c * q, lam, e, np.inf))
    return out


def theta_apply(lambdas, combo):
    """Multiplication by the Blaschke product on the Laplace-transform side.

    ``Theta = 1 + sum_k r_k E_k`` with ``E_k`` the Volterra convolution with
    ``exp(l_k x)`` and ``r_k`` the residue of ``B`` at ``l_k``.  Exact on the
    exponential class.
    """
    residues = blaschke_residues(lambdas)
    terms = list(combo.terms)
    for lam, r in zip((complex(l) for l in lambdas), residues):
        for term in combo.terms:
            terms.extend((c * r, mu, s, e) for c, mu, s, e in _volterra(term, lam))
    return ExpCombo(terms).compress()


def window_exponent(k, delta):
    """``mu_{k,delta} = -1/(2|k|) + 2 pi i k / delta`` (``mu_0 = -1/2``),
    elementwise over an array ``k``."""
    k = np.asarray(k)
    return (-0.5 / np.maximum(np.abs(k), 1) + 1j * (2.0 * np.pi * k / delta))[()]


def window_defects(lambdas, ks, length):
    """``||(Theta - 1) f_k||^2`` for the unit-norm window exponentials
    ``f_k = c exp(mu_k u)`` on ``(0, length)``, ``mu_k = window_exponent(k,
    length)``, one value per integer frequency in ``ks``.

    With ``a_j = r_j/(mu - l_j)`` (so ``c_0 = sum_j a_j = B(mu) - 1``),
    ``(Theta - 1) f`` is ``c sum_j a_j (exp(mu u) - exp(l_j u))`` on the window
    and ``c sum_j r_j q_j exp(l_j (u - length))`` after it, where
    ``q_j = (exp(mu length) - exp(l_j length))/(mu - l_j)``.  Over the window
    it is the Hermitian form of the ``(n+1)``-square Gram matrix of
    ``(exp(mu u), exp(l_1 u), ..., exp(l_n u))`` in ``(c_0, -a_1, ..., -a_n)``:
    ``|c_0|^2 norm - 2 Re(conj(c_0) sum_j cross_j a_j) + a^* inner a``, with
    ``norm = int |exp(mu u)|^2`` (which also normalizes ``f``),
    ``cross_j = int exp((conj(mu) + l_j) u)`` and the ``n``-square
    ``inner = _eint(conj(l_i) + l_j)`` taken once for all rates.  The tail part
    is the ``n``-square form with the half-line Gram matrix
    ``-1/(conj(l_i) + l_j)``.

    The frequency ``Im mu_k = 2 pi k / length`` is a whole number of periods
    of the window, so ``exp(mu_k length) = exp(s_k)`` with the real
    ``s_k = Re(mu_k) length``.  With ``w_j = l_j length`` every boundary
    factor is then a product of per-rate and per-exponent factors:
    ``cross_j = (expm1 s_k + exp(s_k) expm1 w_j)/(conj(mu_k) + l_j)``,
    ``r_j q_j = a_j (expm1 s_k - expm1 w_j)`` and
    ``norm = expm1(2 s_k)/(2 Re mu_k)``, with
    ``expm1(2 s) = expm1(s) (exp(s) + 1)``.  That is two real transcendentals
    per rate and one complex ``expm1`` per exponent; each (exponent, rate)
    pair costs multiply-adds and two divisions, on ``(n, K)`` arrays whose
    sums over exponents are row adds.  The values are those of the mode at
    the exact frequency: outside the Gauss-Legendre rows below, where
    ``|mu - l_j| length <= 4``, no ``2 pi k`` is rounded into an exponent.

    When the window exponentials nearly coincide (every ``|mu - l_j| length``
    small) the closed form cancels to ``~(|mu - l_j| length)^2`` of its terms,
    and ``expm1 s_k - expm1 w_j`` to ``|mu - l_j| length``.  So wherever the
    window integrand is smooth, ``(max_j |mu - l_j| + |Re mu|) length <= 4``,
    the window part is instead the Gauss-Legendre sum of
    ``|c sum_j a_j expm1((l_j - mu) u)|^2 exp(2 Re(mu) u)``, whose exponents
    are then at most 8 in size, and ``r_j q_j`` is that integrand's term at
    ``u = length``, ``-exp(s_k) a_j expm1((l_j - mu) length)``.
    """
    lam = np.asarray(lambdas, dtype=complex)[:, None]
    residues = np.asarray(blaschke_residues(lambdas), dtype=complex)[:, None]
    mu = window_exponent(ks, length)
    gap = mu - lam
    dist = np.abs(gap)
    if np.any(dist < 1e-12 * np.maximum(1.0, np.abs(lam))):
        raise ValueError("input exponent collides with a Blaschke pole")
    a = residues / gap

    sigma = mu.real
    s = sigma * length
    em_s, e_s = np.expm1(s), np.exp(s)
    em_w = np.expm1(lam * length)
    norm = em_s * (e_s + 1.0) / (2.0 * sigma)
    cross = (em_s + e_s * em_w) / (mu.conj() + lam)
    c0 = a.sum(axis=0)
    window = (
        (c0.real ** 2 + c0.imag ** 2) * norm
        - 2.0 * (c0.conj() * (cross * a).sum(axis=0)).real
        + _form(_eint(lam.conj() + lam.T, length), a)
    )
    tail_coeffs = a * (em_s - em_w)

    smooth = (dist.max(axis=0, initial=0.0) + np.abs(sigma)) * length <= 4.0
    if np.any(smooth):
        u = length * _GL_NODES
        terms = np.expm1(-gap[:, smooth, None] * np.append(u, length))
        vals = np.einsum("jk,jkm->km", a[:, smooth], terms[:, :, :-1])
        tilt = np.exp(2.0 * sigma[smooth, None] * u)
        window[smooth] = length * (np.abs(vals) ** 2 * tilt) @ _GL_WEIGHTS
        tail_coeffs[:, smooth] = -e_s[smooth] * a[:, smooth] * terms[:, :, -1]

    tail = _form(_eint(lam.conj() + lam.T, np.inf), tail_coeffs)
    return (window + tail) / norm


def _form(gram, x):
    """``Re sum_ij conj(x_i) gram_ij x_j`` per column of ``x``."""
    y = gram @ x
    return (x.real * y.real + x.imag * y.imag).sum(axis=0)
