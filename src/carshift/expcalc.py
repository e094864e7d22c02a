"""Closed-form calculus for finite combinations of windowed exponentials.

An :class:`ExpCombo` is a finite sum of terms ``c * exp(mu*(x - s))`` supported
on ``(s, e)`` with ``e = inf`` allowed when ``Re mu < 0``.  The class is closed
under the operations needed by the shift-semigroup machinery -- translation,
backward translation, windowing, reversal, and multiplication on the Laplace
side by a Blaschke product (a Volterra convolution) -- so every inner product
is evaluated exactly, without quadrature.
"""

import cmath

import numpy as np

_DROP = 1e-300


def _eint(rho, length):
    """``int_0^length exp(rho * u) du`` with ``length = inf`` allowed."""
    if length == np.inf:
        if rho.real >= 0:
            raise ValueError("divergent exponential integral")
        return -1.0 / rho
    z = rho * length
    if abs(z) < 1e-6:
        # series for (exp(z) - 1)/rho, stable near rho = 0
        return length * (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0)
    return (cmath.exp(z) - 1.0) / rho


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
        return cls([(1.0 / np.sqrt(nrm2), mu, start, end)])

    def __add__(self, other):
        return ExpCombo(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z):
        return ExpCombo([(c * z, mu, s, e) for c, mu, s, e in self.terms])

    def shift(self, t):
        """Forward translation ``(S_t u)(x) = u(x - t)`` (``t >= 0``)."""
        return ExpCombo([(c, mu, s + t, e + t) for c, mu, s, e in self.terms])

    def backshift(self, t):
        """Backward translation ``(S_t* u)(x) = u(x + t)`` restricted to x > 0."""
        out = []
        for c, mu, s, e in self.terms:
            s2 = max(s - t, 0.0)
            e2 = e - t
            if e2 > 0:
                out.append((c * cmath.exp(mu * (s2 + t - s)), mu, s2, e2))
        return ExpCombo(out)

    def window(self, lo, hi=np.inf):
        """Restriction to the interval ``(lo, hi)``."""
        out = []
        for c, mu, s, e in self.terms:
            s2 = max(s, lo)
            e2 = min(e, hi)
            if e2 > s2:
                out.append((c * cmath.exp(mu * (s2 - s)), mu, s2, e2))
        return ExpCombo(out)

    def inner(self, other):
        """L2 inner product, antilinear in ``self``."""
        total = 0.0 + 0.0j
        for c1, m1, s1, e1 in self.terms:
            for c2, m2, s2, e2 in other.terms:
                lo = max(s1, s2)
                hi = min(e1, e2)
                if hi <= lo:
                    continue
                rho = m1.conjugate() + m2
                pre = c1.conjugate() * c2
                pre *= cmath.exp(m1.conjugate() * (lo - s1) + m2 * (lo - s2))
                total += pre * _eint(rho, hi - lo)
        return total

    def norm_sq(self):
        return max(self.inner(self).real, 0.0)

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def evaluate(self, x):
        """Pointwise values (for quadrature oracles in tests)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for c, mu, s, e in self.terms:
            mask = (x > s) & (x < e)
            out[mask] += c * np.exp(mu * (x[mask] - s))
        return out

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
