"""Reference implementations that tests compare the library's closed forms with."""

import cmath

import numpy as np
from scipy import integrate

from carshift import fock
from carshift.expcalc import ExpCombo


def wedge_vector(space, vectors):
    """``f_1 ^ ... ^ f_k`` realized as ``a*(f_1) ... a*(f_k) vacuum``."""
    v = fock.vacuum(space)
    for f in reversed(list(vectors)):
        v = fock.sparse_annihilator(space, f).conj().T @ v
    return v


def second_quantized(space, v):
    """Multiplicative second quantization of a one-particle matrix ``v``:
    ``f_1 ^ ... ^ f_k -> (v f_1) ^ ... ^ (v f_k)``."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for b in range(space.dim):
        out[:, b] = wedge_vector(space, [v[:, i] for i in range(space.modes) if b >> i & 1])
    return out


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


def backshift(combo, t):
    """Backward translation ``(S_t* u)(x) = u(x + t)`` restricted to x > 0."""
    out = []
    for c, mu, s, e in combo.terms:
        s2 = max(s - t, 0.0)
        e2 = e - t
        if e2 > 0:
            out.append((c * cmath.exp(mu * (s2 + t - s)), mu, s2, e2))
    return ExpCombo(out)


def apply_flow(basis, t, u):
    """``V_t u`` for an exponential combination ``u``, exact: the phases
    ``basis.phases(t)`` on span{g_n}, ``S_t`` on the rest."""
    shifted = u
    out = ExpCombo()
    for phase, g in zip(basis.phases(t), basis.g_combos):
        c = g.inner(u)
        shifted = shifted - g.scaled(c)
        out = out + g.scaled(phase * c)
    return out + shifted.shift(t)


def flow_matrix(model, t):
    """The dense grid ``V_t = S_t + X Y*`` of :meth:`GridModel.flow_lowrank`."""
    x, y = model.flow_lowrank(t)
    return np.eye(model.n, k=-model.steps_of(t), dtype=complex) + x @ y.conj().T
