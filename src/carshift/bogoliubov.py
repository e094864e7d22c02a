"""Hilbert-Schmidt convergence criteria for Bogoliubov endomorphisms.

An isometry ``V`` on the one-particle space commuting with the covariance
lifts to an endomorphism of the CAR algebra.  Whether two such liftings are
inner, extend or are cocycle conjugate is decided on the one-particle
operators; no Fock-space implementer is formed.

The criteria below all reduce to Hilbert-Schmidt norms of the form
``||R^{1/2}(1-R)^{1/2} X||_2`` evaluated along truncation sizes, with a fixed
verdict policy:

* ``converges`` -- the values stabilize (increments vanish numerically) or the
  log-log fit of the increments has exponent below -0.5;
* ``diverges``  -- otherwise, if the log-log fit of the values has
  nonnegative exponent;
* ``inconclusive`` -- anything else.
"""

from dataclasses import dataclass

import numpy as np

from .hardyshift import DilationOperator, fit_power
from .opalg import (
    adjoint,
    hs_norm,
    lowrank_hs_norm,
    lowrank_operator_norm,
    operator_norm,
    psd_sqrt,
)
from .quasifree import CovarianceState

_STAB_TOL = 1e-12
_UNITARY_TOL = 1e-8


@dataclass
class CriterionReport:
    sizes: list
    values: list
    verdict: str
    increment_exponent: float | None = None
    value_exponent: float | None = None


def fit_verdict(sizes, values):
    """Apply the convergence verdict policy to values along truncation sizes.

    Returns ``(verdict, increment_exponent, value_exponent)``; an exponent is
    ``None`` where the branch taken fits none.  Known miss: a
    bounded sequence whose increments decay slower than ``n^(-1/2)`` is
    labelled "diverges", e.g. ``1 - n^(-1/4)`` on sizes 4..64 (increment
    exponent -0.25).
    """
    sizes = [float(s) for s in sizes]
    values = [float(v) for v in values]
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need at least two truncation sizes")
    scale = max(max(values), 1.0)
    if max(values) <= _STAB_TOL:
        return "converges", None, None
    incs = [abs(values[k + 1] - values[k]) for k in range(len(values) - 1)]
    # rounding noise of repeated dense HS norms sits well above 1e-12
    if max(incs) <= 1e-9 * scale:
        return "converges", None, fit_power(sizes, np.maximum(values, 1e-300))
    pos = [(s, d) for s, d in zip(sizes[1:], incs) if d > _STAB_TOL * scale]
    val_slope = fit_power(sizes, np.maximum(values, 1e-300))
    if len(pos) < 2:
        # increments mostly below the noise floor: the tail has stabilized
        return "converges", None, val_slope
    inc_slope = fit_power([s for s, _ in pos], [d for _, d in pos])
    if inc_slope < -0.5:
        return "converges", inc_slope, val_slope
    if val_slope >= -1e-9:
        return "diverges", inc_slope, val_slope
    return "inconclusive", inc_slope, val_slope


def _trend(sizes, value_at):
    """``value_at(n)`` along ``sizes`` and its verdict, as a :class:`CriterionReport`."""
    values = [value_at(n) for n in sizes]
    verdict, inc_e, val_e = fit_verdict(sizes, values)
    return CriterionReport(list(sizes), values, verdict, inc_e, val_e)


def _covariance(r, size):
    """The isotropic ``nu`` as a float, or the matrix of a callable rule."""
    return np.asarray(r(size), dtype=float) if callable(r) else float(r)


def _weight(r):
    """``(R, S)``, ``S = (R(1-R))^{1/2}``, in the form the covariance came in:
    the floats ``(nu, sqrt(nu(1-nu)))`` of an isotropic ``nu`` in ``(0, 1)``,
    or a matrix ``R`` validated by :class:`CovarianceState` and the
    :func:`psd_sqrt` of ``R(1-R)``; anything else is a ``ValueError``.
    ``np.dot`` with either form is a scalar multiply or a matrix product.
    """
    if np.ndim(r) == 0:
        nu = float(r)
        if not 0.0 < nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {nu}")
        return nu, np.sqrt(nu * (1.0 - nu))
    r = CovarianceState(r).r
    return r, psd_sqrt(r @ (np.eye(r.shape[0]) - r))


def weighted_hs_norm(r, x):
    """``||R^{1/2}(1-R)^{1/2} X||_2``.

    ``r`` is an isotropic ``nu`` (a float in ``(0, 1)``; the weight stays
    the scalar ``sqrt(nu(1-nu))``) or a covariance matrix with spectrum in
    ``(0, 1)``; anything else is a ``ValueError``.
    ``x`` is a dense matrix or a pair of factors ``(a, b)`` with ``X = a b*``;
    the factored norm is ``sqrt(tr((a* W^2 a)(b* b)))``.
    """
    _, weight = _weight(r)
    if isinstance(x, tuple):
        a, b = x
        return lowrank_hs_norm(np.dot(weight, a), b)
    return hs_norm(np.dot(weight, np.asarray(x, dtype=complex)))


def _check_unitary(v, label):
    """``v`` (a :class:`DilationOperator` or a dense matrix) if
    ``||v*v - 1|| <= 1e-8``."""
    if isinstance(v, DilationOperator):
        resid = v.unitarity_residual()
    else:
        v = np.asarray(v, dtype=complex)
        resid = operator_norm(adjoint(v) @ v - np.eye(v.shape[0]))
    if resid > _UNITARY_TOL:
        raise ValueError(f"{label} is not an isometry at tolerance {_UNITARY_TOL:g}")
    return v


def _difference(u, v):
    """``u - v``: the factors ``(a, b)`` with ``u - v = a b*`` when both are
    dilations (sharing a permutation), the dense matrix when both are dense;
    mixing forms is an error."""
    factored = [isinstance(op, DilationOperator) for op in (u, v)]
    if factored[0] != factored[1]:
        raise TypeError("operands must both be DilationOperators or both dense")
    if factored[0]:
        return u.difference_factors(v)
    return np.asarray(u, dtype=complex) - np.asarray(v, dtype=complex)


def innerness_norm(r, w, sizes):
    """Innerness criterion: ``||R^{1/2}(1-R)^{1/2}(W - 1)||_2`` trend.

    ``r`` is a float nu or a callable ``size -> covariance matrix``, ``w`` a
    callable ``size -> matrix``.  Returns a :class:`CriterionReport` whose
    verdict states whether the lifting is asymptotically inner (converges).
    """
    return extension_criterion(r, w, np.eye, sizes)


def extension_criterion(r_prime, v_prime, w_prime, sizes):
    """Extension criterion on the enlarged space:
    ``||R'^{1/2}(1-R')^{1/2}(V' - W')||_2`` trend over truncations.

    ``v_prime`` and ``w_prime`` are callables ``size -> operator``, both dense
    matrices or both dilations (:class:`DilationOperator`) sharing a
    permutation; dilations are never densified.
    """
    return _trend(
        sizes,
        lambda n: weighted_hs_norm(_covariance(r_prime, n), _difference(v_prime(n), w_prime(n))),
    )


def araki_commutator(r, v_prime, w_prime):
    """``||diag(V', W') P - P diag(V', W')||_2`` for the purification projection
    ``P = [[R, S], [S, 1-R]]``, ``S = (R(1-R))^{1/2}``, of the covariance ``r``
    (an isotropic ``nu`` or a matrix, see :func:`_weight`).

    The commutator is taken block by block, without forming ``P`` or
    ``diag(V', W')``: its four ``n x n`` blocks are ``[V', R]``,
    ``V'S - SW'``, ``W'S - SV'`` and ``[W', 1-R] = -[W', R]``, each of the
    form ``A M - M B``.
    """
    r, s = _weight(r)
    v = np.asarray(v_prime, dtype=complex)
    w = np.asarray(w_prime, dtype=complex)
    blocks = ((v, r, v), (v, s, w), (w, s, v), (w, r, w))
    return hs_norm([hs_norm(np.dot(a, m) - np.dot(m, b)) for a, m, b in blocks])


def araki_criterion(r_prime, v_prime, w_prime, sizes):
    """Truncation trend of the purification commutator norm (cross-check of
    :func:`extension_criterion`)."""
    return _trend(
        sizes, lambda n: araki_commutator(_covariance(r_prime, n), v_prime(n), w_prime(n))
    )


def conjugacy_criterion(r, u_path, v_path, t_grid, sizes):
    """Conjugacy criterion: for each ``t`` the :func:`extension_criterion`
    trend of ``||R^{1/2}(1-R)^{1/2}(U_t - V_t)||_2``.

    ``u_path`` and ``v_path`` are callables ``(t, size) -> unitary``, where a
    unitary is a dense matrix or a :class:`DilationOperator`; two dilations
    must share their permutation and are never densified.  Returns an
    overall verdict (worst case over the grid) plus per-t reports.
    """
    per_t = {}
    order = {"converges": 0, "inconclusive": 1, "diverges": 2}
    worst = "converges"
    for t in t_grid:
        report = per_t[float(t)] = extension_criterion(
            r,
            lambda n: _check_unitary(u_path(t, n), label=f"U_{t}"),
            lambda n: _check_unitary(v_path(t, n), label=f"V_{t}"),
            sizes,
        )
        if order[report.verdict] > order[worst]:
            worst = report.verdict
    return worst, per_t


def approximation_check(u_dil, v_dil, k_dim, t_grid, tol=1e-10):
    """Check the two approximation conditions for unitary dilations.

    ``u_dil``/``v_dil``: callables ``t -> unitary`` on the doubled grid space,
    dilations (:class:`DilationOperator`) that share a permutation; ``k_dim``:
    dimension of the embedded subspace ``K`` (first block of coordinates).
    For each ``t`` reports the Hilbert-Schmidt norm of ``U'_t - V'_t`` and
    the operator-norm deviation of ``U'_t V'_t*`` from the identity on
    ``K' (-) K``: the larger of the norms of its diagonal block minus 1 and of
    the mixed block ``K' -> K``.  Passes when all deviations are below
    ``tol``; the HS norms are reported, not bounded.
    """
    rows = []
    ok = True
    for t in t_grid:
        ut, vt = u_dil(t), v_dil(t)
        hs = lowrank_hs_norm(*ut.difference_factors(vt))
        # U V* - 1 = l r*, so each block is a product of row blocks
        l, r = ut.product_defect_factors(vt)
        block = lowrank_operator_norm(l[k_dim:], r[k_dim:])
        mixed = lowrank_operator_norm(l[:k_dim], r[k_dim:])
        dev = max(block, mixed)
        rows.append({"t": float(t), "hs_norm": hs, "offspace_deviation": dev})
        if dev > tol:
            ok = False
    return {"pass": ok, "rows": rows}
