import copy
import math
import tracemalloc

import numpy as np
import pytest

from carshift import modular, quasifree
from carshift.opalg import adjoint, operator_norm, polar_antilinear
from dense_modular import dense_blocks, dense_delta, dense_involution, dense_j, dense_s
from oracles import second_quantized

rng = np.random.default_rng(5)


def random_rep(modes, seed):
    """Doubled representation of a random non-isotropic covariance."""
    a = np.random.default_rng(seed).standard_normal((modes, modes))
    w, v = np.linalg.eigh(a + a.T)
    r = (v * (0.15 + 0.7 * (w - w.min()) / np.ptp(w))) @ v.T
    return quasifree.doubled_representation(quasifree.CovarianceState(r))


@pytest.fixture(scope="module")
def rep2():
    return quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))


@pytest.fixture(scope="module")
def data2(rep2):
    return modular.tomita_operator(rep2)


def test_monomial_count():
    assert len(modular.monomial_indices(3)) == 64


def test_tomita_solve_is_tight(data2):
    assert data2.solve_residual <= 1e-10


def test_s_action_on_monomials(rep2, data2):
    # S pi(x) vac = pi(x)* vac for monomials x
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    x = rep2.field_star(e0) @ rep2.field(e1)
    lhs = dense_s(data2) @ np.conj(x @ rep2.vacuum)
    rhs = adjoint(x) @ rep2.vacuum
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_vacuum_fixed(rep2, data2):
    vac = rep2.vacuum
    assert np.linalg.norm(dense_delta(data2) @ vac - vac) <= 1e-10
    assert np.linalg.norm(dense_j(data2) @ np.conj(vac) - vac) <= 1e-10


def test_j_is_antiunitary_involution(data2):
    j = dense_j(data2)
    assert np.linalg.norm(adjoint(j) @ j - np.eye(len(j))) <= 1e-9 * len(j)
    assert operator_norm(j @ np.conj(j) - np.eye(len(j))) <= 1e-9


def test_polar_j_matches_wedge_formula(rep2, data2):
    formula = dense_involution(*modular.modular_involution_formula(rep2))
    assert operator_norm(dense_j(data2) - formula) <= 1e-9


def test_delta_spectrum_powers_of_ratio(data2):
    # nu = 1/4 gives ratio nu/(1-nu) = 1/3
    eigs = np.linalg.eigvalsh(dense_delta(data2))
    eigs = eigs[eigs > 1e-12]
    powers = np.round(np.log(eigs) / np.log(1.0 / 3.0))
    assert np.max(np.abs(eigs - (1.0 / 3.0) ** powers)) <= 1e-8


def test_kms_condition(rep2, data2):
    for _ in range(5):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rep2.field_star(f) @ rep2.field(g)
        y = rep2.field(f) @ rep2.field_star(g)
        assert modular.kms_residual(rep2, data2, x, y) <= 1e-10


def test_kms_residual_of_modular_verify_fails_without_delta():
    # x = pi(a*(f)) has charge 1, where Delta = nu / (1 - nu) = 1/3, so an
    # all-identity Delta breaks the identity modular-verify checks
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 3))
    data = modular.tomita_operator(rep)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x, y = rep.field_star(f), rep.field(g)
    assert modular.kms_residual(rep, data, x, y) <= 1e-14
    identity = copy.copy(data)
    identity.delta = {q: np.eye(len(block)) for q, block in data.delta.items()}
    assert modular.kms_residual(rep, identity, x, y) > 1e-2 * np.linalg.norm(f) * np.linalg.norm(g)


def test_commutant_generators_commute(rep2):
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = modular.commutant_generator(rep2, f)
    for x in (rep2.field(g), rep2.field_star(g)):
        assert operator_norm((x @ b - b @ x).toarray()) <= 1e-12


def test_j_conjugation_lands_in_commutant(rep2, data2):
    # J pi(a(f+0)) J = -b*(f); the sign is fixed by the polar J
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = dense_blocks(data2, modular.conjugate_by(data2, rep2.field(f)))
    rhs = -adjoint(modular.commutant_generator(rep2, f)).toarray()
    assert operator_norm(lhs - rhs) <= 1e-10


def test_non_cyclic_vacuum_rejected():
    # R with an eigenvalue at the edge is rejected before we ever get here;
    # force the degenerate path with a nearly singular covariance instead
    # (monomial condition about 1.9e10, above 1 / RANK_TOL).
    state = quasifree.CovarianceState(np.diag([1e-20, 0.5]) + (1e-20) * np.eye(2))
    rep = quasifree.doubled_representation(state)
    with pytest.raises(ValueError, match="cyclic"):
        modular.tomita_operator(rep)


@pytest.mark.parametrize("modes", [2, 3])
def test_delta_matches_closed_form(modes):
    # Delta = Gamma(h) (x) Gamma(h^{-1}) with h = R (1-R)^{-1}, Gamma the
    # multiplicative second quantization (Peschel, J. Phys. A 36 (2003) L205)
    rep = random_rep(modes, seed=modes)
    data = modular.tomita_operator(rep)
    r = rep.state.r
    h = r @ np.linalg.inv(np.eye(modes) - r)
    want = quasifree.tensor(
        second_quantized(rep.factor, h), second_quantized(rep.factor, np.linalg.inv(h))
    )
    assert operator_norm(dense_delta(data) - want) <= 1e-12 * operator_norm(want)


def _dense_monomial_columns(rep):
    # every column multiplied out factor by factor: x = a*(e_I) a(e_J), both
    # products in increasing index order, and x* with the factors reversed
    n = rep.n
    create = [rep.field_star(np.eye(n)[i]) for i in range(n)]
    annihilate = [rep.field(np.eye(n)[i]) for i in range(n)]
    pairs = modular.monomial_indices(n)
    x_cols = np.empty((rep.dim, len(pairs)), dtype=complex)
    xstar_cols = np.empty((rep.dim, len(pairs)), dtype=complex)
    for k, (i_set, j_set) in enumerate(pairs):
        factors = [create[i] for i in i_set] + [annihilate[j] for j in j_set]
        v, w = rep.vacuum, rep.vacuum
        for op in reversed(factors):
            v = op @ v
        for op in factors:
            w = adjoint(op) @ w
        x_cols[:, k], xstar_cols[:, k] = v, w
    return x_cols, xstar_cols


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_sector_solve_matches_dense_solve(modes):
    # the full monomial system, solved and polar-decomposed as one matrix
    rep = random_rep(modes, seed=10 + modes)
    data = modular.tomita_operator(rep)
    x_cols, xstar_cols = _dense_monomial_columns(rep)
    m = np.linalg.solve(np.conj(x_cols).T, xstar_cols.T).T
    _, delta, eigenvalues = polar_antilinear(m)
    # J from the SVD conj(m) = U s V*, J = conj(U V*): the eigh of Delta in
    # polar_antilinear squares the condition number of the full matrix and
    # is 1.2e-12 off the wedge formula at 4 modes, the SVD 1.8e-14
    u, _, vh = np.linalg.svd(np.conj(m))
    assert operator_norm(dense_s(data) - m) <= 1e-12 * operator_norm(m)
    assert operator_norm(dense_j(data) - np.conj(u @ vh)) <= 1e-12
    assert operator_norm(dense_delta(data) - delta) <= 1e-12 * operator_norm(delta)
    sector_eigenvalues = np.sort(np.concatenate(list(data.delta_eigenvalues.values())))
    assert np.max(np.abs(sector_eigenvalues - eigenvalues)) <= 1e-12 * eigenvalues[-1]


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_sector_columns_match_the_multiplied_out_columns(modes):
    rep = random_rep(modes, seed=20 + modes)
    sectors = modular._sectors(rep.charge)
    x_blocks, xstar_blocks = modular._monomial_columns(rep, sectors)
    x_cols, xstar_cols = _dense_monomial_columns(rep)
    charge = np.array([len(i) - len(j) for i, j in modular.monomial_indices(modes)])
    for q, rows in sectors.items():
        cols = np.flatnonzero(charge == q)
        assert np.allclose(x_blocks[q], x_cols[np.ix_(rows, cols)], rtol=0, atol=1e-14)
        image = sectors[-q]
        assert np.allclose(xstar_blocks[q], xstar_cols[np.ix_(image, cols)], rtol=0, atol=1e-14)
        outside = np.setdiff1d(np.arange(rep.dim), rows)
        assert not np.any(x_cols[np.ix_(outside, cols)])


@pytest.mark.parametrize("modes", [2, 3])
def test_conjugate_by_matches_the_dense_product(modes):
    rep = random_rep(modes, seed=30 + modes)
    data = modular.tomita_operator(rep)
    j = dense_j(data)
    f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    for x in (rep.field(f), rep.field_star(f), rep.field_star(f) @ rep.field(f)):
        want = j @ np.conj(x.toarray()) @ np.conj(j)
        got = dense_blocks(data, modular.conjugate_by(data, x))
        assert operator_norm(got - want) <= 1e-12 * max(operator_norm(want), 1.0)


def test_kms_condition_on_a_general_state():
    rep = random_rep(3, seed=41)
    data = modular.tomita_operator(rep)
    for _ in range(3):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rep.field_star(f) @ rep.field(g)
        y = rep.field(f) @ rep.field_star(g)
        assert modular.kms_residual(rep, data, x, y) <= 1e-10
        # the same identity with Delta dropped fails on this state
        vac = rep.vacuum
        assert abs(np.vdot(vac, x @ (y @ vac)) - np.vdot(vac, y @ (x @ vac))) > 1e-3


def test_involution_blocks_refuse_a_map_that_keeps_the_charge():
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    data = modular.tomita_operator(rep)
    with pytest.raises(ValueError, match="sector"):
        modular.involution_blocks(data, np.arange(rep.dim), np.ones(rep.dim))


def test_tomita_operator_stays_below_one_dense_operator():
    # at 5 modes one dense 1024 x 1024 complex matrix is 16 MiB
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 5))
    tracemalloc.start()
    try:
        modular.tomita_operator(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rep.dim * rep.dim * 16


def test_monomial_columns_hold_one_word_family():
    # the x blocks and their signed copies, the x* blocks, are two block sets
    # of C(4n, 2n) complex entries; a second family of word vectors, the x*
    # multiplied out on their own, would push the peak past three
    modes = 5
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes))
    sectors = modular._sectors(rep.charge)
    tracemalloc.start()
    try:
        modular._monomial_columns(rep, sectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * math.comb(4 * modes, 2 * modes) * 16


def test_strongly_mixed_state_keeps_j_antiunitary():
    # nu = 0.01 at 3 modes: Delta spans 99^3 to 99^-3, wider than 1/rank_tol,
    # but within each charge sector Delta is the scalar 99^(-q)
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.01, 3))
    data = modular.tomita_operator(rep)
    j = dense_j(data)
    assert np.linalg.norm(adjoint(j) @ j - np.eye(len(j))) <= 1e-9 * len(j)
    formula = dense_involution(*modular.modular_involution_formula(rep))
    assert operator_norm(dense_j(data) - formula) <= 1e-9


def _loop_involution_formula(rep):
    # the closed form entry by entry: J swaps the factors, reversing each wedge
    d = rep.factor.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for b1 in range(d):
        k1 = b1.bit_count()
        s1 = -1.0 if (k1 * (k1 - 1) // 2) & 1 else 1.0
        for b2 in range(d):
            k2 = b2.bit_count()
            s2 = -1.0 if (k2 * (k2 - 1) // 2) & 1 else 1.0
            m[b1 * d + b2, b2 * d + b1] = s1 * s2
    return m


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_involution_formula_matches_the_loop_definition(modes):
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes))
    got = dense_involution(*modular.modular_involution_formula(rep))
    assert np.array_equal(got, _loop_involution_formula(rep))


def test_columns_outside_their_charge_sector_rejected():
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    rep.charge = rep.charge[::-1].copy()
    with pytest.raises(ValueError, match="charge"):
        modular.tomita_operator(rep)
