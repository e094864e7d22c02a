import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from carshift import modular, quasifree
from carshift.opalg import adjoint, operator_norm, polar_antilinear, sector_operator_norm
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
    lhs = data2.s.toarray() @ np.conj(x @ rep2.vacuum)
    rhs = adjoint(x) @ rep2.vacuum
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_vacuum_fixed(rep2, data2):
    vac = rep2.vacuum
    assert np.linalg.norm(data2.delta.toarray() @ vac - vac) <= 1e-10
    assert np.linalg.norm(data2.j.toarray() @ np.conj(vac) - vac) <= 1e-10


def test_j_is_antiunitary_involution(data2):
    j = data2.j.toarray()
    assert np.linalg.norm(adjoint(j) @ j - np.eye(len(j))) <= 1e-9 * len(j)
    assert operator_norm(j @ np.conj(j) - np.eye(len(j))) <= 1e-9


def test_polar_j_matches_wedge_formula(rep2, data2):
    formula = modular.modular_involution_formula(rep2).toarray()
    assert operator_norm(data2.j.toarray() - formula) <= 1e-9


def test_delta_spectrum_powers_of_ratio(data2):
    # nu = 1/4 gives ratio nu/(1-nu) = 1/3
    eigs = np.linalg.eigvalsh(data2.delta.toarray())
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
    identity.delta = sparse.eye_array(rep.dim, format="csr")
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
    lhs = modular.conjugate_by(data2, rep2.field(f)).toarray()
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
    assert operator_norm(data.delta.toarray() - want) <= 1e-12 * operator_norm(want)


@pytest.mark.parametrize("modes", [2, 3])
def test_a_general_covariance_reduces_to_its_eigenvalues(modes):
    # R = U D U^T with U real orthogonal: pi_R(a(f (+) g)) = W pi_D(a(U^T f (+)
    # U^T g)) W* with W = Gamma(U) (x) Gamma(U), real, which fixes the vacuum,
    # so S_R = W S_D W*, and s_R = W s_D W^T for S v = s conj(v).  R takes the
    # total charge and D the per-mode charges.  Measured: J 5e-15 off, S 3e-15
    # and Delta 5e-15 relative
    gen = np.random.default_rng(60 + modes)
    u = np.linalg.qr(gen.standard_normal((modes, modes)))[0]
    d = np.linspace(0.15, 0.8, modes)
    diagonal = quasifree.doubled_representation(quasifree.CovarianceState(np.diag(d)))
    general = quasifree.doubled_representation(quasifree.CovarianceState((u * d) @ u.T))
    assert len(np.unique(general.labels)) == 2 * modes + 1 < len(np.unique(diagonal.labels))
    factor = second_quantized(diagonal.factor, u)
    w = quasifree.tensor(factor, factor)
    assert not np.any(w.imag)
    w = w.real  # so W* = W^T
    data_d, data_r = modular.tomita_operator(diagonal), modular.tomita_operator(general)
    for got, want in (
        (data_r.s, w @ data_d.s.toarray() @ w.T),
        (data_r.j, w @ data_d.j.toarray() @ w.T),
        (data_r.delta, w @ data_d.delta.toarray() @ w.T),
    ):
        assert operator_norm(got.toarray() - want) <= 1e-12 * operator_norm(want)


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
    # J from the SVD conj(m) = U s V*, J = conj(U V*), taken here apart from
    # polar_antilinear; an eigh of Delta = m* m would square the condition
    # number of the full matrix
    u, _, vh = np.linalg.svd(np.conj(m))
    assert operator_norm(data.s.toarray() - m) <= 1e-12 * operator_norm(m)
    assert operator_norm(data.j.toarray() - np.conj(u @ vh)) <= 1e-12
    assert operator_norm(data.delta.toarray() - delta) <= 1e-12 * operator_norm(delta)
    sector_eigenvalues = np.sort(data.delta_eigenvalues)
    assert np.max(np.abs(sector_eigenvalues - eigenvalues)) <= 1e-12 * eigenvalues[-1]


def diagonal_rep(modes):
    """Doubled representation of a diagonal, non-isotropic covariance."""
    r = np.diag([0.1, 0.3, 0.6, 0.8][:modes])
    return quasifree.doubled_representation(quasifree.CovarianceState(r))


def _check_columns_against_the_multiplied_out_ones(rep):
    modes = rep.n
    labels, adjoint, signs, columns = modular._monomial_columns(rep)
    x = np.zeros((rep.dim, 4**modes), dtype=complex)
    for basis, monomials, values in columns:
        x[basis, monomials] = values
    x_cols, xstar_cols = _dense_monomial_columns(rep)
    assert np.allclose(x, x_cols, rtol=0, atol=1e-14)
    assert np.allclose(x[:, adjoint] * signs, xstar_cols, rtol=0, atol=1e-14)
    w = rep.mode_weights
    want = [sum(w[list(i)]) - sum(w[list(j)]) for i, j in modular.monomial_indices(modes)]
    assert np.array_equal(labels, want)
    for cols, sector in ((x_cols, labels), (xstar_cols, -labels)):
        rows, k = np.nonzero(cols)
        assert np.array_equal(rep.labels[rows], sector[k])


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_sector_columns_match_the_multiplied_out_columns(modes):
    _check_columns_against_the_multiplied_out_ones(random_rep(modes, seed=20 + modes))


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_per_mode_sector_columns_match_the_multiplied_out_columns(modes):
    _check_columns_against_the_multiplied_out_ones(diagonal_rep(modes))


def test_diagonal_covariance_grades_by_the_charge_of_every_mode():
    # q_i = N_1i - N_2i of each mode, labelled sum_i q_i 3^i; a general R
    # keeps only the total charge Q = N_1 - N_2
    rep = diagonal_rep(3)
    assert rep.mode_weights.tolist() == [1, 3, 9]
    assert sorted(set(rep.labels)) == list(range(-13, 14))
    assert np.array_equal(random_rep(3, seed=1).labels, rep.charge)
    sizes = np.unique(modular.tomita_operator(rep).labels, return_counts=True)[1]
    assert len(sizes) == 27 and sizes.max() == 8


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_diagonal_covariance_matches_the_dense_solve(modes):
    # the per-mode sectors against the full monomial system solved as one matrix
    rep = diagonal_rep(modes)
    data = modular.tomita_operator(rep)
    x_cols, xstar_cols = _dense_monomial_columns(rep)
    m = np.linalg.solve(np.conj(x_cols).T, xstar_cols.T).T
    _, delta, _ = polar_antilinear(m)
    assert operator_norm(data.s.toarray() - m) <= 1e-12 * operator_norm(m)
    assert operator_norm(data.delta.toarray() - delta) <= 1e-12 * operator_norm(delta)
    formula = modular.modular_involution_formula(rep).toarray()
    assert operator_norm(data.j.toarray() - formula) <= 1e-12


def test_polar_j_of_a_general_state_matches_the_wedge_formula():
    # J read off the SVD of each sector's S is 8.8e-15 off here; read off an
    # eigh of S* S, which squares the condition number, it is 7.6e-13 off
    rep = random_rep(4, seed=14)
    data = modular.tomita_operator(rep)
    formula = modular.modular_involution_formula(rep).toarray()
    assert operator_norm(data.j.toarray() - formula) <= 5e-14


@pytest.mark.parametrize("modes", [2, 3])
def test_conjugate_by_matches_the_dense_product(modes):
    rep = random_rep(modes, seed=30 + modes)
    data = modular.tomita_operator(rep)
    j = data.j.toarray()
    f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    for x in (rep.field(f), rep.field_star(f), rep.field_star(f) @ rep.field(f)):
        want = j @ np.conj(x.toarray()) @ np.conj(j)
        got = modular.conjugate_by(data, x).toarray()
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


def test_sector_norm_refuses_j_minus_a_map_that_keeps_the_charge():
    # J maps sector q onto -q and the identity keeps it, so their difference
    # sends each sector q != 0 into two sectors
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    data = modular.tomita_operator(rep)
    with pytest.raises(ValueError, match="sector"):
        sector_operator_norm(data.j - sparse.eye_array(rep.dim), rep.labels)


@pytest.mark.parametrize("modes", [2, 3])
def test_sparse_matrices_store_every_sector_block_whole(modes):
    # the per-mode sectors of the isotropic state hold prod_i (1 + 4 + 1) =
    # 6^n squared entries, the total-charge sectors of a general R sum_k
    # C(2n, k)^2 = C(4n, 2n)
    for rep, want in (
        (quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes)),
         6**modes),
        (random_rep(modes, seed=50 + modes), math.comb(4 * modes, 2 * modes)),
    ):
        data = modular.tomita_operator(rep)
        assert data.s.nnz == data.j.nnz == data.delta.nnz == want
        assert np.array_equal(data.s.indices, data.j.indices)


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
    # under the total charge of a general R the x vac fill blocks of C(4n, 2n)
    # complex entries in all; they come one monomial length at a time, and
    # the x* are signed copies of them, so no second family of word vectors,
    # the x* multiplied out on their own, is built
    modes = 5
    rep = random_rep(modes, seed=25)
    tracemalloc.start()
    try:
        for _ in modular._monomial_columns(rep)[3]:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * math.comb(4 * modes, 2 * modes) * 16


def test_tomita_operator_at_six_modes_stays_below_one_total_charge_block():
    # the total charge's sector Q = 0 at 6 modes holds C(12, 6) = 924 basis
    # vectors, and its block of S alone is 924^2 complex entries (13.7 MB);
    # the per-mode sectors of the isotropic state hold at most 2^6
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 6))
    tracemalloc.start()
    try:
        modular.tomita_operator(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < math.comb(12, 6) ** 2 * 16


def test_tomita_operator_of_a_general_state_stays_below_eight_sets_of_blocks():
    # the total-charge sectors of a general R at 5 modes hold C(20, 10)
    # complex entries per set of blocks (3.0 MB).  The CSR matrices X and X*
    # come to two sets, read into two sets of stacks one matrix at a time;
    # those are solved into the stacks of S, J and Delta, which are written
    # into CSR matrices one at a time.  The last, Delta, is written beside S
    # and J and its own stacks, about five sets (14.3 MB measured), which
    # leaves room for temporaries below eight
    modes = 5
    rep = random_rep(modes, seed=25)
    tracemalloc.start()
    try:
        modular.tomita_operator(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * math.comb(4 * modes, 2 * modes) * 16


def test_strongly_mixed_state_keeps_j_antiunitary():
    # nu = 0.01 at 3 modes: Delta spans 99^3 to 99^-3, wider than 1/rank_tol,
    # but within each charge sector Delta is the scalar 99^(-q)
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.01, 3))
    data = modular.tomita_operator(rep)
    j = data.j.toarray()
    assert np.linalg.norm(adjoint(j) @ j - np.eye(len(j))) <= 1e-9 * len(j)
    formula = modular.modular_involution_formula(rep).toarray()
    assert operator_norm(data.j.toarray() - formula) <= 1e-9


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
    got = modular.modular_involution_formula(rep).toarray()
    assert np.array_equal(got, _loop_involution_formula(rep))


def test_columns_outside_their_charge_sector_rejected():
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    rep.labels = rep.labels[::-1].copy()
    with pytest.raises(ValueError, match="charge"):
        modular.tomita_operator(rep)
