import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from carshift import modular, quasifree
from carshift.opalg import adjoint, operator_norm, polar_antilinear, sector_operator_norm
from oracles import doubled_second_quantized, product_xstar, second_quantized, tensor

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
    # multiplicative second quantization (Peschel, J. Phys. A 36 (2003) L205),
    # on the number basis of K; W = Gamma(U) (x) Gamma(U), real, maps the
    # eigenmode basis of the representation onto it
    rep = random_rep(modes, seed=modes)
    data = modular.tomita_operator(rep)
    r = rep.state.r
    h = r @ np.linalg.inv(np.eye(modes) - r)
    want = tensor(
        second_quantized(rep.factor, h), second_quantized(rep.factor, np.linalg.inv(h))
    )
    w = doubled_second_quantized(rep)
    got = w @ data.delta.toarray() @ w.T
    assert operator_norm(got - want) <= 1e-12 * operator_norm(want)


@pytest.mark.parametrize("modes", range(1, 7))
def test_xstar_is_the_sparse_product_x_f_to_the_bit(monkeypatch, modes):
    # tomita_operator writes X* from the entries of X; it reads X, then X*,
    # through sector_stacks, and both are caught there
    for rep in (
        quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes)),
        quasifree.doubled_representation(
            quasifree.CovarianceState(_rotated(70 + modes, np.linspace(0.15, 0.8, modes)))
        ),
    ):
        seen = []

        def spy(op, labels, stacks=modular.sector_stacks):
            seen.append(op.copy())
            return stacks(op, labels)

        monkeypatch.setattr(modular, "sector_stacks", spy)
        modular.tomita_operator(rep)
        monkeypatch.undo()
        x, xstar = seen
        adjoint, signs, _ = modular._monomial_columns(rep)
        want = product_xstar(x, adjoint, signs)
        assert xstar.nnz == want.nnz
        assert xstar.data.tobytes() == want.data.tobytes()
        assert np.array_equal(xstar.indices, want.indices)
        assert np.array_equal(xstar.indptr, want.indptr)


def _rotated(seed, d):
    """``U diag(d) U^T`` for a random real orthogonal ``U``."""
    u = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(d), len(d))))[0]
    return (u * d) @ u.T


@pytest.mark.parametrize(
    "r",
    [_rotated(62, [0.15, 0.8]), _rotated(63, [0.15, 0.5, 0.8]), np.diag([0.8, 0.15, 0.5])],
    ids=["2", "3", "unsorted-diagonal"],
)
def test_a_general_covariance_reduces_to_its_eigenvalues(r):
    # R = U D U^T: the representation works on the eigenmodes of R, so S, J
    # and Delta of R are those of D, with no W between them, and pi_R(a(f (+)
    # g)) = pi_D(a(U^T f (+) U^T g)).  The unsorted diagonal R has a
    # permutation for U, as eigh sorts the eigenvalues
    state = quasifree.CovarianceState(r)
    modes = state.dim
    general = quasifree.doubled_representation(state)
    diagonal = quasifree.doubled_representation(quasifree.CovarianceState(np.diag(state.d)))
    assert np.array_equal(general.labels, diagonal.labels)
    data_r, data_d = modular.tomita_operator(general), modular.tomita_operator(diagonal)
    for got, want in ((data_r.s, data_d.s), (data_r.j, data_d.j), (data_r.delta, data_d.delta)):
        want = want.toarray()
        assert operator_norm(got.toarray() - want) <= 1e-12 * operator_norm(want)
    gen = np.random.default_rng(64)
    f = gen.standard_normal(modes) + 1j * gen.standard_normal(modes)
    g = gen.standard_normal(modes) + 1j * gen.standard_normal(modes)
    u = state.u
    for build in ("field", "field_star"):
        got = getattr(general, build)(f, g).toarray()
        assert np.array_equal(got, getattr(diagonal, build)(u.T @ f, u.T @ g).toarray())


def _monomial_subsets(rep):
    """``(A, B)`` of the monomial ``a*(U e_A) a(U e_B)`` on each basis vector
    ``k = a + d b``, ``a`` and ``b`` the bitmasks of ``A`` and ``B``."""
    d, modes = rep.factor.dim, range(rep.n)
    return [
        ([i for i in modes if k % d >> i & 1], [j for j in modes if k // d >> j & 1])
        for k in range(rep.dim)
    ]


def _dense_monomial_columns(rep):
    # every column multiplied out factor by factor: x = a*(U e_A) a(U e_B),
    # both products in increasing index order, and x* with the factors
    # reversed; U e_i goes through field and field_star like any vector
    create = [rep.field_star(m) for m in rep.state.u.T]
    annihilate = [rep.field(m) for m in rep.state.u.T]
    x_cols = np.empty((rep.dim, rep.dim), dtype=complex)
    xstar_cols = np.empty((rep.dim, rep.dim), dtype=complex)
    for k, (i_set, j_set) in enumerate(_monomial_subsets(rep)):
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


def _built_columns(rep):
    """``(adjoint, signs, X)`` of ``modular._monomial_columns``, ``X`` dense."""
    adjoint, signs, columns = modular._monomial_columns(rep)
    x = np.zeros((rep.dim, rep.dim), dtype=complex)
    for basis, monomials, values in columns:
        x[basis, monomials] = values
    return adjoint, signs, x


def _check_columns_against_the_multiplied_out_ones(rep):
    adjoint, signs, x = _built_columns(rep)
    x_cols, xstar_cols = _dense_monomial_columns(rep)
    assert np.allclose(x, x_cols, rtol=0, atol=1e-14)
    assert np.allclose(x[:, adjoint] * signs, xstar_cols, rtol=0, atol=1e-14)
    # monomial k has the charges sum_{i in A} 3^i - sum_{j in B} 3^j
    w = 3 ** np.arange(rep.n)
    want = [sum(w[i]) - sum(w[j]) for i, j in _monomial_subsets(rep)]
    assert np.array_equal(rep.labels, want)
    # the multiplied-out columns of a general R have rounding-level entries
    # outside their sectors; the columns built from the eigen coefficients
    # have none
    for cols, sector in ((x, rep.labels), (x[:, adjoint] * signs, -rep.labels)):
        rows, k = np.nonzero(cols)
        assert np.array_equal(rep.labels[rows], sector[k])


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_sector_columns_match_the_multiplied_out_columns(modes):
    _check_columns_against_the_multiplied_out_ones(random_rep(modes, seed=20 + modes))


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_per_mode_sector_columns_match_the_multiplied_out_columns(modes):
    _check_columns_against_the_multiplied_out_ones(diagonal_rep(modes))


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_each_monomial_stands_on_its_own_basis_vector(modes):
    # pi(a*(U e_i)) vac creates e_i in the first factor with (1 - d_i)^{1/2},
    # pi(a(U e_j)) vac creates e_j in the second with d_j^{1/2}: the column
    # of x = a*(U e_A) a(U e_B) has that product, up to sign, on e_A (x) e_B,
    # index k = a + d b, and lies in sector labels[k]; x* is (B, A), on the
    # swap b + d a
    rep = random_rep(modes, seed=70 + modes)
    adjoint, _, x = _built_columns(rep)
    rows, k = np.nonzero(x)
    assert np.array_equal(rep.labels[rows], rep.labels[k])
    occupied = np.sqrt(1.0 - rep.state.d)
    empty = np.sqrt(rep.state.d)
    want = [np.prod(occupied[a]) * np.prod(empty[b]) for a, b in _monomial_subsets(rep)]
    assert not np.any(x.diagonal().imag)
    assert np.allclose(np.abs(x.diagonal().real), want, rtol=1e-14, atol=0)
    d = rep.factor.dim
    assert np.array_equal(adjoint, [k // d + d * (k % d) for k in range(rep.dim)])


def test_diagonal_covariance_grades_by_the_charge_of_every_mode():
    # q_i = N_1i - N_2i of each mode, labelled sum_i q_i 3^i; a general R
    # has the same labels, on the charges of its eigenmodes
    rep = diagonal_rep(3)
    assert sorted(set(rep.labels)) == list(range(-13, 14))
    assert np.array_equal(random_rep(3, seed=1).labels, rep.labels)
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
    # the per-mode sectors hold prod_i (1 + 4 + 1) = 6^n squared entries, for
    # the isotropic state and for a general R on its eigenmodes alike
    for rep in (
        quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, modes)),
        random_rep(modes, seed=50 + modes),
    ):
        data = modular.tomita_operator(rep)
        assert data.s.nnz == data.j.nnz == data.delta.nnz == 6**modes
        assert np.array_equal(data.s.indices, data.j.indices)
        assert np.shares_memory(data.s.indices, data.j.indices)
        assert np.shares_memory(data.s.indptr, data.j.indptr)


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
    # the x vac of a general R fill the per-mode sector blocks, 6^n complex
    # entries in all, and come one monomial length at a time; the 2n factors
    # they are multiplied with hold 2n 4^n entries, and are held twice while
    # they are stacked.  The x* are signed copies of the x vac, so no second
    # family of word vectors, the x* multiplied out on their own, is built:
    # the peak stays below two stacks of factors and three sets of blocks
    # (measured 0.58 MB of 0.70 MB)
    modes = 5
    rep = random_rep(modes, seed=25)
    tracemalloc.start()
    try:
        for _ in modular._monomial_columns(rep)[2]:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * 2 * modes * rep.dim + 3 * 6**modes) * 16


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
    # the per-mode sectors of a general R at 5 modes hold 6^5 complex entries
    # per set of blocks (124 kB).  The CSR matrices X and X* come to two
    # sets, read into two sets of stacks one matrix at a time; those are
    # solved into the stacks of S, J and Delta, which are written into CSR
    # matrices one at a time.  The 2n factor fields of the columns, 2n 4^n
    # entries, come on top; 0.71 MB measured, below eight sets
    modes = 5
    rep = random_rep(modes, seed=25)
    tracemalloc.start()
    try:
        modular.tomita_operator(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 6**modes * 16


def test_tomita_operator_of_a_general_state_at_six_modes_stays_below_one_total_charge_block():
    # a general R is graded by the charges of its eigenmodes: 6^6 entries per
    # matrix, where the total charge alone gave C(24, 12) = 2,704,156, and a
    # peak below the isotropic state's bound, one block Q = 0 of C(12, 6)^2
    # complex entries (13.7 MB); 4.1 MB measured
    rep = random_rep(6, seed=26)
    tracemalloc.start()
    try:
        data = modular.tomita_operator(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.s.nnz == data.j.nnz == data.delta.nnz == 6**6
    assert peak < math.comb(12, 6) ** 2 * 16


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
    # a grading the fields do not keep: x vac of a*(U e_0) a(U e_0) has
    # entries on basis vectors 0 and 5, of one sector, which the shifted
    # labels put in two
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    rep.labels = np.roll(rep.labels, 1)
    with pytest.raises(ValueError, match="charge"):
        modular.tomita_operator(rep)
