import numpy as np
import pytest

from carshift import fock, modular, quasifree
from carshift.opalg import AntilinearOperator, adjoint, operator_norm, polar_antilinear

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
    lhs = data2.s(x @ rep2.vacuum)
    rhs = adjoint(x) @ rep2.vacuum
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_vacuum_fixed(rep2, data2):
    vac = rep2.vacuum
    assert np.linalg.norm(data2.delta @ vac - vac) <= 1e-10
    assert np.linalg.norm(data2.j(vac) - vac) <= 1e-10


def test_j_is_antiunitary_involution(data2):
    assert data2.j.is_antiunitary(tol=1e-9)
    assert operator_norm(data2.j.compose(data2.j) - np.eye(data2.j.dim)) <= 1e-9


def test_polar_j_matches_wedge_formula(rep2, data2):
    formula = modular.modular_involution_formula(rep2)
    assert operator_norm(data2.j.matrix - formula.matrix) <= 1e-9


def test_delta_spectrum_powers_of_ratio(data2):
    # nu = 1/4 gives ratio nu/(1-nu) = 1/3
    eigs = np.linalg.eigvalsh(data2.delta)
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


def test_commutant_generators_commute(rep2):
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = modular.commutant_generator(rep2, f)
    for x in (rep2.field(g), rep2.field_star(g)):
        assert operator_norm((x @ b - b @ x).toarray()) <= 1e-12


def test_j_conjugation_lands_in_commutant(rep2, data2):
    # J pi(a(f+0)) J = -b*(f); the sign is fixed by the polar J
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = modular.conjugate_by(data2.j, rep2.field(f))
    rhs = -adjoint(modular.commutant_generator(rep2, f))
    assert operator_norm(lhs - rhs) <= 1e-10


def test_commutant_dimension_single_mode():
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.3, 1))
    report = modular.commutant_check(rep)
    assert report["commutant_dim"] == report["expected_dim"] == 4
    assert report["b_span_dim"] == 4
    assert report["max_commutator_residual"] <= 1e-10


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
        fock.second_quantized(rep.factor, h), fock.second_quantized(rep.factor, np.linalg.inv(h))
    )
    assert operator_norm(data.delta - want) <= 1e-12 * operator_norm(want)


@pytest.mark.parametrize("modes", [2, 3])
def test_sector_solve_matches_dense_solve(modes):
    # the full monomial system, solved and polar-decomposed as one matrix
    rep = random_rep(modes, seed=10 + modes)
    data = modular.tomita_operator(rep)
    x_cols, xstar_cols = modular._monomial_columns(rep)
    m = np.linalg.solve(np.conj(x_cols).T, xstar_cols.T).T
    j, delta, eigenvalues = polar_antilinear(AntilinearOperator(m))
    assert operator_norm(data.s.matrix - m) <= 1e-12 * operator_norm(m)
    assert operator_norm(data.j.matrix - j.matrix) <= 1e-12
    assert operator_norm(data.delta - delta) <= 1e-12 * operator_norm(delta)
    assert np.max(np.abs(data.delta_eigenvalues - eigenvalues)) <= 1e-12 * eigenvalues[-1]


def test_strongly_mixed_state_keeps_j_antiunitary():
    # nu = 0.01 at 3 modes: Delta spans 99^3 to 99^-3, wider than 1/rank_tol,
    # but within each charge sector Delta is the scalar 99^(-q)
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.01, 3))
    data = modular.tomita_operator(rep)
    assert data.j.is_antiunitary(tol=1e-9)
    formula = modular.modular_involution_formula(rep)
    assert operator_norm(data.j.matrix - formula.matrix) <= 1e-9


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
    got = modular.modular_involution_formula(rep).matrix
    assert np.array_equal(got, _loop_involution_formula(rep))


def test_columns_outside_their_charge_sector_rejected():
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 2))
    rep.charge = rep.charge[::-1].copy()
    with pytest.raises(ValueError, match="charge"):
        modular.tomita_operator(rep)
