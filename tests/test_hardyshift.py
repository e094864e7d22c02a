import numpy as np
import pytest
from scipy import integrate

from carshift import hardyshift as hs
from carshift.expcalc import ExpCombo
from carshift.opalg import adjoint, operator_norm

FAMILY_ONE = [-1.0 + 0.0j]
FAMILY_TWO = [-1.0 + 0.0j, -2.0 + 0.5j]


@pytest.fixture(scope="module")
def basis_two():
    return hs.orthogonalize(hs.ExponentialFamily(FAMILY_TWO))


@pytest.fixture(scope="module")
def basis_one():
    return hs.orthogonalize(hs.ExponentialFamily(FAMILY_ONE))


# ---------------------------------------------------------------------------
# condition (1) and the Blaschke product


def test_condition1_accepts_summable_family():
    hs.ExponentialFamily(FAMILY_TWO)  # does not raise


def test_condition1_rejects_right_half_plane():
    with pytest.raises(ValueError):
        hs.ExponentialFamily([1.0 + 0.0j])


def test_condition1_rejects_repeated_exponents():
    with pytest.raises(ValueError, match="lambda_0 == lambda_2"):
        hs.ExponentialFamily([-1.0 + 0.5j, -2.0, -1.0 + 0.5j])


def test_condition1_sets_no_bound_on_imaginary_parts():
    # a finite family has bounded imaginary parts whatever their size
    family = hs.ExponentialFamily([-1.0 + 1e6j, -0.5 - 3e3j])
    assert family.s_value == 1.5


def test_blaschke_single_factor_closed_form():
    family = hs.ExponentialFamily(FAMILY_ONE)
    for z in (0.5 + 0.3j, 2.0 - 1.0j, 5.0j):
        assert hs.blaschke_eval(family, z) == pytest.approx((z - 1.0) / (z + 1.0))


def test_blaschke_boundary_modulus(basis_two):
    ys = np.linspace(-40.0, 40.0, 501)
    vals = np.abs(hs.blaschke_eval(basis_two.family, 1j * ys))
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_blaschke_contractive_in_right_half_plane(basis_two):
    rng = np.random.default_rng(9)
    zs = rng.uniform(0.1, 10, 50) + 1j * rng.uniform(-10, 10, 50)
    assert np.all(np.abs(hs.blaschke_eval(basis_two.family, zs)) <= 1.0 + 1e-12)


def test_asymptotic_coefficient_matches_rate_sum():
    for lambdas in (FAMILY_ONE, FAMILY_TWO, [-0.5 + 1.0j, -1.5 + 0.0j, -3.0 - 2.0j]):
        family = hs.ExponentialFamily(lambdas)
        asym = hs.blaschke_asymptotics(family)
        s = -sum(l.real for l in lambdas)
        assert asym["two_s"] == pytest.approx(2.0 * s)
        assert asym["c3"] == pytest.approx(2.0 * s, rel=0.01)


# ---------------------------------------------------------------------------
# orthogonalized exponential system


def test_orthonormal_against_quadrature(basis_two):
    for i, gi in enumerate(basis_two.g_combos):
        for j, gj in enumerate(basis_two.g_combos):
            val = integrate.quad(
                lambda x: (np.conj(gi.evaluate(x)) * gj.evaluate(x)).real, 0, 60, limit=300
            )[0]
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_triangular_change_of_basis(basis_two):
    coeff = np.asarray(basis_two.coeff)
    assert np.allclose(coeff, np.triu(coeff))
    assert np.all(np.diag(coeff).real > 0)


def test_backward_shift_diagonal_pairing(basis_two):
    # <g_n, S_t g_n> = exp(conj(lambda_n) t)
    t = 0.35
    m = hs.backward_shift_matrix(basis_two, t)
    for n, lam in enumerate(basis_two.family.lambdas):
        shifted = basis_two.g_combos[n].shift(t)
        assert basis_two.g_combos[n].inner(shifted) == pytest.approx(np.exp(np.conj(lam) * t))
        assert m[n, n] == pytest.approx(np.exp(lam * t))


def test_backward_shift_matrix_matches_combo_action(basis_two):
    t = 0.4
    m = hs.backward_shift_matrix(basis_two, t)
    for n, g in enumerate(basis_two.g_combos):
        back = g.backshift(t)
        expanded = ExpCombo([])
        for k, gk in enumerate(basis_two.g_combos):
            expanded = expanded + gk.scaled(m[k, n])
        assert (back - expanded).norm() <= 1e-7


def test_ill_conditioned_family_rejected():
    family = hs.ExponentialFamily([-1.0 + 0.0j, -1.0 + 1e-9j])
    with pytest.raises(ValueError):
        hs.orthogonalize(family)


# ---------------------------------------------------------------------------
# perturbed flow and defect norms


def test_flow_is_unitary_on_the_span(basis_two):
    t = 0.6
    vt = hs.build_vt(basis_two, t)
    for g in basis_two.g_combos:
        assert vt.apply_combo(g).norm() == pytest.approx(g.norm(), abs=1e-10)


def test_defect_closed_form_against_combo_oracle(basis_two):
    t = 0.3
    vt = hs.build_vt(basis_two, t)
    total = 0.0
    for g in basis_two.g_combos:
        diff = vt.apply_combo(g) - g.shift(t)
        total += diff.norm_sq()
    assert hs.defect_hs_norm(basis_two, t) == pytest.approx(np.sqrt(total), abs=1e-10)


def test_defect_vanishes_at_zero(basis_two, basis_one):
    assert hs.defect_hs_norm(basis_two, 0.0) == 0.0
    assert hs.defect_hs_norm(basis_one, 0.0) == 0.0


def test_defect_sqrt_t_rate(basis_one, basis_two):
    ts = [2.0 ** -k for k in range(4, 13)]
    for basis in (basis_one, basis_two):
        slope = hs.fit_power(ts, [hs.defect_hs_norm(basis, t) for t in ts])
        assert slope == pytest.approx(0.5, abs=0.1)


def test_defect_increment_closed_form(basis_two):
    t, d = 0.2, 0.05
    vt = hs.build_vt(basis_two, t)
    vtd = hs.build_vt(basis_two, t + d)
    total = 0.0
    for g in basis_two.g_combos:
        a = vtd.apply_combo(g) - g.shift(t + d)
        b = vt.apply_combo(g) - g.shift(t)
        total += (a - b).norm_sq()
    assert hs.defect_increment_hs(basis_two, t, d) == pytest.approx(np.sqrt(total), abs=1e-10)


def test_estimates_sum_is_linear_in_t(basis_two):
    ts = [2.0 ** -k for k in range(3, 11)]
    sums = [hs.estimate_inequalities(basis_two, t)["sum"] for t in ts]
    assert hs.fit_power(ts, sums) == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# window defect and the Laplace pairing


def test_prop2_estimate_rate():
    family = hs.ExponentialFamily(FAMILY_ONE)
    deltas = [2.0 ** -k for k in range(3, 9)]
    vals = [hs.prop2_defect(family, 1.0, d, 32)["value"] for d in deltas]
    assert hs.fit_power(deltas, vals) == pytest.approx(0.5, abs=0.15)


def test_laplace_pairing_identity():
    # the identity <f, Theta f> = B(-conj(mu)) ||f||^2 is exact on half-lines
    family = hs.ExponentialFamily(FAMILY_TWO)
    mu = hs.window_exponent(3, 0.25)
    pairing, reference = hs.laplace_pairing(family, mu, start=1.0)
    assert pairing == pytest.approx(reference, abs=1e-12)


def test_laplace_pairing_against_quadrature():
    family = hs.ExponentialFamily(FAMILY_ONE)
    mu = hs.window_exponent(2, 0.5)
    f = ExpCombo.normalized_exponential(mu, start=1.0)
    image = hs.theta_apply(family, f)
    re = integrate.quad(lambda x: (np.conj(f.evaluate(x)) * image.evaluate(x)).real, 1.0, 120, limit=800)[0]
    im = integrate.quad(lambda x: (np.conj(f.evaluate(x)) * image.evaluate(x)).imag, 1.0, 120, limit=800)[0]
    pairing, _ = hs.laplace_pairing(family, mu, start=1.0)
    assert pairing == pytest.approx(re + 1j * im, abs=1e-8)


# ---------------------------------------------------------------------------
# Wold decomposition and continuity


def test_wold_unitary_input():
    n = 6
    perm = np.eye(n)[list(range(1, n)) + [0]]
    out = hs.wold_decompose(perm)
    assert out["deficiency"] == 0
    assert np.allclose(out["p_unitary"], np.eye(n))


def test_wold_pure_shift_truncation():
    # truncated unilateral shift: a partial isometry with trivial unitary part
    n = 8
    v = np.zeros((n, n))
    for i in range(n - 1):
        v[i + 1, i] = 1.0
    out = hs.wold_decompose(v)
    assert out["deficiency"] == 1
    assert operator_norm(out["p_unitary"]) <= 1e-10


def test_wold_mixed_direct_sum():
    perm = np.eye(3)[[1, 2, 0]]
    shift = np.zeros((4, 4))
    for i in range(3):
        shift[i + 1, i] = 1.0
    v = np.block([[perm, np.zeros((3, 4))], [np.zeros((4, 3)), shift]])
    out = hs.wold_decompose(v)
    assert out["deficiency"] == 1
    assert np.trace(out["p_unitary"]).real == pytest.approx(3.0, abs=1e-8)


def test_wold_rejects_garbage():
    with pytest.raises(ValueError):
        hs.wold_decompose(np.ones((3, 3)))


def test_condition_n_check_continuous_vs_jumpy():
    ts = [k / 32.0 for k in range(17)]
    smooth = hs.condition_n_check(lambda t: np.diag(np.exp(1j * np.array([1.0, 2.0]) * t)), ts)
    assert smooth["pass"]
    rng = np.random.default_rng(3)
    jumpy = hs.condition_n_check(
        lambda t: np.linalg.qr(rng.standard_normal((4, 4)))[0], ts
    )
    assert not jumpy["pass"]


# ---------------------------------------------------------------------------
# grid dilations


@pytest.fixture(scope="module")
def model_one(basis_one):
    return hs.GridModel(basis_one, horizon=8.0, step=1.0 / 64)


def test_shift_dilation_is_exactly_unitary(model_one):
    dil = model_one.shift_dilation(0.25)
    assert dil.unitarity_residual() == 0.0


def test_flow_dilation_unitary(model_one):
    dil = model_one.flow_dilation(0.25)
    assert dil.unitarity_residual() <= 1e-12
    dense = dil.to_dense()
    assert operator_norm(adjoint(dense) @ dense - np.eye(dense.shape[0])) <= 1e-12


def test_dilation_compresses_to_the_grid_flow(model_one):
    t = 0.25
    dense = model_one.flow_dilation(t).to_dense()
    n = model_one.n
    # edge tail of order exp(lambda (T - t)) bounds the compression mismatch
    assert operator_norm(dense[:n, :n] - model_one.flow_matrix(t)) <= 1e-3
    assert model_one.compression_residual(t) <= 1e-3


def test_shift_dilation_compresses_to_truncated_shift(model_one):
    t = 0.25
    dense = model_one.shift_dilation(t).to_dense()
    n = model_one.n
    assert np.allclose(dense[:n, :n], model_one.shift_matrix(t))


def test_dilation_matvec_matches_dense(model_one):
    dil = model_one.flow_dilation(0.25)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(2 * model_one.n) + 1j * rng.standard_normal(2 * model_one.n)
    assert np.allclose(dil.matvec(v), dil.to_dense() @ v)


def test_offspace_deviation_decays_with_horizon(basis_one):
    coarse = hs.GridModel(basis_one, horizon=8.0, step=1.0 / 32)
    fine = hs.GridModel(basis_one, horizon=20.0, step=1.0 / 32)
    assert fine.flow_dilation(0.25).offspace_deviation() < 1e-7
    assert coarse.flow_dilation(0.25).offspace_deviation() > fine.flow_dilation(
        0.25
    ).offspace_deviation()


def test_grid_requires_commensurate_times(model_one):
    with pytest.raises(ValueError):
        model_one.steps_of(1.0 / 3.0)


def test_unitary_dilation_dispatch(model_one):
    assert hs.unitary_dilation(model_one, "shift", 0.25).unitarity_residual() == 0.0
    assert hs.unitary_dilation(model_one, "flow", 0.25).unitarity_residual() <= 1e-12
    with pytest.raises(ValueError):
        hs.unitary_dilation(model_one, "nope", 0.25)
