import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carshift import hardyshift as hs
from carshift.expcalc import ExpCombo, theta_apply
from carshift.opalg import adjoint, operator_norm
from oracles import apply_flow, backshift, flow_matrix, quad_inner

FAMILY_ONE = [-1.0 + 0.0j]
FAMILY_TWO = [-1.0 + 0.0j, -2.0 + 0.5j]
FAMILY_THREE = [-1.0 + 0.0j, -2.0 + 0.5j, -0.5 + 1.0j]


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


def test_empty_family_rejected():
    with pytest.raises(ValueError, match="at least one exponent"):
        hs.ExponentialFamily([])


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
            val = quad_inner(gi, gj, 0, 60, limit=300).real
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
        back = backshift(g, t)
        expanded = ExpCombo([])
        for k, gk in enumerate(basis_two.g_combos):
            expanded = expanded + gk.scaled(m[k, n])
        assert np.sqrt((back - expanded).norm_sq()) <= 1e-7


def test_ill_conditioned_family_rejected():
    family = hs.ExponentialFamily([-1.0 + 0.0j, -1.0 + 1e-9j])
    with pytest.raises(ValueError):
        hs.orthogonalize(family)


# ---------------------------------------------------------------------------
# perturbed flow and defect norms


def test_flow_is_unitary_on_the_span(basis_two):
    t = 0.6
    for g in basis_two.g_combos:
        got = np.sqrt(apply_flow(basis_two, t, g).norm_sq())
        assert got == pytest.approx(np.sqrt(g.norm_sq()), abs=1e-10)


def test_defect_closed_form_against_combo_oracle(basis_two):
    t = 0.3
    total = 0.0
    for g in basis_two.g_combos:
        diff = apply_flow(basis_two, t, g) - g.shift(t)
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
    total = 0.0
    for g in basis_two.g_combos:
        a = apply_flow(basis_two, t + d, g) - g.shift(t + d)
        b = apply_flow(basis_two, t, g) - g.shift(t)
        total += (a - b).norm_sq()
    assert hs.defect_increment_hs(basis_two, t, d) == pytest.approx(np.sqrt(total), abs=1e-10)


def test_estimates_sum_is_linear_in_t(basis_two):
    ts = [2.0 ** -k for k in range(3, 11)]
    sums = [hs.estimate_inequalities(basis_two, t)["sum"] for t in ts]
    assert hs.fit_power(ts, sums) == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("xs", [[0.25], [4, 4], [0.5, 0.5, 0.5]])
def test_fit_power_needs_two_distinct_abscissae(xs):
    # polyfit would warn and return a slope fitted to one point
    with pytest.raises(ValueError, match="two distinct abscissae"):
        hs.fit_power(xs, [1.0 + k for k in range(len(xs))])


# ---------------------------------------------------------------------------
# window defect and the Laplace pairing


def test_prop2_estimate_rate():
    family = hs.ExponentialFamily(FAMILY_ONE)
    deltas = [2.0 ** -k for k in range(3, 9)]
    vals = [hs.prop2_defect(family, d, 32)["value"] for d in deltas]
    assert hs.fit_power(deltas, vals) == pytest.approx(0.5, abs=0.15)


def mp_window_defect(lambdas, mu, delta):
    """``||(Theta - 1) f||^2`` at 50 digits for the unit-norm exponential of
    rate ``mu`` on ``(0, delta)``: the Volterra terms of every pole, paired
    term by term as ``ExpCombo.inner`` pairs them."""
    with mpmath.workdps(50):
        lam = [mpmath.mpc(complex(l)) for l in lambdas]
        mu, delta = mpmath.mpc(complex(mu)), mpmath.mpf(delta)

        def eint(rho, length):
            return -1 / rho if length == mpmath.inf else mpmath.expm1(rho * length) / rho

        c = 1 / mpmath.sqrt(eint(2 * mu.real, delta).real)
        terms = []
        for k, lk in enumerate(lam):
            r = lk + mpmath.conj(lk)
            for j, lj in enumerate(lam):
                if j != k:
                    r *= (lk + mpmath.conj(lj)) / (lk - lj)
            d = c * r / (mu - lk)
            q = (mpmath.exp(mu * delta) - mpmath.exp(lk * delta)) / (mu - lk)
            terms += [(d, mu, 0, delta), (-d, lk, 0, delta), (c * r * q, lk, delta, mpmath.inf)]
        total = mpmath.mpc(0)
        for c1, m1, s1, e1 in terms:
            for c2, m2, s2, e2 in terms:
                lo, hi = max(s1, s2), min(e1, e2)
                if hi > lo:
                    pre = mpmath.conj(c1) * c2 * mpmath.exp(mpmath.conj(m1) * (lo - s1) + m2 * (lo - s2))
                    total += pre * eint(mpmath.conj(m1) + m2, hi - lo)
        return total.real


def test_prop2_per_k_matches_mpmath():
    delta = 2.0 ** -10
    rep = hs.prop2_defect(hs.ExponentialFamily(FAMILY_THREE), delta, 2048)
    ks, values = rep["per_k"]
    assert list(ks) == list(range(-2048, 2049))
    assert rep["sum_sq"] == pytest.approx(np.sum(values), rel=1e-15)
    for k in (0, 1, -1, 2, 64, 1024, 2047, 2048, -2048):
        exact = mp_window_defect(FAMILY_THREE, hs.window_exponent(k, delta), delta)
        assert abs(values[k + 2048] - exact) <= 1e-12 * exact, k


def combo_window_defect(family, mu, start, delta):
    f = ExpCombo.normalized_exponential(mu, start=start, end=start + delta)
    return theta_apply(family.lambdas, f) - f


def term_scale(combo):
    return sum(np.sqrt(ExpCombo([term]).norm_sq()) for term in combo.terms)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_prop2_matches_the_term_by_term_loop(t):
    # the ExpCombo loop that prop2_defect ran before its closed form, on
    # windows that start at t; Theta commutes with translation, so t changes
    # no value
    family, delta, k_max = hs.ExponentialFamily(FAMILY_ONE), 0.125, 9
    per_k = {
        k: combo_window_defect(family, hs.window_exponent(k, delta), t, delta).norm_sq()
        for k in range(-k_max, k_max + 1)
    }
    amp = np.median([per_k[k] * k * k for k in per_k if abs(k) >= max(2, k_max // 2)])
    rep = hs.prop2_defect(family, delta, k_max)
    assert rep["sum_sq"] == pytest.approx(sum(per_k.values()), rel=1e-12)
    assert rep["value"] == pytest.approx(np.sqrt(sum(per_k.values())), rel=1e-12)
    assert rep["tail_estimate_sq"] == pytest.approx(2.0 * amp / k_max, rel=1e-12)
    assert rep["per_k"][1] == pytest.approx([per_k[k] for k in rep["per_k"][0]], rel=1e-12)


DECAY_RATES = st.builds(complex, st.floats(-3.0, -0.2), st.floats(-3.0, 3.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    lambdas=st.lists(DECAY_RATES, min_size=1, max_size=3),
    delta=st.floats(2.0 ** -4, 1.0),
    start=st.floats(0.0, 2.0),
)
def test_prop2_per_k_matches_the_combo_calculus(lambdas, delta, start):
    gaps = [abs(a - b) for i, a in enumerate(lambdas) for b in lambdas[i + 1:]]
    ks = np.arange(-16, 17)
    mus = hs.window_exponent(ks, delta)
    gaps += [abs(mu - lam) for mu in mus for lam in lambdas]
    assume(min(gaps) > 0.25)
    family = hs.ExponentialFamily(lambdas)
    got_ks, values = hs.prop2_defect(family, delta, 16)["per_k"]
    assert np.array_equal(got_ks, ks)
    for mu, value in zip(mus, values):
        defect = combo_window_defect(family, mu, start, delta)
        assert abs(defect.norm_sq() - value) <= 1e-9 * max(1.0, term_scale(defect) ** 2)


def test_window_exponent_on_arrays():
    ks = np.array([-3, 0, 1, 2048])
    mus = hs.window_exponent(ks, 2.0 ** -10)
    assert [hs.window_exponent(int(k), 2.0 ** -10) for k in ks] == list(mus)
    assert hs.window_exponent(0, 0.5) == -0.5
    assert hs.window_exponent(-2, 0.5) == complex(-0.25, -8.0 * np.pi)


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
    image = theta_apply(family.lambdas, f)
    want = quad_inner(f, image, 1.0, 120, limit=800)
    pairing, _ = hs.laplace_pairing(family, mu, start=1.0)
    assert pairing == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# norm continuity


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
    assert operator_norm(dense[:n, :n] - flow_matrix(model_one, t)) <= 1e-3
    assert model_one.compression_residual(t, model_one.flow_dilation(t)) <= 1e-3


def test_shift_dilation_compresses_to_truncated_shift(model_one):
    t = 0.25
    dense = model_one.shift_dilation(t).to_dense()
    n = model_one.n
    assert np.allclose(dense[:n, :n], np.eye(n, k=-model_one.steps_of(t)))


def test_offspace_deviation_decays_with_horizon(basis_one):
    coarse = hs.GridModel(basis_one, horizon=8.0, step=1.0 / 32)
    fine = hs.GridModel(basis_one, horizon=20.0, step=1.0 / 32)
    assert fine.flow_dilation(0.25).offspace_deviation() < 1e-7
    assert coarse.flow_dilation(0.25).offspace_deviation() > fine.flow_dilation(
        0.25
    ).offspace_deviation()


def test_offspace_deviation_needs_no_row_permutation(model_one):
    # the triangular factor of the row-rotated P Y gives the same norm
    dil = model_one.flow_dilation(0.25)
    r1 = np.linalg.qr(np.roll(dil.y, dil.shift, axis=0), mode="r")
    want = operator_norm(r1 @ adjoint(np.roll(dil.x, dil.shift, axis=0)[dil.k_dim:]))
    assert want > 1e-6
    assert dil.offspace_deviation() == pytest.approx(want, rel=1e-12)


def test_grid_requires_commensurate_times(model_one):
    with pytest.raises(ValueError):
        model_one.steps_of(1.0 / 3.0)


@pytest.mark.parametrize("t", [8.0, 8.0 + 1.0 / 64, 16.0])
def test_grid_refuses_times_at_or_past_the_horizon(model_one, t):
    # the circle has circumference 16: at t = 16 the shift dilation is the identity
    for build in (model_one.shift_dilation, model_one.flow_dilation, model_one.flow_lowrank):
        with pytest.raises(ValueError, match="horizon"):
            build(t)
    assert model_one.steps_of(8.0 - 1.0 / 64) == 511


# ---------------------------------------------------------------------------
# the grid columns and the factored residuals against their oracles


def loop_cell_coefficients(model, combo):
    """The per-cell loop that ``GridModel.cell_coefficients`` replaced: the
    bit-for-bit reference of the array form."""
    h = model.step
    vec = np.zeros(model.n, dtype=complex)
    for c, mu, s, e in combo.terms:
        lo_cell = max(int(np.floor(max(s, 0.0) / h)), 0)
        hi_cell = min(int(np.ceil(min(e, model.horizon) / h)), model.n)
        for j in range(lo_cell, hi_cell):
            lo = max(j * h, s)
            hi = min((j + 1) * h, e)
            if hi <= lo:
                continue
            if abs(mu) < 1e-14:
                vec[j] += c * (hi - lo)
            else:
                vec[j] += c * (np.exp(mu * (hi - s)) - np.exp(mu * (lo - s))) / mu
    return vec / np.sqrt(h)


@pytest.mark.parametrize("lambdas", [FAMILY_ONE, FAMILY_THREE, [-0.3 + 2j, -1.7 - 0.4j, -0.9]])
@pytest.mark.parametrize("horizon, step", [(8.0, 1.0 / 64), (5.0, 0.1), (3.0, 0.375)])
def test_cell_coefficients_equal_the_loop(lambdas, horizon, step):
    basis = hs.orthogonalize(hs.ExponentialFamily(lambdas))
    model = hs.GridModel(basis, horizon, step)
    combos = list(basis.g_combos)
    combos += [g.shift(0.3).window(0.1, 2.7) for g in basis.g_combos]
    # supports that run past the horizon, and one that starts inside a cell
    combos += [g.window(0.55, 40.0).scaled(1.3 - 0.2j) for g in basis.g_combos]
    combos.append(
        ExpCombo([
            (0.7 + 0.1j, 0.0, 0.2, 1.9),              # mu = 0
            (1.0, -0.5 + 3j, 0.0, np.inf),
            (2.0 - 1.0j, 0.4, 1.0, 2.3),
            (0.5j, -1.0, horizon - 0.01, horizon + 1.0),
        ])
    )
    for combo in combos:
        assert np.array_equal(model.cell_coefficients(combo), loop_cell_coefficients(model, combo))


def test_ghat_equals_the_loop_columns():
    basis = hs.orthogonalize(hs.ExponentialFamily(FAMILY_THREE))
    model = hs.GridModel(basis, horizon=32.0, step=2.0 ** -8)
    mat = np.stack([loop_cell_coefficients(model, g) for g in basis.g_combos], axis=1)
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r).real)
    assert np.array_equal(model.ghat, q * signs)


def random_factored(rng, dim, k, k_dim, rank_deficient=False):
    """A non-unitary ``DilationOperator`` with random shift and factors."""
    def gaussian(cols):
        return rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))

    x = gaussian(k) / np.sqrt(dim)
    if rank_deficient:
        # [X, Y] has rank k + 1 < 2k: Y mixes the columns of X and one new one
        y = np.hstack([x[:, :-1], gaussian(1) / np.sqrt(dim)]) @ gaussian(k)[:k, :]
    else:
        y = gaussian(k) / np.sqrt(dim)
    return hs.DilationOperator(rng.integers(dim), x, y, k_dim)


def dense_rotation(dim, shift):
    """The matrix of ``(P B)[i] = B[(i - shift) mod dim]``."""
    return np.roll(np.eye(dim), shift, axis=0)


@pytest.mark.parametrize(
    "dim, k, rank_deficient",
    [(40, 3, False), (40, 5, True), (5, 4, False), (30, 0, False)],
    ids=["full-rank", "rank-deficient", "dim-below-2k", "k0"],
)
def test_factored_residuals_match_dense(dim, k, rank_deficient):
    rng = np.random.default_rng(dim + k)
    k_dim = dim // 2
    dil = random_factored(rng, dim, k, k_dim, rank_deficient)
    if rank_deficient:
        assert np.linalg.matrix_rank(np.hstack([dil.x, dil.y])) == k + 1
    u = dil.to_dense()
    assert np.allclose(u, dense_rotation(dim, dil.shift) @ (np.eye(dim) + dil.x @ adjoint(dil.y)))
    want_unitarity = operator_norm(adjoint(u) @ u - np.eye(dim))
    s_u_star = dense_rotation(dim, dil.shift) @ adjoint(u)
    want_offspace = operator_norm((s_u_star - np.eye(dim))[:, k_dim:])
    if k == 0:
        assert dil.unitarity_residual() == want_unitarity == 0.0
        assert dil.offspace_deviation() == want_offspace == 0.0
        return
    assert want_unitarity > 0.1 and want_offspace > 0.1
    assert dil.unitarity_residual() == pytest.approx(want_unitarity, rel=1e-12)
    assert dil.offspace_deviation() == pytest.approx(want_offspace, rel=1e-12)


def test_compression_residual_reads_the_given_dilation(model_one):
    t = 0.25
    flow = model_one.flow_dilation(t)
    got = model_one.compression_residual(t, flow)
    assert got == model_one.compression_residual(t, model_one.flow_dilation(t))
    # another operator with the same rotation gives its own distance
    doubled = hs.DilationOperator(flow.shift, 2.0 * flow.x, flow.y, flow.k_dim)
    n = model_one.n
    want = np.linalg.norm(doubled.to_dense()[:n, :n] - flow_matrix(model_one, t))
    assert model_one.compression_residual(t, doubled) == pytest.approx(want, rel=1e-9)
