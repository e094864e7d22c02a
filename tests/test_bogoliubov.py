import tracemalloc

import numpy as np
import pytest
from scipy.linalg import sqrtm

from carshift import bogoliubov, hardyshift, quasifree
from carshift.opalg import adjoint, hs_norm, lowrank_hs_norm, operator_norm
from oracles import difference_factors, dot_araki_commutator, dot_weighted_hs_norm

rng = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# verdict policy


def test_fit_verdict_on_clean_sequences():
    sizes = [4, 8, 16, 32, 64]
    growing = [np.sqrt(n) for n in sizes]
    assert bogoliubov.fit_verdict(sizes, growing)[0] == "diverges"
    settled = [1.0 - 2.0 ** -n for n in sizes]
    assert bogoliubov.fit_verdict(sizes, settled)[0] == "converges"
    zero = [0.0 for _ in sizes]
    assert bogoliubov.fit_verdict(sizes, zero)[0] == "converges"


def test_fit_verdict_stabilized_at_noise_floor():
    sizes = [4, 8, 16]
    vals = [0.5, 0.5 + 4e-11, 0.5 + 6e-11]
    assert bogoliubov.fit_verdict(sizes, vals)[0] == "converges"


def test_fit_verdict_known_miss_on_slow_bounded_sequence():
    # 1 - n^(-1/4) is bounded, but its increments decay like n^(-1/4), above
    # the n^(-1/2) cutoff, and its values grow: the policy says "diverges".
    sizes = [4, 8, 16, 32, 64]
    verdict, inc_exp, val_exp = bogoliubov.fit_verdict(sizes, [1.0 - n ** -0.25 for n in sizes])
    assert verdict == "diverges"
    assert inc_exp == pytest.approx(-0.25, abs=1e-12)
    assert val_exp > 0


def test_fit_verdict_needs_two_points():
    with pytest.raises(ValueError):
        bogoliubov.fit_verdict([4], [1.0])


# ---------------------------------------------------------------------------
# weighted norms


def test_weighted_hs_norm_isotropic_oracle():
    nu = 0.3
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    r = nu * np.eye(5)
    got = bogoliubov.weighted_hs_norm(r, x)
    assert got == pytest.approx(np.sqrt(nu * (1 - nu)) * hs_norm(x))


@pytest.mark.parametrize("nu", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_weighted_hs_norm_rejects_scalar_nu_outside_unit_interval(nu):
    # sqrt(nu(1-nu)) would be NaN or 0, and a NaN norm passes every verdict
    with pytest.raises(ValueError, match="nu must lie in"):
        bogoliubov.weighted_hs_norm(nu, np.eye(3))


@pytest.mark.parametrize("spectrum", [[1.5, 0.5], [0.0, 0.5], [1.0, 0.5]])
def test_weighted_hs_norm_rejects_covariance_outside_unit_interval(spectrum):
    # R(1-R) clipped at zero would weigh the offending direction by 0, not fail
    with pytest.raises(ValueError, match=r"spectrum of R must lie in \(0,1\)"):
        bogoliubov.weighted_hs_norm(np.diag(spectrum), np.eye(2))


def test_innerness_closed_form():
    # W = -1: ||R^{1/2}(1-R)^{1/2}(W-1)||_2 = 2 sqrt(nu(1-nu) n)
    nu = 0.3
    sizes = [4, 8, 16, 32, 64]
    report = bogoliubov.innerness_norm(nu, lambda n: -np.eye(n), sizes)
    for n, val in zip(report.sizes, report.values):
        assert val == pytest.approx(2.0 * np.sqrt(nu * (1 - nu) * n), rel=1e-14)
    assert report.verdict == "diverges"


def test_innerness_finite_rank_converges():
    def w_of(n):
        w = np.eye(n)
        w[0, 0] = -1.0
        return w

    report = bogoliubov.innerness_norm(0.3, w_of, [4, 8, 16, 32])
    assert report.verdict == "converges"
    assert max(report.values) == pytest.approx(min(report.values))


def test_extension_vs_araki_factor():
    # V' = -W' doubles under Araki by exactly sqrt(2)
    nu = 0.25
    sizes = [4, 8, 16]
    ext = bogoliubov.extension_criterion(nu, lambda n: -np.eye(n), lambda n: np.eye(n), sizes)
    ara = bogoliubov.araki_criterion(nu, lambda n: -np.eye(n), lambda n: np.eye(n), sizes)
    for a, b in zip(ext.values, ara.values):
        assert b == pytest.approx(np.sqrt(2.0) * a)
    assert ext.verdict == ara.verdict == "diverges"


def test_extension_vs_araki_verdicts_agree_on_random_families():
    nu = 0.25
    sizes = [4, 8, 16, 32]
    for trial in range(10):
        def v_of(n):
            return np.eye(n)

        def w_of(n, trial=trial):
            w = np.eye(n)
            # finite-rank rotation in a fixed 2-plane, trial-dependent angle
            th = 0.2 + 0.05 * trial
            w[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
            return w

        ext = bogoliubov.extension_criterion(nu, v_of, w_of, sizes)
        ara = bogoliubov.araki_criterion(nu, v_of, w_of, sizes)
        assert ext.verdict == ara.verdict == "converges"


def test_conjugacy_criterion_identical_paths():
    verdict, per_t = bogoliubov.conjugacy_criterion(
        0.25,
        lambda t, n: np.eye(n),
        lambda t, n: np.eye(n),
        [0.5, 1.0],
        [4, 8],
    )
    assert verdict == "converges"
    assert all(max(rep.values) == 0.0 for rep in per_t.values())


def test_conjugacy_rejects_non_unitary():
    with pytest.raises(ValueError):
        bogoliubov.conjugacy_criterion(
            0.25,
            lambda t, n: 2.0 * np.eye(n),
            lambda t, n: np.eye(n),
            [1.0],
            [4],
        )


def test_approximation_check_contract():
    model = _models(FAM3)[64]
    ok = bogoliubov.approximation_check(model.shift_dilation, model.shift_dilation, [0.5])
    assert ok["pass"]
    assert ok["rows"] == [{"t": 0.5, "offspace_deviation": 0.0}]
    bad = bogoliubov.approximation_check(model.shift_dilation, model.flow_dilation, [0.5])
    assert not bad["pass"]


# ---------------------------------------------------------------------------
# factored dilations against their dense form

FAM3 = [-1.0, -2.0 + 0.5j, -0.5 + 1.0j]


def _models(lambdas):
    basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily(lambdas))
    models = {}
    for horizon in (4.0, 6.0):
        model = hardyshift.GridModel(basis, horizon, 1.0 / 8)
        models[2 * model.n] = model
    return models


def _first_dilation(first, t, n):
    """The shift (no low-rank part), a flow of another family on the same grid,
    or that flow with its low-rank part doubled (not unitary); all share the
    rotation of the fam3 flow dilation."""
    if first == "shift":
        return _models(FAM3)[n].shift_dilation(t)
    dil = _models([-1.0])[n].flow_dilation(t)
    if first == "fam1-flow":
        return dil
    return hardyshift.DilationOperator(dil.shift, 2.0 * dil.x, dil.y, dil.k_dim)


def _random_covariance(size):
    a = np.random.default_rng(size).standard_normal((size, size))
    w, v = np.linalg.eigh(a + a.T)
    return (v * (0.1 + 0.8 * (w - w.min()) / np.ptp(w))) @ v.T


@pytest.mark.parametrize("first", ["shift", "fam1-flow"])
@pytest.mark.parametrize("r", [0.25, _random_covariance], ids=["isotropic", "general"])
def test_conjugacy_factored_matches_dense(r, first):
    # the criterion on the dense dilations against the factored oracle
    # ||W a b*||_2 = sqrt(tr((a* W^2 a)(b* b))), where U - V = a b* and the
    # weight W = (R(1-R))^{1/2} comes from scipy's sqrtm
    models = _models(FAM3)
    t_grid, sizes = [0.25, 0.5], sorted(models)
    _, per_t = bogoliubov.conjugacy_criterion(
        r,
        lambda t, n: _first_dilation(first, t, n).to_dense(),
        lambda t, n: models[n].flow_dilation(t).to_dense(),
        t_grid,
        sizes,
    )
    for t in t_grid:
        want = []
        for n in sizes:
            a, b = difference_factors(_first_dilation(first, t, n), models[n].flow_dilation(t))
            cov = r(n) if callable(r) else r * np.eye(n)
            want.append(lowrank_hs_norm(sqrtm(cov @ (np.eye(n) - cov)) @ a, b))
        assert per_t[t].values == pytest.approx(want, rel=0, abs=1e-12)
        assert min(per_t[t].values) > 0.1


def _dense_approximation_row(u, v, k_dim):
    """Oracle of one approximation_check deviation from the dense ``U``,
    ``V``: the larger of ``||(U V*)_{K'K'} - 1||`` and ``||(U V*)_{K K'}||``."""
    prod = u @ adjoint(v)
    block = operator_norm(prod[k_dim:, k_dim:] - np.eye(prod.shape[0] - k_dim))
    mixed = operator_norm(prod[:k_dim, k_dim:])
    return max(block, mixed)


@pytest.mark.parametrize("first", ["shift", "fam1-flow", "non-unitary"])
def test_approximation_factored_matches_dense(first):
    model = _models(FAM3)[96]
    t_grid = [0.25, 0.5]
    got = bogoliubov.approximation_check(
        lambda t: _first_dilation(first, t, 96), model.flow_dilation, t_grid
    )
    want = [
        _dense_approximation_row(
            _first_dilation(first, t, 96).to_dense(), model.flow_dilation(t).to_dense(), model.n
        )
        for t in t_grid
    ]
    assert not got["pass"]
    for row, dev in zip(got["rows"], want):
        assert row["offspace_deviation"] == pytest.approx(dev, rel=0, abs=1e-12)
        assert row["offspace_deviation"] > 1e-6


def test_conjugacy_rejects_non_unitary_dilation():
    model = _models(FAM3)[64]
    with pytest.raises(ValueError, match="isometry"):
        bogoliubov.conjugacy_criterion(
            0.25,
            lambda t, n: model.flow_dilation(t).to_dense(),
            lambda t, n: _first_dilation("non-unitary", t, n).to_dense(),
            [0.25],
            [64],
        )


def test_factored_criteria_need_a_shared_permutation():
    model = _models(FAM3)[64]
    with pytest.raises(ValueError, match="different rotations"):
        bogoliubov.approximation_check(
            lambda t: model.shift_dilation(0.25),
            lambda t: model.flow_dilation(0.5),
            [0.25],
        )


def test_araki_blocks_match_the_dense_commutator():
    # non-isotropic R and non-unitary complex V', W': every block counts
    def dense_commutator(r, v, w):
        n = r.shape[0]
        p = quasifree.purification_projection(quasifree.CovarianceState(r))
        d = np.zeros((2 * n, 2 * n), dtype=complex)
        d[:n, :n], d[n:, n:] = v, w
        return hs_norm(d @ p - p @ d)

    def complex_gaussian(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    sizes = [3, 6, 12]
    def v_of(n):
        return complex_gaussian(n, n)

    def w_of(n):
        return complex_gaussian(n, n + 1)

    report = bogoliubov.araki_criterion(_random_covariance, v_of, w_of, sizes)
    for n, value in zip(sizes, report.values):
        want = dense_commutator(_random_covariance(n), v_of(n), w_of(n))
        assert value == pytest.approx(want, rel=1e-12)
    # V' = 0 leaves the blocks -S W', W' S and -[W', R]
    r = _random_covariance(5)
    w = complex_gaussian(5, 9)
    zero = np.zeros((5, 5))
    s = quasifree.purification_projection(quasifree.CovarianceState(r))[:5, 5:]
    want = np.sqrt(hs_norm(s @ w) ** 2 + hs_norm(w @ s) ** 2 + hs_norm(w @ r - r @ w) ** 2)
    assert bogoliubov.araki_commutator(r, zero, w) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu", [0.01, 0.25, 0.5])
@pytest.mark.parametrize("n", [3, 8, 27, 64])
def test_scalar_nu_and_the_matrix_nu_one_agree(nu, n):
    # the scalar keeps S = sqrt(nu(1-nu)) a float; nu * 1 goes through
    # CovarianceState and psd_sqrt; complex, non-unitary V', W'
    gen = np.random.default_rng(100 * n)
    v, w = gen.standard_normal((2, n, n)) + 1j * gen.standard_normal((2, n, n))
    matrix = nu * np.eye(n)
    for x in (v - w, v[:, :2] @ adjoint(w[:, :2])):
        want = bogoliubov.weighted_hs_norm(matrix, x)
        assert bogoliubov.weighted_hs_norm(nu, x) == pytest.approx(want, rel=1e-12)
    want = bogoliubov.araki_commutator(matrix, v, w)
    assert bogoliubov.araki_commutator(nu, v, w) == pytest.approx(want, rel=1e-12)


def _spread_covariance(n, seed):
    """A covariance with eigenvalues spread over [0.1, 0.9], random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return (q * np.linspace(0.1, 0.9, n)) @ q.T


@pytest.mark.parametrize("n", [1, 7, 512])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("covariance", ["scalar", "matrix"])
def test_weights_equal_the_np_dot_forms_to_the_bit(covariance, dtype, n):
    # non-normal V', W' with signed zeros planted: the float weight is
    # multiplied in, a matrix weight still goes through np.dot
    gen = np.random.default_rng(n)
    v, w = gen.standard_normal((2, n, n))
    if dtype is complex:
        v, w = v + 1j * gen.standard_normal((n, n)), w - 1j * gen.standard_normal((n, n))
    v[::3, ::2], w[1::2, ::3] = -0.0, 0.0
    r = 0.25 if covariance == "scalar" else _spread_covariance(n, n)
    for x in (v, w, v - w):
        assert bogoliubov.weighted_hs_norm(r, x) == dot_weighted_hs_norm(r, x)
    assert bogoliubov.araki_commutator(r, v, w) == dot_araki_commutator(r, v, w)


@pytest.mark.parametrize("n", [1, 7, 64, 512])
@pytest.mark.parametrize("covariance", ["scalar", "matrix"])
def test_real_operators_agree_with_their_complex_copies(covariance, n):
    # real V', W' are normed in real arithmetic; their complex copies, the
    # route taken before, give the same values to rounding
    gen = np.random.default_rng(n + 1)
    v, w = gen.standard_normal((2, n, n))
    r = 0.25 if covariance == "scalar" else _spread_covariance(n, n + 1)
    for x in (v, w, v - w):
        want = dot_weighted_hs_norm(r, x, dtype=complex)
        assert bogoliubov.weighted_hs_norm(r, x) == pytest.approx(want, rel=1e-15)
    want = dot_araki_commutator(r, v, w, dtype=complex)
    assert bogoliubov.araki_commutator(r, v, w) == pytest.approx(want, rel=1e-15)


def test_araki_commutator_of_real_operators_takes_less_than_a_complex_copy():
    # the cross block of a float weight is one real matrix, written in place
    v, w = -np.eye(512), np.eye(512)
    tracemalloc.start()
    try:
        value = bogoliubov.araki_commutator(0.25, v, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(2 * np.sqrt(2 * 0.1875 * 512), rel=1e-15)
    assert peak < 512 * 512 * np.dtype(complex).itemsize


def test_weighted_hs_norm_refuses_what_is_not_an_operator_of_the_covariance():
    # a float weight would take the vector, or broadcast over any shape
    with pytest.raises(ValueError, match="expected a square matrix"):
        bogoliubov.weighted_hs_norm(0.25, np.ones(5))
    with pytest.raises(ValueError, match="covariance of size 4 on operators of size 3"):
        bogoliubov.weighted_hs_norm(0.25 * np.eye(4), np.eye(3))


def test_araki_commutator_refuses_operators_of_different_sizes():
    # with a float weight, eye(3) against eye(1) broadcast to 1.5
    with pytest.raises(ValueError, match="operators of different sizes"):
        bogoliubov.araki_commutator(0.25, np.eye(3), np.eye(1))
    with pytest.raises(ValueError, match="covariance of size 2 on operators of size 3"):
        bogoliubov.araki_commutator(0.25 * np.eye(2), np.eye(3), np.eye(3))


def test_extension_criterion_refuses_operators_of_different_sizes():
    # an n-square V' less a 1 x 1 W' would broadcast before the norm
    with pytest.raises(ValueError, match="operators of different sizes"):
        bogoliubov.extension_criterion(0.25, np.eye, lambda n: np.eye(1), [4, 8])


def test_araki_values_of_the_extension_benchmark_config():
    # extension, case "opposite", nu = 0.25, sizes 64..512: the recorded digits
    report = bogoliubov.araki_criterion(0.25, lambda n: -np.eye(n), np.eye, [64, 128, 256, 512])
    assert report.values == [
        9.797958971132712, 13.856406460551018, 19.595917942265423, 27.712812921102035
    ]
