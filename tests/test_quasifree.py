import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from carshift import fock, quasifree
from carshift.opalg import adjoint, anticommutator, inner, operator_norm, psd_sqrt
from oracles import doubled_second_quantized, tensor, transposed_creation_fields

rng = np.random.default_rng(77)


def random_covariance(n, lo=0.1, hi=0.9):
    a = rng.standard_normal((n, n))
    sym = a + a.T
    w, v = np.linalg.eigh(sym)
    spec = lo + (hi - lo) * (w - w.min()) / max(np.ptp(w), 1e-12)
    return quasifree.CovarianceState((v * spec) @ v.T)


def test_tensor_convention():
    # first factor lives on the low bits
    a = np.diag([1.0, 2.0])
    b = np.eye(2)
    t = tensor(a, b)
    assert np.allclose(np.diag(t), [1.0, 2.0, 1.0, 2.0])


def _kron(factor, u, w):
    # a(u) (x) Gamma + 1 (x) a*(w), with the first factor on the low bits
    gamma = sparse.csr_array(np.diag(fock.parity(factor)).astype(complex))
    eye = sparse.csr_array(np.eye(factor.dim))
    lowered = fock.sparse_annihilator(factor, u)
    raised = fock.sparse_annihilator(factor, w).conj().T
    return sparse.kron(gamma, lowered, format="csr") + sparse.kron(raised, eye, format="csr")


def _eigen_kron_field(rep, f, g=None):
    # pi(a(f (+) g)) multiplied out in the basis of the eigenmodes of R, with
    # f' = U^T f and g' = U^T g: u = (1-D)^{1/2} f' - D^{1/2} g' and w =
    # conj(D^{1/2} f' + (1-D)^{1/2} g'), elementwise
    f, g = (np.zeros(rep.n) if v is None else rep.state.u.T @ np.asarray(v, dtype=complex)
            for v in (f, g))
    d = rep.state.d
    u = np.sqrt(1.0 - d) * f - np.sqrt(d) * g
    w = np.conj(np.sqrt(d) * f + np.sqrt(1.0 - d) * g)
    return _kron(rep.factor, u, w)


def _kron_field(rep, f, g=None):
    # pi(a(f (+) g)) multiplied out in the number basis of K, with the square
    # roots of R
    f = np.zeros(rep.n) if f is None else np.asarray(f, dtype=complex)
    g = np.zeros(rep.n) if g is None else np.asarray(g, dtype=complex)
    r = rep.state.r
    a, b = psd_sqrt(np.eye(rep.n) - r), psd_sqrt(r)
    u = a @ f - b @ g
    w = np.conj(b @ f + a @ g)
    return _kron(rep.factor, u, w)


def _assert_same_csr(got, want):
    assert got.nnz == want.nnz
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_fields_equal_the_kron_construction_bit_for_bit(modes):
    rep = quasifree.doubled_representation(random_covariance(modes))
    basis = np.eye(modes)
    zero = np.zeros(modes)
    pairs = [
        (rng.standard_normal(modes) + 1j * rng.standard_normal(modes),
         rng.standard_normal(modes) + 1j * rng.standard_normal(modes)),
        (rng.standard_normal(modes), rng.standard_normal(modes)),
        (rng.standard_normal(modes), None),
        (None, rng.standard_normal(modes) + 1j * rng.standard_normal(modes)),
        (basis[0], None),
        (None, -basis[modes - 1]),
        (zero, None),
        (None, None),
    ]
    for f, g in pairs:
        want = _eigen_kron_field(rep, f, g)
        _assert_same_csr(rep.field(f, g), want)
        _assert_same_csr(rep.field_star(f, g), adjoint(want))


@pytest.mark.parametrize("modes", [2, 3])
def test_w_carries_the_fields_to_the_number_basis_of_k(modes):
    # W = Gamma(U) (x) Gamma(U), real, maps the eigenmode basis of the
    # representation to the number basis of K, where the field is the kron
    # construction with the square roots of R; W fixes the vacuum
    rep = quasifree.doubled_representation(random_covariance(modes))
    w = doubled_second_quantized(rep)
    assert np.allclose(w @ rep.vacuum, rep.vacuum, rtol=0, atol=1e-15)
    for _ in range(3):
        f = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        g = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        field = _kron_field(rep, f, g).toarray()
        for got, want in ((rep.field(f, g), field), (rep.field_star(f, g), adjoint(field))):
            got = w @ got.toarray() @ w.T
            assert operator_norm(got - want) <= 1e-12 * operator_norm(want)


def test_basis_vector_fields_drop_the_zero_coefficients():
    # at an isotropic R a basis vector has exactly zero weight on the other
    # modes, so the field keeps the entries of two of its 2n terms, each a
    # partial permutation with dim / 2 entries; the zero field keeps none
    rep = quasifree.doubled_representation(quasifree.CovarianceState.isotropic(0.25, 3))
    e1 = np.eye(3)[1]
    for f, g in ((e1, None), (None, e1)):
        want = _eigen_kron_field(rep, f, g)
        _assert_same_csr(rep.field(f, g), want)
        _assert_same_csr(rep.field_star(f, g), adjoint(want))
        for field in (rep.field(f, g), rep.field_star(f, g)):
            assert field.nnz == rep.dim
            assert np.all(field.data != 0)
    assert rep.field(np.zeros(3)).nnz == rep.field_star(None).nnz == 0


def test_commutant_generator_equals_the_kron_grading():
    rep = quasifree.doubled_representation(random_covariance(3))
    gamma = sparse.csr_array(np.diag(fock.parity(rep.factor)).astype(complex))
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    want = sparse.kron(gamma, gamma, format="csr") @ _eigen_kron_field(rep, None, f)
    _assert_same_csr(rep.gamma_gamma @ rep.field(None, f), want)


@pytest.mark.parametrize("modes", range(1, 7))
def test_layout_gathers_equal_the_kronecker_constructions_bit_for_bit(modes):
    # k = b1 + d b2 with b1 on the low bits: first, second, the factor swap
    # and the vacuum, charges and grading gathered on them, against the
    # Kronecker products of the factor arrays
    rep = quasifree.doubled_representation(random_covariance(modes))
    d = rep.factor.dim
    index, ones = np.arange(d), np.ones(d, dtype=int)
    numbers = fock.particle_numbers(rep.factor)
    weights = (index[:, None] >> np.arange(modes) & 1) @ 3 ** np.arange(modes)
    gamma = fock.parity(rep.factor)
    vacuum = fock.vacuum(rep.factor)
    for got, want in (
        (rep.first, tensor(index, ones)),
        (rep.second, tensor(ones, index)),
        (rep.swap, tensor(d * index, ones) + tensor(ones, index)),
        (rep.vacuum, tensor(vacuum, vacuum)),
        (rep.charge, tensor(numbers, ones) - tensor(ones, numbers)),
        (rep.labels, tensor(weights, ones) - tensor(ones, weights)),
        (rep.gamma_gamma.data, tensor(gamma, gamma).astype(complex)),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(rep.gamma_gamma.indices, np.arange(rep.dim))
    assert np.array_equal(rep.gamma_gamma.indptr, np.arange(rep.dim + 1))
    assert np.array_equal(rep.swap[rep.swap], np.arange(rep.dim))


@pytest.mark.parametrize("modes", range(1, 7))
def test_creation_mode_fields_equal_the_transposed_pattern_fill(modes):
    for state in (random_covariance(modes), quasifree.CovarianceState.isotropic(0.25, modes)):
        rep = quasifree.doubled_representation(state)
        fields = rep.mode_fields()
        assert len(fields) == 2 * modes
        for got, want in zip(fields[modes:], transposed_creation_fields(rep)):
            assert got.dtype == want.dtype
            _assert_same_csr(got, want)


def test_a_representation_merges_one_pattern_and_takes_no_kronecker_product(monkeypatch):
    calls = {"csr_pattern": 0, "kron": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "csr_pattern", counted("csr_pattern", fock.csr_pattern))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    quasifree.doubled_representation(random_covariance(3))
    assert calls == {"csr_pattern": 1, "kron": 0}


def test_covariance_spectrum_guard():
    with pytest.raises(ValueError):
        quasifree.CovarianceState(np.diag([0.5, 1.0]))
    with pytest.raises(ValueError):
        quasifree.CovarianceState(np.diag([0.0, 0.5]))


def test_covariance_must_be_dense():
    with pytest.raises(ValueError, match="covariance must be a dense matrix"):
        quasifree.CovarianceState(sparse.diags_array([0.25, 0.5]))


def test_doubled_fields_satisfy_car():
    state = random_covariance(2)
    rep = quasifree.doubled_representation(state)
    for _ in range(10):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        af = rep.field(f, g).toarray()
        ah = rep.field(h1, h2).toarray()
        assert operator_norm(anticommutator(af, ah)) <= 1e-12
        pairing = np.vdot(f, h1) + np.vdot(g, h2)  # (F, H), antilinear first slot
        resid = anticommutator(adjoint(ah), af) - pairing * np.eye(af.shape[0])
        assert operator_norm(resid) <= 1e-12


def test_two_point_function_real_vectors():
    # omega(a*(f) a(g)) = (f, R g) holds on real vectors
    state = random_covariance(3)
    rep = quasifree.doubled_representation(state)
    for _ in range(20):
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        got = rep.vacuum_expectation([rep.field_star(f), rep.field(g)])
        assert got == pytest.approx(inner(f, state.r @ g), abs=1e-12)


def test_determinant_formula_against_gns():
    state = random_covariance(3)
    rep = quasifree.doubled_representation(state)
    for _ in range(20):
        m = rng.integers(1, 4)
        fs = [rng.standard_normal(3) for _ in range(m)]
        gs = [rng.standard_normal(3) for _ in range(m)]
        want = quasifree.quasifree_expectation(state, fs, gs)
        ops = [rep.field_star(f) for f in reversed(fs)] + [rep.field(g) for g in gs]
        assert rep.vacuum_expectation(ops) == pytest.approx(want, abs=1e-10)


COMPLEX_VECTORS = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
).map(np.array)


@pytest.mark.parametrize("half", [1, 2, 3])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_determinant_formula_complex_vectors(half, data):
    # degree 2 * half, general complex vectors, non-isotropic R
    a = np.random.default_rng(9).standard_normal((3, 3))
    w, v = np.linalg.eigh(a + a.T)
    state = quasifree.CovarianceState((v * (0.1 + 0.8 * (w - w.min()) / np.ptp(w))) @ v.T)
    rep = quasifree.doubled_representation(state)
    fs = data.draw(st.lists(COMPLEX_VECTORS, min_size=half, max_size=half))
    gs = data.draw(st.lists(COMPLEX_VECTORS, min_size=half, max_size=half))
    want = quasifree.quasifree_expectation(state, fs, gs)
    ops = [rep.field_star(f) for f in reversed(fs)] + [rep.field(g) for g in gs]
    scale = np.prod([np.linalg.norm(f) * np.linalg.norm(g) for f, g in zip(fs, gs)])
    assert abs(rep.vacuum_expectation(ops) - want) <= 1e-12 * max(1.0, scale)


def test_charge_grades_the_fields():
    # pi(a(f (+) g)) lowers Q = N_1 - N_2 by one
    state = random_covariance(2)
    rep = quasifree.doubled_representation(state)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rows, cols = rep.field(f, g).nonzero()
    assert len(rows) > 0
    assert np.all(rep.charge[rows] == rep.charge[cols] - 1)
    assert rep.charge[0] == 0 and sorted(set(rep.charge)) == [-2, -1, 0, 1, 2]


def test_mismatched_degrees_vanish():
    state = random_covariance(2)
    rep = quasifree.doubled_representation(state)
    f = rng.standard_normal(2)
    assert quasifree.quasifree_expectation(state, [f], []) == 0.0
    got = rep.vacuum_expectation([rep.field_star(f)])
    assert abs(got) <= 1e-14


def test_the_empty_product_has_expectation_one():
    # the determinant of the empty Gram matrix, as the vacuum gives it
    state = random_covariance(2)
    rep = quasifree.doubled_representation(state)
    assert quasifree.quasifree_expectation(state, [], []) == 1.0
    assert rep.vacuum_expectation([]) == 1.0


def test_purification_projection_properties():
    state = random_covariance(3)
    p = quasifree.purification_projection(state)
    assert operator_norm(p @ p - p) <= 1e-12
    assert operator_norm(p - adjoint(p)) <= 1e-12


def test_purified_two_point_matches_projection():
    # omega(a*(F) a(G)) = (F, P G) for doubled arguments F, G
    state = random_covariance(2)
    rep = quasifree.doubled_representation(state)
    p = quasifree.purification_projection(state)
    for _ in range(20):
        big_f = rng.standard_normal(4)
        big_g = rng.standard_normal(4)
        ops = [rep.field_star(big_f[:2], big_f[2:]), rep.field(big_g[:2], big_g[2:])]
        got = rep.vacuum_expectation(ops)
        assert got == pytest.approx(inner(big_f, p @ big_g), abs=1e-10)


def test_vacuum_is_unit_and_state_normalized():
    state = quasifree.CovarianceState.isotropic(0.25, 2)
    rep = quasifree.doubled_representation(state)
    assert np.linalg.norm(rep.vacuum) == pytest.approx(1.0)
    assert rep.vacuum_expectation([]) == pytest.approx(1.0)


def test_isotropic_guard():
    with pytest.raises(ValueError):
        quasifree.CovarianceState.isotropic(1.0, 2)


def test_non_finite_covariance_is_rejected():
    # every comparison with NaN is False, so only an explicit check catches
    # it; isotropic keeps its off-diagonal zeros exact, where inf * 0 would warn
    for r in (np.full((2, 2), np.nan), np.diag([0.5, np.inf]), np.array([[0.5, np.nan], [0.0, 0.5]])):
        with pytest.raises(ValueError, match="covariance must have finite entries"):
            quasifree.CovarianceState(r)
    for nu in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="covariance must have finite entries"):
            quasifree.CovarianceState.isotropic(nu, 2)


def test_size_guard():
    big = quasifree.CovarianceState.isotropic(0.3, fock.MAX_MODES // 2 + 1)
    with pytest.raises(ValueError):
        quasifree.doubled_representation(big)
