import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carshift import fock, quasifree
from carshift.opalg import adjoint, anticommutator, inner, operator_norm

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
    t = quasifree.tensor(a, b)
    assert np.allclose(np.diag(t), [1.0, 2.0, 1.0, 2.0])


def test_covariance_spectrum_guard():
    with pytest.raises(ValueError):
        quasifree.CovarianceState(np.diag([0.5, 1.0]))
    with pytest.raises(ValueError):
        quasifree.CovarianceState(np.diag([0.0, 0.5]))


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


def test_size_guard():
    big = quasifree.CovarianceState.isotropic(0.3, fock.MAX_MODES // 2 + 1)
    with pytest.raises(ValueError):
        quasifree.doubled_representation(big)
