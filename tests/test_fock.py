import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from carshift import fock
from carshift.opalg import adjoint, anticommutator, operator_norm
from oracles import second_quantized, wedge_vector

rng = np.random.default_rng(2024)


def random_vec(n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_mode_operators_against_pauli_oracle():
    # one mode: a = [[0,1],[0,0]] in the (|0>, |1>) ordering
    space = fock.FockSpace(1)
    a = fock.mode_annihilator(space, 0)
    assert np.allclose(a, [[0.0, 1.0], [0.0, 0.0]])


def _loop_mode_annihilator(space, i):
    # the Jordan-Wigner definition, entry by entry
    op = np.zeros((space.dim, space.dim), dtype=complex)
    lower = (1 << i) - 1
    for b in range(space.dim):
        if b >> i & 1:
            op[b ^ (1 << i), b] = -1.0 if (b & lower).bit_count() & 1 else 1.0
    return op


def test_tables_match_the_loop_definition():
    space = fock.FockSpace(5)
    loops = [_loop_mode_annihilator(space, i) for i in range(5)]
    for i in range(5):
        assert np.array_equal(fock.mode_annihilator(space, i), loops[i])
    f = random_vec(5)
    f[2] = 0.0
    want = sum(np.conj(f[i]) * loops[i] for i in range(5))
    sparse_af = fock.sparse_annihilator(space, f)
    assert sparse_af.nnz == 4 * 2 ** 4
    assert np.array_equal(sparse_af.toarray(), want)
    assert np.array_equal(fock.annihilator(space, f), want)
    assert fock.sparse_annihilator(space, np.zeros(5)).nnz == 0


def _coo_annihilator(space, f):
    # one COO entry list per mode with a nonzero coefficient, summed into CSR
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for i in np.flatnonzero(f):
        r, c, signs = fock.mode_table(space, i)
        rows.append(r)
        cols.append(c)
        vals.append(np.conj(f[i]) * signs)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csr_array(entries, shape=(space.dim, space.dim))


@pytest.mark.parametrize("modes", [1, 2, 4, 6])
def test_sparse_annihilator_equals_the_coo_route_bit_for_bit(modes):
    space = fock.FockSpace(modes)
    basis = np.eye(modes)
    for f in (random_vec(modes), rng.standard_normal(modes) + 0j, -basis[modes - 1] + 0j,
              basis[0] * (1 - 2j), np.zeros(modes, dtype=complex)):
        got, want = fock.sparse_annihilator(space, f), _coo_annihilator(space, f)
        assert got.nnz == want.nnz == np.count_nonzero(f) * space.dim // 2
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


def test_two_mode_sign_string():
    # annihilating mode 1 through an occupied mode 0 picks up a minus sign
    space = fock.FockSpace(2)
    a1 = fock.mode_annihilator(space, 1)
    both = np.zeros(4)
    both[3] = 1.0  # |11>
    out = a1 @ both
    expect = np.zeros(4)
    expect[1] = -1.0  # -|01> (mode 0 still occupied)
    assert np.allclose(out, expect)


def test_car_anticommutators():
    space = fock.FockSpace(4)
    for _ in range(25):
        f, g = random_vec(4), random_vec(4)
        af, ag = fock.annihilator(space, f), fock.annihilator(space, g)
        assert operator_norm(anticommutator(af, ag)) <= 1e-12
        ident = anticommutator(adjoint(af), ag) - np.vdot(g, f) * np.eye(space.dim)
        assert operator_norm(ident) <= 1e-12


COMPLEX = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), modes=st.integers(1, 6))
def test_sparse_annihilator_car_relations(data, modes):
    # complex vectors, zero entries included
    vectors = st.lists(COMPLEX, min_size=modes, max_size=modes).map(np.array)
    f, g = data.draw(vectors), data.draw(vectors)
    space = fock.FockSpace(modes)
    af, ag = fock.sparse_annihilator(space, f), fock.sparse_annihilator(space, g)
    scale = max(1.0, np.linalg.norm(f) * np.linalg.norm(g))
    assert operator_norm(anticommutator(af, ag).toarray()) <= 1e-12 * scale
    ident = anticommutator(adjoint(af), ag) - np.vdot(g, f) * sparse.eye_array(space.dim)
    assert operator_norm(ident.toarray()) <= 1e-12 * scale
    norm_f = np.linalg.norm(f)
    assert abs(operator_norm(af.toarray()) - norm_f) <= 1e-12 * max(1.0, norm_f)


def test_annihilator_is_antilinear_in_argument():
    space = fock.FockSpace(3)
    f, g = random_vec(3), random_vec(3)
    z = 1.2 - 0.4j
    lhs = fock.annihilator(space, z * f + g)
    rhs = np.conj(z) * fock.annihilator(space, f) + fock.annihilator(space, g)
    assert np.allclose(lhs, rhs)


def test_vacuum_is_annihilated():
    space = fock.FockSpace(3)
    vac = fock.vacuum(space)
    for i in range(3):
        assert np.linalg.norm(fock.mode_annihilator(space, i) @ vac) == 0.0


def test_parity_grades_the_fields():
    space = fock.FockSpace(3)
    gamma = np.diag(fock.parity(space))
    assert np.allclose(gamma @ gamma, np.eye(space.dim))
    a0 = fock.mode_annihilator(space, 0)
    assert operator_norm(anticommutator(gamma, a0)) <= 1e-12


def test_wedge_vectors_orthonormal():
    space = fock.FockSpace(4)
    q, _ = np.linalg.qr(random_vec(16).reshape(4, 4))
    vecs = [q[:, i] for i in range(4)]
    w12 = wedge_vector(space, vecs[:2])
    w34 = wedge_vector(space, vecs[2:])
    assert np.linalg.norm(w12) == pytest.approx(1.0)
    assert abs(np.vdot(w12, w34)) <= 1e-12


def test_second_quantized_intertwines_creation():
    # Lambda(V) a*(f) Lambda(V)* = a*(V f) for unitary V
    space = fock.FockSpace(3)
    q, _ = np.linalg.qr(random_vec(9).reshape(3, 3))
    big = second_quantized(space, q)
    assert np.allclose(adjoint(big) @ big, np.eye(space.dim), atol=1e-12)
    f = random_vec(3)
    lhs = big @ adjoint(fock.annihilator(space, f)) @ adjoint(big)
    rhs = adjoint(fock.annihilator(space, q @ f))
    assert operator_norm(lhs - rhs) <= 1e-10


def test_second_quantized_fixes_vacuum():
    space = fock.FockSpace(3)
    q, _ = np.linalg.qr(random_vec(9).reshape(3, 3))
    big = second_quantized(space, q)
    assert np.allclose(big @ fock.vacuum(space), fock.vacuum(space))


def test_mode_guard():
    with pytest.raises(ValueError):
        fock.FockSpace(fock.MAX_MODES + 1)
    with pytest.raises(ValueError):
        fock.mode_annihilator(fock.FockSpace(2), 2)
