import numpy as np
import pytest
from scipy import sparse

from carshift import opalg

rng = np.random.default_rng(101)


def random_matrix(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_operator_norm_matches_svd_oracle():
    for _ in range(20):
        a = random_matrix(6)
        assert opalg.operator_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_hs_norm_matches_entrywise_sum():
    a = random_matrix(5)
    assert opalg.hs_norm(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)))


def test_adjoint_and_inner_compatibility():
    # <u, A v> == <A* u, v>
    a = random_matrix(7)
    u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert opalg.inner(u, a @ v) == pytest.approx(opalg.inner(opalg.adjoint(a) @ u, v))


def test_commutators():
    a, b = random_matrix(4), random_matrix(4)
    assert np.allclose(opalg.anticommutator(a, b), a @ b + b @ a)


def test_psd_sqrt_squares_back():
    a = random_matrix(5)
    h = (a @ opalg.adjoint(a)).real
    s = opalg.psd_sqrt(h)
    assert np.allclose(s @ s, h, atol=1e-10)


def graded_operator(labels, target):
    """Random blocks from each sector ``s`` into sector ``target[s]`` (skipped if None)."""
    op = np.zeros((len(labels), len(labels)), dtype=complex)
    for s, t in target.items():
        if t is not None:
            rows, cols = np.flatnonzero(labels == t), np.flatnonzero(labels == s)
            op[np.ix_(rows, cols)] = random_matrix(max(len(rows), len(cols)))[: len(rows), : len(cols)]
    return op


def test_sector_operator_norm_matches_dense_norm():
    labels = rng.integers(-2, 3, size=24)
    for target in (
        {s: s - 1 if s > -2 else None for s in range(-2, 3)},  # number shift
        {s: -s for s in range(-2, 3)},                        # charge flip
        {s: s for s in range(-2, 3)},                         # block diagonal
    ):
        for _ in range(5):
            op = graded_operator(labels, target)
            assert opalg.sector_operator_norm(op, labels) == pytest.approx(
                opalg.operator_norm(op), rel=0, abs=1e-13
            )
    assert opalg.sector_operator_norm(np.zeros((24, 24)), labels) == 0.0


def test_sector_operator_norm_rejects_broken_grading():
    labels = np.repeat([0, 1, 2], 4)
    op = graded_operator(labels, {0: None, 1: 0, 2: 1})
    op[9, 4] = 1e-300                   # sector 1 now reaches sectors 0 and 2
    with pytest.raises(ValueError, match="sector"):
        opalg.sector_operator_norm(op, labels)
    merged = graded_operator(labels, {0: 0, 1: 0, 2: None})
    with pytest.raises(ValueError, match="sector"):
        opalg.sector_operator_norm(merged, labels)
    with pytest.raises(ValueError):
        opalg.sector_operator_norm(np.zeros((5, 5)), labels)


def test_polar_antilinear_recovers_factors():
    # S = J Delta^{1/2} with antiunitary J and positive Delta
    # S v = m conj(v) and J v = j conj(v)
    for _ in range(10):
        m = random_matrix(6)
        j, delta, eigenvalues = opalg.polar_antilinear(m)
        assert np.linalg.norm(opalg.adjoint(j) @ j - np.eye(6)) <= 1e-8 * 6
        sqrt_delta = opalg.psd_sqrt(delta)
        v = random_matrix(6)[0]
        assert np.allclose(m @ np.conj(v), j @ np.conj(sqrt_delta @ v), atol=1e-8)
        # Delta = S* S, where S* v = m.T conj(v)
        assert np.allclose(delta, m.T @ np.conj(m), atol=1e-10)
        assert np.allclose(eigenvalues, np.linalg.eigvalsh(delta), atol=1e-10)


@pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-10])
def test_lowrank_hs_norm_accuracy_on_a_cancelling_product(delta):
    # a b* = x y* - x (y + delta z)* = -delta x z*: the Gram trace cancels
    # from about 4 down to delta^2
    unit = [v / np.linalg.norm(v) for v in (random_matrix(400)[:, :1] for _ in range(3))]
    x, y, z = unit
    a = np.hstack([x, -x])
    b = np.hstack([y, y + delta * z])
    want = opalg.hs_norm(a @ opalg.adjoint(b))  # dense oracle
    assert want == pytest.approx(delta, rel=1e-6)
    bound = np.sqrt(np.finfo(float).eps) * opalg.hs_norm(a) * opalg.hs_norm(b)
    assert abs(opalg.lowrank_hs_norm(a, b) - want) <= bound
    # the QR route keeps relative accuracy (rank one: operator norm = HS norm)
    assert opalg.lowrank_operator_norm(a, b) == pytest.approx(want, rel=1e-6)


def test_sector_operator_norm_takes_sparse_input():
    labels = np.array([0, 1, 1, 2])
    op = np.zeros((4, 4), dtype=complex)
    op[1:3, 0] = [1.0, 2.0j]
    op[3, 1:3] = [3.0, -1.0]
    want = opalg.sector_operator_norm(op, labels)
    assert opalg.sector_operator_norm(sparse.csr_array(op), labels) == want


def test_sector_blocks_read_sparse_entries_as_the_dense_matrix():
    labels = rng.integers(-2, 3, size=24)
    op = graded_operator(labels, {s: -s for s in range(-2, 3)})
    dense = opalg.sector_blocks(op, labels)
    stored = opalg.sector_blocks(sparse.csr_array(op), labels)
    assert sorted(dense) == sorted(stored)
    for source, (target, block) in dense.items():
        assert stored[source][0] == target
        assert np.array_equal(stored[source][1], block)
        rows, cols = np.flatnonzero(labels == target), np.flatnonzero(labels == source)
        assert np.array_equal(block, op[np.ix_(rows, cols)])


def test_sector_blocks_count_a_stored_zero_as_zero():
    labels = np.array([0, 1, 1, 2])
    op = sparse.csr_array(
        (np.array([1.0, 2.0, 0.0]), (np.array([1, 3, 0]), np.array([0, 1, 3]))), shape=(4, 4)
    )
    # the stored zero at (0, 3) would send sector 2 to sector 0
    assert op.nnz == 3
    blocks = opalg.sector_blocks(op, labels)
    assert sorted(blocks) == [0, 1]
    assert opalg.sector_operator_norm(op, labels) == 2.0
