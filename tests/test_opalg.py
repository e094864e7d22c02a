import math

import numpy as np
import pytest
from scipy import sparse

from carshift import opalg, quasifree
from oracles import one_batch_triangular_factor, stack_max_norm

rng = np.random.default_rng(101)


def random_matrix(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_operator_norm_matches_svd_oracle():
    for _ in range(20):
        a = random_matrix(6)
        assert opalg.operator_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_operator_norm_is_numpys_spectral_norm_to_the_bit():
    for shape in ((6, 6), (9, 4), (4, 9), (1, 1)):
        real = rng.standard_normal(shape)
        for a in (real, real + 1j * rng.standard_normal(shape)):
            assert opalg.operator_norm(a) == np.linalg.norm(a, 2)


@pytest.mark.parametrize("rows", [0, 5, 5000])
def test_norms_of_empty_operators_are_zero(rows):
    # 5000 rows take the blocked QR of triangular_factor, on empty blocks
    assert opalg.operator_norm(np.zeros((0, 0))) == 0.0
    empty = np.zeros((rows, 0), dtype=complex)
    assert opalg.lowrank_hs_norm(empty, empty) == 0.0
    assert opalg.lowrank_operator_norm(empty, empty) == 0.0


def test_hs_norm_matches_entrywise_sum():
    a = random_matrix(5)
    assert opalg.hs_norm(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)))


def fsum_norm(a):
    """The Frobenius norm from the exactly rounded sum of the squared real
    and imaginary parts."""
    a = np.asarray(a, dtype=complex)
    return math.sqrt(math.fsum(np.square(np.concatenate([a.real, a.imag], axis=None)).tolist()))


@pytest.mark.parametrize("n", [1, 7, 64, 512, 2048])
@pytest.mark.parametrize("dtype", [float, complex])
def test_hs_norm_matches_the_exactly_rounded_sum(dtype, n):
    gen = np.random.default_rng(n)
    a = gen.standard_normal((n, n)) * np.exp(2 * gen.standard_normal((n, n)))
    if dtype is complex:
        a = a + 1j * gen.standard_normal((n, n))
    want = fsum_norm(a)
    assert abs(opalg.hs_norm(a) - want) <= 1e-15 * want
    # a transposed and a strided view norm the same entries
    assert abs(opalg.hs_norm(a.T) - want) <= 1e-15 * want
    half = a[:, ::2]
    assert abs(opalg.hs_norm(half) - fsum_norm(half)) <= 1e-15 * fsum_norm(half)


@pytest.mark.parametrize(
    "a", [[3.0, 4.0], [0.0, 1.5, 1.5, 0.0], [1 + 1j, -2j], 2.5, -7, np.float32(0.1), [[1, 2], [3, 4]]]
)
def test_hs_norm_of_lists_and_scalars(a):
    want = fsum_norm(a)
    assert abs(opalg.hs_norm(a) - want) <= 1e-15 * want


def test_hs_norm_of_an_empty_array_is_zero():
    for a in ([], np.zeros((0, 5)), np.zeros((3, 0), dtype=complex)):
        assert opalg.hs_norm(a) == 0.0


@pytest.mark.parametrize(
    "a",
    [
        [np.nan, 1.0],
        [np.inf, 1.0],
        [-np.inf, 2.0],
        [np.inf, np.nan],
        [complex(np.inf, 1.0), 1.0],
        [complex(1.0, -np.inf), 0.0],
        [complex(np.inf, np.nan)],
        [complex(np.nan, 0.0), np.inf],
    ],
)
def test_hs_norm_propagates_nan_and_inf_as_np_linalg_norm(a):
    want = np.linalg.norm(np.asarray(a))
    got = opalg.hs_norm(a)
    assert (np.isnan(got), np.isinf(got)) == (np.isnan(want), np.isinf(want))
    if not np.isnan(want):
        assert got == want


@pytest.mark.parametrize("size", [1, 8, 129, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7, 2**20 + 13])
def test_hs_norm_is_the_pairwise_sum_of_the_whole_array_to_the_bit(size):
    # the squares are taken a block at a time, cut where numpy's pairwise sum
    # cuts the whole array
    a = np.random.default_rng(size).standard_normal(size)
    assert opalg.hs_norm(a) == np.sqrt(np.add.reduce(np.square(a)))
    c = a[: size // 2] + 1j * a[size // 2 : 2 * (size // 2)]
    assert opalg.hs_norm(c) == np.sqrt(np.add.reduce(np.square(c.view(float))))


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


def test_psd_sqrt_of_a_real_matrix_is_real():
    # a real symmetric input takes a real eigh, which agrees with the complex one
    a = np.random.default_rng(7).standard_normal((6, 6))
    h = a @ a.T
    s = opalg.psd_sqrt(h)
    assert s.dtype == np.float64
    want = opalg.psd_sqrt(h.astype(complex))
    assert np.linalg.norm(s - want) <= 1e-13 * np.linalg.norm(want)


def graded_operator(labels, target):
    """Random blocks from each sector ``s`` into sector ``target[s]`` (skipped if None)."""
    op = np.zeros((len(labels), len(labels)), dtype=complex)
    for s, t in target.items():
        if t is not None:
            rows, cols = np.flatnonzero(labels == t), np.flatnonzero(labels == s)
            op[np.ix_(rows, cols)] = random_matrix(max(len(rows), len(cols)))[: len(rows), : len(cols)]
    return op


TARGETS = (
    {s: s - 1 if s > -2 else None for s in range(-2, 3)},  # number shift
    {s: -s for s in range(-2, 3)},                        # charge flip
    {s: s for s in range(-2, 3)},                         # block diagonal
)


def test_sector_operator_norm_matches_dense_norm():
    labels = rng.integers(-2, 3, size=24)
    for target in TARGETS:
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


@pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "sparse"])
def test_sector_norms_are_the_norms_of_the_dense_source_blocks(form):
    labels = rng.integers(-2, 3, size=24)
    names = np.unique(labels)
    for target in TARGETS:
        op = graded_operator(labels, target)
        norms = opalg.sector_norms(form(op), labels)
        assert norms.shape == names.shape
        for source, got in zip(names.tolist(), norms):
            to = target.get(source)
            cols = np.flatnonzero(labels == source)
            if to is None or not np.any(labels == to):
                assert got == 0.0  # the sector maps nowhere
                continue
            block = op[np.ix_(np.flatnonzero(labels == to), cols)]
            assert got == pytest.approx(np.linalg.svd(block, compute_uv=False)[0], rel=0, abs=1e-13)


def test_sector_norms_of_zero_blocks_are_zero():
    labels = np.repeat([0, 1, 2], 4)
    op = graded_operator(labels, {0: None, 1: 0, 2: 1})
    op[:, labels == 2] = 0.0  # sector 2's block is zero: it maps nowhere
    norms = opalg.sector_norms(op, labels)
    assert norms[0] == norms[2] == 0.0 and norms[1] > 0.0
    assert np.array_equal(opalg.sector_norms(np.zeros((12, 12)), labels), np.zeros(3))


def test_sector_operator_norm_is_the_largest_of_the_stacks_norms_to_the_bit():
    labels = rng.integers(-2, 3, size=24)
    for target in TARGETS:
        for _ in range(5):
            op = graded_operator(labels, target)
            for form in (np.asarray, sparse.csr_array):
                assert opalg.sector_operator_norm(form(op), labels) == stack_max_norm(op, labels)


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


BLOCK = opalg._QR_BLOCK_ROWS


def tall(rows, cols, dtype=complex):
    a = rng.standard_normal((rows, cols))
    return a + 1j * rng.standard_normal((rows, cols)) if dtype is complex else a


def assert_same_triangular_factor(a):
    """``triangular_factor(a)`` against one QR of ``a``: upper triangular, the
    same ``R*R`` to ``1e-13 ||a||^2`` and the same ``|diag R|``."""
    got, want = opalg.triangular_factor(a), np.linalg.qr(a, mode="r")
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, np.triu(got))
    scale = np.linalg.norm(a) ** 2
    gram = opalg.adjoint(got) @ got - opalg.adjoint(want) @ want
    assert np.linalg.norm(gram) <= 1e-13 * scale
    assert np.allclose(
        np.abs(np.diag(got)), np.abs(np.diag(want)), rtol=0, atol=1e-13 * np.sqrt(scale)
    )
    return got, want


@pytest.mark.parametrize(
    "rows", [2 * BLOCK, 2 * BLOCK + 357, 5 * BLOCK + 1], ids=["two", "two-and-357", "five-and-1"]
)
def test_triangular_factor_of_whole_and_partial_blocks(rows):
    got, want = assert_same_triangular_factor(tall(rows, 7))
    # the blocked route: equal up to a unitary diagonal, not bit for bit
    assert not np.array_equal(got, want)


@pytest.mark.parametrize("rows", [0, 5, BLOCK, 2 * BLOCK - 1])
def test_triangular_factor_below_two_blocks_is_one_qr(rows):
    a = tall(rows, 6)
    assert np.array_equal(opalg.triangular_factor(a), np.linalg.qr(a, mode="r"))


def test_triangular_factor_of_no_columns():
    for rows in (3, 3 * BLOCK + 11):
        assert opalg.triangular_factor(np.zeros((rows, 0), dtype=complex)).shape == (0, 0)


def test_triangular_factor_of_duplicated_columns():
    # [X, -X] with a repeated column, as [X, Y] with X holding -q and Y holding q
    x = tall(3 * BLOCK + 11, 4)
    a = np.hstack([x, x[:, :1], -x])
    got, _ = assert_same_triangular_factor(a)
    assert np.sum(np.abs(np.diag(got)) > 1e-10 * np.linalg.norm(a)) == 4


def test_triangular_factor_of_a_real_matrix_is_real():
    got, _ = assert_same_triangular_factor(tall(2 * BLOCK + 5, 5, dtype=float))
    assert got.dtype == np.float64


def test_triangular_factor_of_non_contiguous_input():
    wide = tall(3 * BLOCK + 100, 10)
    assert_same_triangular_factor(wide[:, ::2])
    assert_same_triangular_factor(wide[:, 3:8])
    assert_same_triangular_factor(np.asfortranarray(wide))


GROUP = opalg._QR_GROUP_BLOCKS


@pytest.mark.parametrize(
    "rows",
    [2 * BLOCK - 1, 2 * GROUP * BLOCK, GROUP * BLOCK + 3 * BLOCK + 357],
    ids=["below-two-blocks", "whole-groups", "partial-group-and-leftover"],
)
def test_triangular_factor_of_column_blocks_is_that_of_their_hstack(rows):
    # a complex and a real block: each group is put side by side on its own
    x, y = tall(rows, 3), tall(rows, 4, dtype=float)
    whole = np.hstack([x, y])
    got = opalg.triangular_factor(x, y)
    assert np.array_equal(got, opalg.triangular_factor(whole))
    assert np.array_equal(got, one_batch_triangular_factor(whole, BLOCK))


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
    want = opalg.sector_operator_norm(op, labels)
    assert opalg.sector_operator_norm(sparse.csr_array(op), labels) == want
    # each block alone: the sparse read gives the norm of the dense block
    for source in np.unique(labels):
        rows, cols = np.flatnonzero(labels == -source), np.flatnonzero(labels == source)
        alone = np.zeros_like(op)
        alone[:, cols] = op[:, cols]
        block = op[np.ix_(rows, cols)]
        assert opalg.sector_operator_norm(sparse.csr_array(alone), labels) == pytest.approx(
            opalg.operator_norm(block), rel=0, abs=1e-13
        )


def per_mode_labels(modes):
    """The per-mode charge labels of the doubled representation of a diagonal covariance."""
    r = np.diag(np.linspace(0.2, 0.7, modes))
    return quasifree.doubled_representation(quasifree.CovarianceState(r)).labels


@pytest.mark.parametrize("case", ["charge-flip", "per-mode"])
@pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "sparse"])
def test_stacked_matrix_of_the_sector_stacks_gives_the_matrix_back(case, form):
    if case == "charge-flip":
        labels = rng.integers(-2, 3, size=24)
        op = graded_operator(labels, {s: -s for s in range(-2, 3)})
    else:
        labels = per_mode_labels(2)
        op = graded_operator(labels, {s: -s for s in np.unique(labels).tolist()})
    blocks = opalg.sector_stacks(form(op), labels)
    for rows, cols, stack in blocks:
        assert np.array_equal(stack, op[rows[:, :, None], cols[:, None, :]])
    back = opalg.stacked_matrix(blocks, len(labels))
    assert blocks == [None] * len(blocks)  # each stack is dropped once written
    assert back.indptr.dtype == back.indices.dtype == np.int32
    assert back.has_canonical_format
    assert np.array_equal(back.toarray(), op)
    # blocks on the same rows and columns written on that pattern share its arrays
    twice = opalg.stacked_matrix(opalg.sector_stacks(form(2.0 * op), labels), len(labels), back)
    assert np.shares_memory(twice.indices, back.indices) and np.shares_memory(twice.indptr, back.indptr)
    assert np.array_equal(twice.toarray(), 2.0 * op)


def test_sector_stacks_come_by_shape_and_their_blocks_by_source_sector():
    # tomita_operator pairs the blocks of X and X* by this order
    labels = per_mode_labels(3)
    op = graded_operator(labels, {s: -s for s in np.unique(labels).tolist()})
    blocks = opalg.sector_stacks(sparse.csr_array(op), labels)
    shapes = [stack.shape[1:] for _, _, stack in blocks]
    assert shapes == sorted(set(shapes))
    assert sum(len(stack) for _, _, stack in blocks) == len(np.unique(labels))
    for rows, cols, _ in blocks:
        sources = labels[cols]
        assert np.all(sources == sources[:, :1]) and np.all(labels[rows] == -sources[:, :1])
        assert np.all(np.diff(sources[:, 0]) > 0)
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(cols) > 0)


def test_zero_matrix_has_no_sector_stacks():
    labels = np.repeat([0, 1, 2], 4)
    for op in (np.zeros((12, 12)), sparse.csr_array((12, 12))):
        assert opalg.sector_stacks(op, labels) == []
        assert opalg.sector_operator_norm(op, labels) == 0.0
    assert opalg.stacked_matrix([], 12).nnz == 0


def test_sector_operator_norm_counts_a_stored_zero_as_zero():
    labels = np.array([0, 1, 1, 2])
    op = sparse.csr_array(
        (np.array([1.0, 2.0, 0.0]), (np.array([1, 3, 3]), np.array([0, 1, 0]))), shape=(4, 4)
    )
    # read, the stored zero at (3, 0) would send sector 0 to sectors 1 and 2
    assert op.nnz == 3
    assert opalg.sector_operator_norm(op, labels) == 2.0
