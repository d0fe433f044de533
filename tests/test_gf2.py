"""Packed GF(2) algebra against numpy mod-2 reference computations."""

from __future__ import annotations

import numpy as np
import pytest

from stepgrand.gf2 import (
    BitMatrix,
    BitWord,
    basis_and_nullspace,
    gf2_product,
    mat_vec,
    nullspace_and_right_inverse,
    parity,
    row_combination,
    vec_mat,
    word_from_indices,
)


def eye(n):
    return BitMatrix.from_array(np.eye(n, dtype=np.uint8))


def ref_rank(a):
    """Rank over GF(2) by Gaussian elimination on a 0/1 numpy array."""
    a = np.asarray(a, dtype=np.uint8) % 2
    r = 0
    for c in range(a.shape[1]):
        piv = next((i for i in range(r, a.shape[0]) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


def random_matrix(rng, n_rows, n_cols):
    return BitMatrix.from_array(rng.integers(0, 2, size=(n_rows, n_cols)))


def random_full_rank(rng, n_rows, n_cols):
    assert n_rows <= n_cols
    while True:
        m = random_matrix(rng, n_rows, n_cols)
        if ref_rank(m.to_array()) == n_rows:
            return m


def test_parity_and_word_helpers():
    assert parity(0) == 0
    assert parity(0b1011) == 1
    assert word_from_indices(8, [0, 3, 7]) == 0b10001001
    with pytest.raises(ValueError):
        word_from_indices(4, [4])


def test_bitword_bit_order_and_roundtrip():
    w = BitWord.from_array(np.array([1, 0, 1, 1, 0]))
    assert w.n == 5
    assert w.value == 0b01101  # bit j of the int is coordinate j
    assert w.to_array().tolist() == [1, 0, 1, 1, 0]
    assert w.weight() == 3
    back = BitWord.from_array(w.to_array())
    assert back == w


def test_bitword_flip_and_xor():
    w = BitWord(6, 0)
    flipped = w.flip([1, 4])
    assert flipped.value == 0b010010
    assert (flipped ^ flipped).is_zero()
    with pytest.raises(ValueError):
        BitWord(3, 0) ^ BitWord(4, 0)
    with pytest.raises(ValueError):
        BitWord(3, 8)


def test_bitword_array_roundtrip_random():
    rng = np.random.default_rng(7)
    for n in (1, 7, 8, 63, 64, 65, 128, 200):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        w = BitWord.from_array(bits)
        assert np.array_equal(w.to_array(), bits)


def test_mat_vec_example():
    m = BitMatrix.from_array(np.array([[1, 0, 1], [0, 1, 1]]))
    s = mat_vec(m, BitWord.from_array(np.array([1, 0, 1])))
    assert s.to_array().tolist() == [0, 1]


def test_mat_vec_identity_and_empty():
    v = BitWord.from_array(np.array([1, 1, 0, 1]))
    assert mat_vec(eye(4), v) == v
    empty = BitMatrix(0, 4, ())
    assert mat_vec(empty, v).n == 0
    assert mat_vec(empty, v).is_zero()
    with pytest.raises(ValueError):
        mat_vec(eye(3), v)


def test_mat_vec_matches_numpy_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r, c = rng.integers(1, 40, size=2)
        a = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        v = rng.integers(0, 2, size=c, dtype=np.uint8)
        got = mat_vec(BitMatrix.from_array(a), BitWord.from_array(v))
        assert np.array_equal(got.to_array(), (a @ v) % 2)


def test_mat_vec_linearity():
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 12, 30)
    for _ in range(200):
        a = BitWord.from_array(rng.integers(0, 2, size=30, dtype=np.uint8))
        b = BitWord.from_array(rng.integers(0, 2, size=30, dtype=np.uint8))
        assert mat_vec(m, a ^ b) == mat_vec(m, a) ^ mat_vec(m, b)


def test_vec_mat_matches_numpy_reference():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r, c = rng.integers(1, 40, size=2)
        a = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        v = rng.integers(0, 2, size=r, dtype=np.uint8)
        got = vec_mat(BitWord.from_array(v), BitMatrix.from_array(a))
        assert np.array_equal(got.to_array(), (v @ a) % 2)


def test_gf2_product_matches_numpy_reference():
    rng = np.random.default_rng(19)
    for _ in range(30):
        r, inner, c = rng.integers(1, 25, size=3)
        a = rng.integers(0, 2, size=(r, inner), dtype=np.uint8)
        b = rng.integers(0, 2, size=(inner, c), dtype=np.uint8)
        got = gf2_product(a, b.astype(np.float32))
        assert got.dtype == np.uint8
        assert np.array_equal(got, (a @ b) % 2)


def test_columns():
    a = np.array([[1, 0, 1], [1, 1, 0]])
    m = BitMatrix.from_array(a)
    assert m.column(0) == 0b11
    assert m.column(1) == 0b10
    assert m.column(2) == 0b01
    assert m.columns() == (0b11, 0b10, 0b01)


@pytest.mark.parametrize("n_rows, n_cols", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 7),
                                            (5, 8), (6, 9), (105, 128), (128, 105)])
def test_to_array_and_columns_round_trip(n_rows, n_cols):
    # widths that are not a multiple of 8 pad their last byte, and 0 rows or
    # 0 columns unpack to an empty array of the right shape
    a = np.random.default_rng(n_rows * 131 + n_cols).integers(
        0, 2, size=(n_rows, n_cols), dtype=np.uint8)
    m = BitMatrix.from_array(a)
    assert (m.n_rows, m.n_cols) == (n_rows, n_cols)
    got = m.to_array()
    assert got.dtype == np.uint8 and got.shape == (n_rows, n_cols)
    assert np.array_equal(got, a)
    assert BitMatrix.from_array(got) == m
    assert m.columns() == tuple(m.column(j) for j in range(n_cols))
    assert m.columns() == BitMatrix.from_array(a.T).rows


def test_basis_rank_examples():
    assert basis_and_nullspace(eye(4))[0].n_rows == 4
    assert basis_and_nullspace(BitMatrix(3, 5, (0, 0, 0)))[0].n_rows == 0
    assert basis_and_nullspace(BitMatrix.from_array(np.array([[1, 1], [1, 1]])))[0].n_rows == 1


def test_basis_rank_matches_numpy_gauss():
    rng = np.random.default_rng(23)
    for _ in range(40):
        rows, cols = rng.integers(1, 30, size=2)
        a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        assert basis_and_nullspace(BitMatrix.from_array(a))[0].n_rows == ref_rank(a)


def test_basis_idempotent_and_rank_preserving():
    rng = np.random.default_rng(27)
    m = random_matrix(rng, 10, 14)
    b, h = basis_and_nullspace(m)
    assert b.n_rows == ref_rank(m.to_array())
    assert basis_and_nullspace(b) == (b, h)
    assert basis_and_nullspace(b)[0] is b  # a full-rank matrix comes back as given


def test_nullspace_example():
    g = BitMatrix.from_array(np.array([[1, 0, 1], [0, 1, 1]]))
    h = basis_and_nullspace(g)[1]
    assert h.n_rows == 1
    assert BitWord(3, h.rows[0]).to_array().tolist() == [1, 1, 1]


def test_nullspace_of_identity_is_empty():
    h = basis_and_nullspace(eye(4))[1]
    assert (h.n_rows, h.n_cols) == (0, 4)


def test_nullspace_properties():
    rng = np.random.default_rng(29)
    for _ in range(40):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(rows, 20))
        m = random_matrix(rng, rows, cols)
        h = basis_and_nullspace(m)[1]
        assert h.n_rows == cols - ref_rank(m.to_array())
        assert ref_rank(h.to_array()) == h.n_rows
        for row in h.rows:
            assert mat_vec(m, BitWord(cols, row)).is_zero()


def test_right_inverse_systematic_layout():
    g = BitMatrix.from_array(
        np.array([[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    )
    x = nullspace_and_right_inverse(g)[1]
    expected = np.zeros((5, 3), dtype=np.uint8)
    expected[:3] = np.eye(3, dtype=np.uint8)
    assert np.array_equal(x.to_array(), expected)


def test_right_inverse_roundtrip():
    rng = np.random.default_rng(31)
    g = random_full_rank(rng, 10, 24)
    x = nullspace_and_right_inverse(g)[1]
    product = gf2_product(g.to_array(), x.to_array().astype(np.float32))
    assert np.array_equal(product, np.eye(10, dtype=np.uint8))
    for _ in range(1000):
        u = BitWord.from_array(rng.integers(0, 2, size=10, dtype=np.uint8))
        c = vec_mat(u, g)
        assert vec_mat(c, x) == u


def test_right_inverse_requires_full_row_rank():
    deficient = BitMatrix.from_array(np.array([[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError, match="rank"):
        nullspace_and_right_inverse(deficient)


def test_one_reduction_gives_the_null_space_of_two():
    # the augmented reduction behind the right inverse reads out the same
    # null space as the plain one; and one reduction of m gives the null
    # space that a second reduction, of m's basis, would
    rng = np.random.default_rng(37)
    for _ in range(40):
        rows = int(rng.integers(0, 12))
        m = random_full_rank(rng, rows, int(rng.integers(max(rows, 1), 20)))
        assert nullspace_and_right_inverse(m)[0] == basis_and_nullspace(m)[1]
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 20)))
        b, h = basis_and_nullspace(m)
        assert basis_and_nullspace(b)[1] == h
    deficient = BitMatrix.from_array(np.array([[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError, match="rank"):
        nullspace_and_right_inverse(deficient)


def test_row_combination_solves_a_times_m():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(0, 10)), int(rng.integers(1, 16)))
        a = int(rng.integers(0, 1 << m.n_rows))
        v = vec_mat(BitWord(m.n_rows, a), m).value
        got = row_combination(m, v)
        assert vec_mat(BitWord(m.n_rows, got), m).value == v
        if basis_and_nullspace(m)[0].n_rows < m.n_cols:  # some word lies outside the row space
            outside = next(w for w in range(1 << m.n_cols)
                           if row_combination(m, w) is None)
            assert all(vec_mat(BitWord(m.n_rows, b), m).value != outside
                       for b in range(1 << m.n_rows))


def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (0,))
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))
