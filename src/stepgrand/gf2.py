"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers, one bit per coordinate
(bit j of the integer is coordinate j). They serve the reference decoder and
the code constructors: a matrix-vector product each way, and one Gauss-Jordan
reduction with three read-outs (basis and null space, null space and right
inverse, row combination). `gf2_product`, the batched product of 0/1 numpy
arrays, runs through float32 matmul and is exact below 2**24 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def parity(x: int) -> int:
    """Parity (XOR fold) of the set bits of a nonnegative int."""
    return x.bit_count() & 1


def word_from_indices(n: int, positions: Iterable[int]) -> int:
    """Packed word of length n with ones at the given 0-based positions."""
    value = 0
    for p in positions:
        if not 0 <= p < n:
            raise ValueError(f"position {p} out of range for length {n}")
        value |= 1 << p
    return value


@dataclass(frozen=True)
class BitWord:
    """A length-tagged GF(2) vector packed into an int (bit j = coordinate j)."""

    n: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value does not fit in {self.n} bits")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitWord":
        bits = np.asarray(arr, dtype=np.uint8) & 1
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls(bits.size, int.from_bytes(packed, "little"))

    def to_array(self) -> np.ndarray:
        raw = np.frombuffer(
            self.value.to_bytes((self.n + 7) // 8 or 1, "little"), dtype=np.uint8
        )
        return np.unpackbits(raw, bitorder="little")[: self.n]

    def weight(self) -> int:
        return self.value.bit_count()

    def is_zero(self) -> bool:
        return self.value == 0

    def flip(self, positions: Iterable[int]) -> "BitWord":
        return BitWord(self.n, self.value ^ word_from_indices(self.n, positions))

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitWord(self.n, self.value ^ other.value)


@dataclass(frozen=True)
class BitMatrix:
    """Row-major packed GF(2) matrix; each row is an int of n_cols bits."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(self.rows)}")
        limit = 1 << self.n_cols
        for i, r in enumerate(self.rows):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} does not fit in {self.n_cols} bits")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitMatrix":
        a = np.atleast_2d(np.asarray(arr, dtype=np.uint8) & 1)
        packed = np.packbits(a, axis=1, bitorder="little")
        rows = tuple(int.from_bytes(p.tobytes(), "little") for p in packed)
        return cls(a.shape[0], a.shape[1], rows)

    def to_array(self) -> np.ndarray:
        nbytes = (self.n_cols + 7) // 8
        raw = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(self.n_rows, nbytes)
        return np.unpackbits(packed, axis=1, count=self.n_cols, bitorder="little")

    def column(self, j: int) -> int:
        """Column j packed into an int (bit i = row i)."""
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range")
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def columns(self) -> tuple[int, ...]:
        """Every column packed into an int, as `column` packs one."""
        packed = np.packbits(self.to_array().T, axis=1, bitorder="little")
        return tuple(int.from_bytes(col.tobytes(), "little") for col in packed)


def gf2_product(a: np.ndarray, b32: np.ndarray) -> np.ndarray:
    """The GF(2) product of 0/1 rows a and a 0/1 float32 matrix, as uint8 bits."""
    # exact in float32: every partial sum is an integer <= a's width < 2**24;
    # cast via int32, since a float above 255 cast to uint8 is undefined in C
    return ((a.astype(np.float32) @ b32).astype(np.int32) & 1).astype(np.uint8)


def mat_vec(m: BitMatrix, v: BitWord) -> BitWord:
    """m @ v over GF(2); v has length n_cols, result length n_rows."""
    if v.n != m.n_cols:
        raise ValueError(f"vector length {v.n} != matrix columns {m.n_cols}")
    out = 0
    for i, row in enumerate(m.rows):
        out |= parity(row & v.value) << i
    return BitWord(m.n_rows, out)


def vec_mat(v: BitWord, m: BitMatrix) -> BitWord:
    """Row vector times matrix: v @ m over GF(2), result length n_cols."""
    if v.n != m.n_rows:
        raise ValueError(f"vector length {v.n} != matrix rows {m.n_rows}")
    out = 0
    vv = v.value
    i = 0
    while vv:
        if vv & 1:
            out ^= m.rows[i]
        vv >>= 1
        i += 1
    return BitWord(m.n_cols, out)


def _row_reduce(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """In-place Gauss-Jordan over GF(2); returns (reduced rows, pivot columns).

    Columns are processed left to right; the pivot for a column is the first
    remaining row with that bit set, which makes the reduction deterministic.
    Bits at positions >= n_cols (augmentation) ride along untouched by pivot
    selection but participate in the XORs.
    """
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        mask = 1 << c
        pivot = next((i for i in range(r, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & mask:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def basis_and_nullspace(m: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
    """(a row basis of m, a basis of {v : m @ v = 0}) from one reduction.

    The row basis is m itself when m has full row rank, else the nonzero rows
    of m's reduced row echelon form; reducing that again changes nothing.
    """
    rows, pivots = _row_reduce(list(m.rows), m.n_cols)
    if len(pivots) < m.n_rows:
        m = BitMatrix(len(pivots), m.n_cols, tuple(rows[: len(pivots)]))
    return m, _nullspace(rows, pivots, m.n_cols)


def nullspace_and_right_inverse(m: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
    """(m's null space basis, an x with m @ x = I) from one reduction; raises
    ValueError unless m has full row rank. If e @ m is reduced with pivot
    columns p_1..p_k, x holds the rows of e at rows p_1..p_k, zeros elsewhere.
    """
    k = m.n_rows
    reduced, pivots = _transform_reduce(m)
    if len(pivots) != k:
        raise ValueError(
            f"matrix has row rank {len(pivots)} < {k}; no right inverse exists"
        )
    x_rows = [0] * m.n_cols
    for j, p in enumerate(pivots):
        x_rows[p] = reduced[j] >> m.n_cols
    return _nullspace(reduced, pivots, m.n_cols), BitMatrix(m.n_cols, k, tuple(x_rows))


def row_combination(m: BitMatrix, v: int) -> int | None:
    """A packed a with a @ m = v (bit i of a selects row i of m), or None
    when v is not in the row space of m."""
    reduced, pivots = _transform_reduce(m)
    low, a = (1 << m.n_cols) - 1, 0
    for j, p in enumerate(pivots):  # RREF: only row j has bit p
        if v >> p & 1:
            v ^= reduced[j] & low
            a ^= reduced[j] >> m.n_cols
    return None if v else a


def _transform_reduce(m: BitMatrix) -> tuple[list[int], list[int]]:
    """Reduce m's rows with the identity appended above bit n_cols: the low
    n_cols bits reduce as m alone would, with the same pivots, and the high
    bits of a reduced row say which rows of m it combines."""
    aug = [row | (1 << (m.n_cols + i)) for i, row in enumerate(m.rows)]
    return _row_reduce(aug, m.n_cols)


def _nullspace(rows: list[int], pivots: list[int], n_cols: int) -> BitMatrix:
    """The basis of {v : m @ v = 0} from a reduction's rows and pivots: one
    row per free column, ascending, so (n_cols - rank) rows of full rank.
    Bits at n_cols and above are ignored."""
    free = sorted(set(range(n_cols)) - set(pivots))
    basis = tuple(1 << f | sum(1 << p for j, p in enumerate(pivots) if rows[j] >> f & 1)
                  for f in free)
    return BitMatrix(len(basis), n_cols, basis)
