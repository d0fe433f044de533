"""Binary linear block codes and file-backed code loading.

A code is its generator matrix G (k x n), a full-rank parity check H
((n-k) x n) with H G^T = 0, and a right inverse of G for message recovery.
Constructors: cyclic BCH codes from GF(2^m) minimal polynomials, CRC-aided
polar codes from a reliability ordering, plus alist (parity check) and dense
hex (generator) file formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .gf2 import (
    BitMatrix,
    BitWord,
    identity,
    mat_mul,
    mat_mul_transposed,
    mat_vec,
    nullspace_basis,
    rank,
    right_inverse,
    row_basis,
    vec_mat,
)


@dataclass(frozen=True)
class LinearCode:
    """An (n, k) binary linear block code with precomputed decode helpers."""

    name: str
    n: int
    k: int
    generator: BitMatrix
    parity_check: BitMatrix
    generator_right_inverse: BitMatrix

    def __post_init__(self) -> None:
        g, h, gi = self.generator, self.parity_check, self.generator_right_inverse
        if (g.n_rows, g.n_cols) != (self.k, self.n):
            raise ValueError(f"generator must be {self.k}x{self.n}")
        if (h.n_rows, h.n_cols) != (self.n - self.k, self.n):
            raise ValueError(f"parity check must be {self.n - self.k}x{self.n}")
        if (gi.n_rows, gi.n_cols) != (self.n, self.k):
            raise ValueError(f"right inverse must be {self.n}x{self.k}")
        if any(mat_mul_transposed(h, g).rows):
            raise ValueError("parity check does not annihilate the generator")
        if mat_mul(g, gi) != identity(self.k):
            raise ValueError("right inverse does not invert the generator")

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def parity_columns(self) -> tuple[int, ...]:
        """Column j of H packed into an int: the syndrome of a single flip at j."""
        return self.parity_check.columns()

    def encode(self, message: BitWord) -> BitWord:
        return vec_mat(message, self.generator)

    def syndrome(self, word: BitWord) -> BitWord:
        return mat_vec(self.parity_check, word)

    def is_codeword(self, word: BitWord) -> bool:
        return self.syndrome(word).is_zero()

    def recover_message(self, codeword: BitWord) -> BitWord:
        return vec_mat(codeword, self.generator_right_inverse)


def code_from_generator(name: str, generator: BitMatrix) -> LinearCode:
    """Build a code from a full-row-rank generator; raises on rank deficiency."""
    h = nullspace_basis(generator)
    gi = right_inverse(generator)  # raises ValueError if rank < k
    return LinearCode(
        name=name,
        n=generator.n_cols,
        k=generator.n_rows,
        generator=generator,
        parity_check=h,
        generator_right_inverse=gi,
    )


def code_from_parity_check(name: str, parity_check: BitMatrix) -> LinearCode:
    """Build a code from a parity check.

    A full-row-rank matrix is kept as given; redundant rows are reduced to a
    basis (the code itself is unchanged either way).
    """
    h = parity_check
    if rank(h) != h.n_rows:
        h = row_basis(h)
    g = nullspace_basis(h)
    return LinearCode(
        name=name,
        n=h.n_cols,
        k=g.n_rows,
        generator=g,
        parity_check=h,
        generator_right_inverse=right_inverse(g),
    )


# ---------------------------------------------------------------------------
# BCH codes


DEFAULT_PRIMITIVE_POLYS: dict[int, int] = {
    # bit i = coefficient of x^i
    3: 0b1011,            # x^3 + x + 1
    4: 0b10011,           # x^4 + x + 1
    5: 0b100101,          # x^5 + x^2 + 1
    6: 0b1000011,         # x^6 + x + 1
    7: 0b10001001,        # x^7 + x^3 + 1
    8: 0b100011101,       # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,      # x^9 + x^4 + 1
    10: 0b10000001001,    # x^10 + x^3 + 1
}


class _GF2m:
    """Log/antilog tables for GF(2^m) under a primitive polynomial."""

    def __init__(self, m: int, primitive_poly: int):
        if primitive_poly >> m != 1:
            raise ValueError(f"primitive polynomial must have degree {m}")
        self.m = m
        self.order = (1 << m) - 1
        antilog = []
        x = 1
        for _ in range(self.order):
            antilog.append(x)
            x <<= 1
            if x >> m:
                x ^= primitive_poly
        if len(set(antilog)) != self.order or x != 1:
            raise ValueError(f"polynomial {primitive_poly:#x} is not primitive")
        self.antilog = antilog
        self.log = {v: i for i, v in enumerate(antilog)}

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % self.order]

    def power(self, exponent: int) -> int:
        return self.antilog[exponent % self.order]


def _minimal_polynomial(field: _GF2m, exponent: int) -> list[int]:
    """Minimal polynomial over GF(2) of alpha^exponent, ascending coefficients."""
    conj = set()
    e = exponent % field.order
    while e not in conj:
        conj.add(e)
        e = (e * 2) % field.order
    poly = [1]
    for e in sorted(conj):
        root = field.power(e)
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(c, root)
        poly = nxt
    if any(c not in (0, 1) for c in poly):
        raise AssertionError("minimal polynomial left GF(2)")
    return poly


def _poly_mul_gf2(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= bj
    return out


def _poly_mod_gf2(a: Sequence[int], b: Sequence[int]) -> list[int]:
    a = list(a)
    while len(a) >= len(b) and any(a):
        if a[-1]:
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] ^= c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def bch_generator_polynomial(
    m: int, t: int, primitive_poly: int | None = None
) -> tuple[int, ...]:
    """Generator polynomial of the narrow-sense BCH code over GF(2^m) that
    corrects t errors: lcm of the minimal polynomials of alpha^1, alpha^3,
    ..., alpha^(2t-1). Ascending coefficients."""
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if 2 * t - 1 >= (1 << m) - 1:
        raise ValueError(f"designed distance too large for m={m}")
    if primitive_poly is None:
        try:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[m]
        except KeyError:
            raise ValueError(f"no default primitive polynomial for m={m}") from None
    field = _GF2m(m, primitive_poly)
    g = [1]
    seen: set[frozenset[int]] = set()
    for e in range(1, 2 * t, 2):
        coset = frozenset((e * (1 << i)) % field.order for i in range(m))
        if coset in seen:
            continue
        seen.add(coset)
        g = _poly_mul_gf2(g, _minimal_polynomial(field, e))
    n = field.order
    x_n_1 = [1] + [0] * (n - 1) + [1]
    if _poly_mod_gf2(x_n_1, g):
        raise AssertionError("generator polynomial does not divide x^n + 1")
    return tuple(g)


def build_bch(m: int, t: int, primitive_poly: int | None = None) -> LinearCode:
    """Narrow-sense BCH code of length 2^m - 1 correcting t errors."""
    g_poly = bch_generator_polynomial(m, t, primitive_poly)
    n = (1 << m) - 1
    k = n - (len(g_poly) - 1)
    g_int = 0
    for d, c in enumerate(g_poly):
        g_int |= c << d
    rows = tuple(g_int << i for i in range(k))  # row i = x^i * g(x)
    generator = BitMatrix(k, n, rows)
    return code_from_generator(f"bch({n},{k})", generator)


# ---------------------------------------------------------------------------
# CRC-aided polar codes


@dataclass(frozen=True)
class CrcSpec:
    """CRC over GF(2): polynomial bit i = coefficient of x^i, including the
    leading x^degree term. Zero-initialized register, no final xor, so the
    check bits are a linear function of the message."""

    degree: int
    polynomial: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("CRC degree must be >= 1")
        if self.polynomial >> self.degree != 1:
            raise ValueError("polynomial must have the x^degree term set")
        if self.polynomial & 1 == 0:
            raise ValueError("polynomial must have the constant term set")


CRC11 = CrcSpec(degree=11, polynomial=(1 << 11) | (1 << 10) | (1 << 9) | (1 << 5) | 1)


def crc_bits(message_bits: Sequence[int], spec: CrcSpec) -> np.ndarray:
    """Check bits for the message (first bit = highest-order coefficient)."""
    deg = spec.degree
    mask = (1 << deg) - 1
    taps = spec.polynomial & mask
    reg = 0
    for b in message_bits:
        fb = ((reg >> (deg - 1)) & 1) ^ (int(b) & 1)
        reg = (reg << 1) & mask
        if fb:
            reg ^= taps
    out = np.zeros(deg, dtype=np.uint8)
    for i in range(deg):
        out[i] = (reg >> (deg - 1 - i)) & 1
    return out


def polarization_weight_order(n: int) -> tuple[int, ...]:
    """Synthetic-channel positions of length-n polar transform, least reliable
    first, ranked by the beta-expansion weight sum(bit_j(i) * 2^(j/4)).
    Ties (none for n <= 1024) would break toward the lower index."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    stages = n.bit_length() - 1
    beta = 2.0 ** 0.25
    weights = [
        sum(beta ** j for j in range(stages) if (i >> j) & 1) for i in range(n)
    ]
    return tuple(int(i) for i in np.argsort(weights, kind="stable"))


def polar_transform_rows(rows: np.ndarray) -> np.ndarray:
    """Apply the n x n butterfly transform to each row of a 0/1 matrix."""
    out = np.array(rows, dtype=np.uint8, copy=True) & 1
    n = out.shape[-1]
    if n & (n - 1):
        raise ValueError(f"row length must be a power of two, got {n}")
    step = 1
    while step < n:
        for start in range(0, n, 2 * step):
            out[..., start : start + step] ^= out[..., start + step : start + 2 * step]
        step *= 2
    return out


def build_ca_polar(
    n: int,
    k_info: int,
    crc: CrcSpec | None = CRC11,
    reliability: Sequence[int] | None = None,
    name: str | None = None,
) -> LinearCode:
    """CRC-aided polar code: message plus CRC on the most reliable positions,
    zeros elsewhere, then the butterfly transform. The CRC is linear, so it
    folds into the k_info x n generator.

    reliability lists all n positions least-reliable-first; default is the
    beta-expansion order of `polarization_weight_order`. Message bits occupy
    the lower-indexed information positions in order, check bits the
    remaining ones.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    crc_deg = crc.degree if crc is not None else 0
    if not 1 <= k_info + crc_deg <= n:
        raise ValueError(
            f"k_info={k_info} plus {crc_deg} check bits does not fit n={n}"
        )
    if reliability is None:
        reliability = polarization_weight_order(n)
    if sorted(reliability) != list(range(n)):
        raise ValueError("reliability sequence must be a permutation of 0..n-1")
    info_positions = sorted(reliability[n - (k_info + crc_deg) :])

    pre = np.zeros((k_info, n), dtype=np.uint8)
    for i in range(k_info):
        unit = np.zeros(k_info, dtype=np.uint8)
        unit[i] = 1
        combined = np.concatenate([unit, crc_bits(unit, crc)]) if crc else unit
        pre[i, info_positions] = combined
    generator = BitMatrix.from_array(polar_transform_rows(pre))
    label = name or f"capolar({n},{k_info}+{crc_deg})"
    return code_from_generator(label, generator)


# ---------------------------------------------------------------------------
# File formats


def save_alist(code: LinearCode, path: str | Path) -> None:
    """Write the parity check in alist format (columns first, 1-based)."""
    h = code.parity_check.to_array()
    m, n = h.shape
    cols = [np.flatnonzero(h[:, j]) + 1 for j in range(n)]
    rows = [np.flatnonzero(h[i, :]) + 1 for i in range(m)]
    lines = [
        f"{n} {m}",
        f"{max((c.size for c in cols), default=0)} "
        f"{max((r.size for r in rows), default=0)}",
        " ".join(str(c.size) for c in cols),
        " ".join(str(r.size) for r in rows),
    ]
    lines += [" ".join(map(str, c)) for c in cols]
    lines += [" ".join(map(str, r)) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _refuse_trailing(path: Path, raw: list[str], used: int) -> None:
    """Refuse a non-blank line after the `used` lines of declared content."""
    for lineno, line in enumerate(raw[used:], start=used + 1):
        if line.strip():
            raise ValueError(f"{path}:{lineno}: unexpected line after the"
                             f" declared content: {line!r}")


def load_alist(path: str | Path) -> LinearCode:
    """Read a parity check in alist format and build the code it defines.

    Zero-padded index lists are accepted. Redundant parity rows are reduced
    to a full-rank basis (the code is unchanged). Errors cite the line number.
    """
    path = Path(path)
    raw = path.read_text().splitlines()

    def fail(lineno: int, msg: str) -> ValueError:
        return ValueError(f"{path}:{lineno}: {msg}")

    def ints(lineno: int, expect: int | None = None) -> list[int]:
        if lineno > len(raw):
            raise fail(len(raw), "file ended early")
        try:
            vals = [int(t) for t in raw[lineno - 1].split()]
        except ValueError:
            raise fail(lineno, f"expected integers, got {raw[lineno - 1]!r}") from None
        if expect is not None and len(vals) != expect:
            raise fail(lineno, f"expected {expect} values, got {len(vals)}")
        return vals

    n, m = ints(1, 2)
    if n < 1 or m < 0:
        raise fail(1, f"bad dimensions {n} x {m}")
    ints(2, 2)  # declared maxima; actual weights are validated below
    col_w = ints(3, n)
    row_w = ints(4, m)
    entries: set[tuple[int, int]] = set()
    for j in range(n):
        lineno = 5 + j
        vals = [v for v in ints(lineno) if v != 0]
        if len(vals) != col_w[j]:
            raise fail(lineno, f"column {j + 1} lists {len(vals)} entries, "
                               f"declared weight {col_w[j]}")
        for r in vals:
            if not 1 <= r <= m:
                raise fail(lineno, f"row index {r} out of range 1..{m}")
            entries.add((r - 1, j))
    h = np.zeros((m, n), dtype=np.uint8)
    for r, j in entries:
        h[r, j] = 1
    for i in range(m):
        lineno = 5 + n + i
        vals = [v for v in ints(lineno) if v != 0]
        if len(vals) != row_w[i]:
            raise fail(lineno, f"row {i + 1} lists {len(vals)} entries, "
                               f"declared weight {row_w[i]}")
        if sorted(vals) != list(np.flatnonzero(h[i]) + 1):
            raise fail(lineno, f"row {i + 1} disagrees with the column lists")
    _refuse_trailing(path, raw, 4 + n + m)
    return code_from_parity_check(path.stem, BitMatrix.from_array(h))


def save_dense_generator(code: LinearCode, path: str | Path) -> None:
    """Write 'n k' then one hex row per generator row (column 0 leftmost)."""
    width = (code.n + 3) // 4
    lines = [f"{code.n} {code.k}"]
    for row in code.generator.rows:
        bits = "".join(str((row >> j) & 1) for j in range(code.n))
        lines.append(f"{int(bits, 2):0{width}x}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_dense_generator(path: str | Path) -> LinearCode:
    """Read the dense hex generator format written by save_dense_generator."""
    path = Path(path)
    raw = path.read_text().splitlines()
    if not raw:
        raise ValueError(f"{path}:1: empty file")
    try:
        n, k = (int(t) for t in raw[0].split())
    except ValueError:
        raise ValueError(f"{path}:1: expected 'n k', got {raw[0]!r}") from None
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"{path}:1: bad dimensions n={n} k={k}")
    if len(raw) < 1 + k:
        raise ValueError(f"{path}:{len(raw)}: expected {k} rows, found {len(raw) - 1}")
    rows = []
    for i in range(k):
        lineno = 2 + i
        try:
            value = int(raw[lineno - 1], 16)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: not a hex row: {raw[lineno - 1]!r}"
            ) from None
        if value >> n:
            raise ValueError(f"{path}:{lineno}: row wider than n={n}")
        bits = format(value, f"0{n}b")
        rows.append(int(bits[::-1], 2))
    _refuse_trailing(path, raw, 1 + k)
    return code_from_generator(path.stem, BitMatrix(k, n, tuple(rows)))
