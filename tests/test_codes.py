import random

import numpy as np
import pytest

from stepgrand.codes import (
    CRC11,
    DEFAULT_PRIMITIVE_POLYS,
    CrcSpec,
    LinearCode,
    bch_generator_polynomial,
    build_bch,
    build_ca_polar,
    code_from_generator,
    code_from_parity_check,
    crc_bits,
    load_alist,
    load_dense_generator,
    polar_transform_rows,
    polarization_weight_order,
    save_alist,
    save_dense_generator,
)
from stepgrand.gf2 import BitMatrix, BitWord, mat_mul_transposed, rank

# MATLAB: bchgenpoly(127, 106), ascending powers of x.
BCH_127_106_GENPOLY = [1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1]

# Lin & Costello table 6.4: the double-error-correcting (15, 7) code,
# g(x) = 1 + x^4 + x^6 + x^7 + x^8.
BCH_15_7_GENPOLY = [1, 0, 0, 0, 1, 0, 1, 1, 1]


def poly_mod2_remainder(dividend: list[int], divisor: list[int]) -> list[int]:
    # long division over GF(2), ascending coefficient lists
    a = list(dividend)
    while len(a) >= len(divisor) and any(a):
        if a[-1]:
            for i, c in enumerate(reversed(divisor)):
                a[-1 - i] ^= c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


class TestBch:
    def test_hamming_7_4_generator_polynomial(self):
        assert list(bch_generator_polynomial(3, 1)) == [1, 1, 0, 1]

    def test_15_7_matches_textbook(self):
        assert list(bch_generator_polynomial(4, 2)) == BCH_15_7_GENPOLY

    def test_127_106_matches_matlab(self):
        g = bch_generator_polynomial(7, 3)
        assert list(g) == BCH_127_106_GENPOLY
        assert len(g) - 1 == 21

    def test_generator_divides_x_n_plus_1(self):
        for m, t in [(3, 1), (4, 2), (5, 3), (7, 3)]:
            g = list(bch_generator_polynomial(m, t))
            n = (1 << m) - 1
            x_n_1 = [1] + [0] * (n - 1) + [1]
            assert poly_mod2_remainder(x_n_1, g) == []

    def test_default_primitive_poly_m7(self):
        assert DEFAULT_PRIMITIVE_POLYS[7] == 0b10001001

    def test_build_bch_127_106(self):
        code = build_bch(7, 3)
        assert (code.n, code.k) == (127, 106)
        assert code.parity_check.n_rows == 21
        assert rank(code.parity_check) == 21

    def test_codewords_closed_under_cyclic_shift(self):
        code = build_bch(4, 2)
        rng = random.Random(7)
        for _ in range(50):
            msg = BitWord(code.k, rng.getrandbits(code.k))
            c = code.encode(msg).value
            shifted = ((c << 1) | (c >> (code.n - 1))) & ((1 << code.n) - 1)
            assert code.is_codeword(BitWord(code.n, shifted))

    def test_hamming_min_distance_three(self):
        code = build_bch(3, 1)
        weights = {
            code.encode(BitWord(4, v)).weight() for v in range(1, 16)
        }
        assert min(weights) == 3

    def test_encode_recover_roundtrip(self):
        code = build_bch(7, 3)
        rng = random.Random(11)
        for _ in range(20):
            msg = BitWord(code.k, rng.getrandbits(code.k))
            cw = code.encode(msg)
            assert code.is_codeword(cw)
            assert code.recover_message(cw) == msg

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="m must be"):
            bch_generator_polynomial(2, 1)
        with pytest.raises(ValueError, match="t must be"):
            bch_generator_polynomial(4, 0)
        with pytest.raises(ValueError, match="designed distance"):
            bch_generator_polynomial(3, 4)
        # x^4+x^3+x^2+x+1 is irreducible but has order 5, not 15
        with pytest.raises(ValueError, match="not primitive"):
            bch_generator_polynomial(4, 1, primitive_poly=0b11111)
        with pytest.raises(ValueError, match="degree"):
            bch_generator_polynomial(4, 1, primitive_poly=0b1011)


class TestCrc:
    def crc_by_long_division(self, bits, spec):
        # remainder of m(x) * x^degree, message bit 0 = highest power
        shifted = [0] * spec.degree + [int(b) for b in reversed(bits)]
        divisor = [(spec.polynomial >> i) & 1 for i in range(spec.degree + 1)]
        rem = poly_mod2_remainder(shifted, divisor)
        rem += [0] * (spec.degree - len(rem))
        return np.array(rem[::-1], dtype=np.uint8)

    def test_crc11_polynomial_value(self):
        assert CRC11.degree == 11
        assert CRC11.polynomial == 3617  # x^11 + x^10 + x^9 + x^5 + 1

    def test_matches_long_division(self):
        rng = random.Random(3)
        for _ in range(30):
            bits = [rng.getrandbits(1) for _ in range(rng.randrange(1, 60))]
            expected = self.crc_by_long_division(bits, CRC11)
            assert np.array_equal(crc_bits(bits, CRC11), expected)

    def test_linear_in_the_message(self):
        rng = random.Random(5)
        for _ in range(20):
            a = [rng.getrandbits(1) for _ in range(40)]
            b = [rng.getrandbits(1) for _ in range(40)]
            both = [x ^ y for x, y in zip(a, b)]
            assert np.array_equal(
                crc_bits(both, CRC11), crc_bits(a, CRC11) ^ crc_bits(b, CRC11)
            )

    def test_zero_message_zero_check(self):
        assert not crc_bits([0] * 32, CRC11).any()

    def test_detects_every_single_bit_flip(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]
        check = crc_bits(bits, CRC11)
        for i in range(len(bits)):
            flipped = list(bits)
            flipped[i] ^= 1
            assert not np.array_equal(crc_bits(flipped, CRC11), check)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="x\\^degree"):
            CrcSpec(degree=8, polynomial=0b1011)
        with pytest.raises(ValueError, match="constant term"):
            CrcSpec(degree=3, polynomial=0b1010)


class TestPolarTransform:
    def test_4x4_matrix(self):
        t4 = polar_transform_rows(np.eye(4, dtype=np.uint8))
        expected = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
        assert t4.tolist() == expected

    def test_is_an_involution(self):
        rng = np.random.default_rng(9)
        m = rng.integers(0, 2, size=(20, 32), dtype=np.uint8)
        assert np.array_equal(polar_transform_rows(polar_transform_rows(m)), m)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            polar_transform_rows(np.zeros((1, 6), dtype=np.uint8))


class TestReliabilityOrder:
    def test_extremes(self):
        order = polarization_weight_order(128)
        assert order[0] == 0
        assert order[-1] == 127
        assert sorted(order) == list(range(128))

    def test_bit_superset_is_more_reliable(self):
        order = polarization_weight_order(128)
        pos = {p: i for i, p in enumerate(order)}
        rng = random.Random(13)
        for _ in range(200):
            i, j = rng.randrange(128), rng.randrange(128)
            if i != j and (i & j) == i:  # j covers every set bit of i
                assert pos[i] < pos[j]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            polarization_weight_order(96)


class TestCaPolar:
    def test_smallest_code_without_crc(self):
        code = build_ca_polar(2, 1, crc=None)
        words = {str(code.encode(BitWord(1, v))) for v in range(2)}
        assert words == {"00", "11"}

    def test_length_four_repetition(self):
        # the single most reliable position is index 3, whose transform row
        # is all ones
        code = build_ca_polar(4, 1, crc=None)
        assert str(code.encode(BitWord(1, 1))) == "1111"

    def test_128_105_shapes(self):
        code = build_ca_polar(128, 105)
        assert (code.n, code.k) == (128, 105)
        assert (code.generator.n_rows, code.generator.n_cols) == (105, 128)
        assert (code.parity_check.n_rows, code.parity_check.n_cols) == (23, 128)
        assert rank(code.parity_check) == 23

    def test_codeword_preimage_structure(self):
        # undoing the transform must land message plus check bits on the
        # reliable positions and zeros on the frozen ones
        code = build_ca_polar(128, 105)
        reliability = polarization_weight_order(128)
        info = sorted(reliability[128 - 116 :])
        frozen = sorted(set(range(128)) - set(info))
        rng = random.Random(17)
        for _ in range(20):
            msg = BitWord(105, rng.getrandbits(105))
            cw = code.encode(msg)
            pre = polar_transform_rows(cw.to_array()[None, :])[0]
            assert not pre[frozen].any()
            payload = pre[info]
            assert np.array_equal(payload[:105], msg.to_array())
            assert np.array_equal(payload[105:], crc_bits(msg.to_array(), CRC11))

    def test_recover_roundtrip(self):
        code = build_ca_polar(128, 105)
        rng = random.Random(19)
        for _ in range(20):
            msg = BitWord(105, rng.getrandbits(105))
            assert code.recover_message(code.encode(msg)) == msg

    def test_rejects_overfull_payload(self):
        with pytest.raises(ValueError, match="does not fit"):
            build_ca_polar(64, 60)

    def test_rejects_bad_reliability(self):
        with pytest.raises(ValueError, match="permutation"):
            build_ca_polar(4, 1, crc=None, reliability=[0, 1, 2, 2])


class TestLinearCodeValidation:
    def test_rejects_rank_deficient_generator(self):
        g = BitMatrix.from_array(np.array([[1, 0, 1], [1, 0, 1]]))
        with pytest.raises(ValueError, match="no right inverse"):
            code_from_generator("dup", g)

    def test_rejects_mismatched_parity_check(self):
        code = build_bch(3, 1)
        with pytest.raises(ValueError, match="annihilate"):
            LinearCode(
                name="broken",
                n=code.n,
                k=code.k,
                generator=code.generator,
                parity_check=BitMatrix(3, 7, (1, 2, 4)),
                generator_right_inverse=code.generator_right_inverse,
            )

    def test_parity_columns_are_single_flip_syndromes(self):
        code = build_bch(4, 2)
        for j in range(code.n):
            flip = BitWord(code.n, 1 << j)
            assert code.parity_columns[j] == code.syndrome(flip).value


class TestAlistFormat:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        code = build_bch(4, 2)
        f = tmp_path / "bch15.alist"
        save_alist(code, f)
        loaded = load_alist(f)
        assert loaded.parity_check == code.parity_check
        assert (loaded.n, loaded.k) == (code.n, code.k)

    def test_roundtrip_preserves_codebook(self, tmp_path):
        code = build_ca_polar(32, 20, crc=None)
        f = tmp_path / "polar32.alist"
        save_alist(code, f)
        loaded = load_alist(f)
        stacked = BitMatrix(
            2 * code.k, code.n, code.generator.rows + loaded.generator.rows
        )
        assert rank(stacked) == code.k

    def test_redundant_rows_are_reduced(self, tmp_path):
        f = tmp_path / "dep.alist"
        # rows: 110, 011, 101 = row1 + row2
        f.write_text(
            "3 3\n2 2\n2 2 2\n2 2 2\n1 3\n1 2\n2 3\n1 2\n2 3\n1 3\n"
        )
        code = load_alist(f)
        assert code.parity_check.n_rows == 2
        assert code.k == 1

    def test_zero_padded_entries_accepted(self, tmp_path):
        f = tmp_path / "pad.alist"
        f.write_text("2 1\n1 2\n1 1\n2\n1 0\n1 0\n1 2\n")
        code = load_alist(f)
        assert code.parity_check == BitMatrix(1, 2, (0b11,))

    def test_truncated_file_cites_line(self, tmp_path):
        f = tmp_path / "short.alist"
        f.write_text("4 2\n2 2\n1 1 1 1\n2 2\n1\n2\n")
        with pytest.raises(ValueError, match=r"short\.alist:6: file ended early"):
            load_alist(f)

    def test_weight_mismatch_cites_line(self, tmp_path):
        f = tmp_path / "bad.alist"
        f.write_text("2 1\n1 1\n1 1\n2\n1\n1 1\n1 2\n")
        with pytest.raises(ValueError, match=r"bad\.alist:6"):
            load_alist(f)

    def test_row_column_disagreement_cites_line(self, tmp_path):
        f = tmp_path / "mix.alist"
        f.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n")
        with pytest.raises(ValueError, match=r"mix\.alist:7: row 1"):
            load_alist(f)

    def test_trailing_content_cites_line(self, tmp_path):
        code = build_bch(4, 2)
        f = tmp_path / "tail.alist"
        save_alist(code, f)
        body = f.read_text()
        used = len(body.splitlines())  # 4 header lines, 15 columns, 8 rows
        f.write_text(body + "\n  \n")  # trailing blank lines are accepted
        assert load_alist(f).parity_check == code.parity_check
        for extra, lineno in (("1 2 3\n", used + 1), ("\ngarbage\n", used + 2)):
            f.write_text(body + extra)
            with pytest.raises(ValueError, match=rf"tail\.alist:{lineno}: unexpected line"):
                load_alist(f)

    def test_non_integer_cites_line(self, tmp_path):
        f = tmp_path / "junk.alist"
        f.write_text("2 1\nx y\n")
        with pytest.raises(ValueError, match=r"junk\.alist:2: expected integers"):
            load_alist(f)


class TestDenseGeneratorFormat:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        code = build_bch(7, 3)
        f = tmp_path / "bch127.gen"
        save_dense_generator(code, f)
        loaded = load_dense_generator(f)
        assert loaded.generator == code.generator
        assert (loaded.n, loaded.k) == (127, 106)

    def test_roundtrip_ca_polar(self, tmp_path):
        code = build_ca_polar(128, 105)
        f = tmp_path / "capolar.gen"
        save_dense_generator(code, f)
        loaded = load_dense_generator(f)
        assert loaded.generator == code.generator

    def test_bad_header(self, tmp_path):
        f = tmp_path / "h.gen"
        f.write_text("seven 4\n")
        with pytest.raises(ValueError, match=r"h\.gen:1: expected 'n k'"):
            load_dense_generator(f)

    def test_bad_hex_row_cites_line(self, tmp_path):
        f = tmp_path / "r.gen"
        f.write_text("4 2\nf\nzz\n")
        with pytest.raises(ValueError, match=r"r\.gen:3: not a hex row"):
            load_dense_generator(f)

    def test_row_too_wide(self, tmp_path):
        f = tmp_path / "w.gen"
        f.write_text("4 1\nff\n")
        with pytest.raises(ValueError, match=r"w\.gen:2: row wider"):
            load_dense_generator(f)

    def test_missing_rows(self, tmp_path):
        f = tmp_path / "m.gen"
        f.write_text("4 3\nf\n")
        with pytest.raises(ValueError, match="expected 3 rows"):
            load_dense_generator(f)

    def test_trailing_content_cites_line(self, tmp_path):
        code = build_bch(4, 2)
        f = tmp_path / "tail.gen"
        save_dense_generator(code, f)
        body = f.read_text()  # 'n k' and 7 rows
        f.write_text(body + "\n\n")  # trailing blank lines are accepted
        assert load_dense_generator(f).generator == code.generator
        for extra, lineno in (("7fff\n", 9), ("\ngarbage\n", 10)):
            f.write_text(body + extra)
            with pytest.raises(ValueError, match=rf"tail\.gen:{lineno}: unexpected line"):
                load_dense_generator(f)

    def test_rank_deficient_file_rejected(self, tmp_path):
        f = tmp_path / "dup.gen"
        f.write_text("4 2\n5\n5\n")
        with pytest.raises(ValueError, match="no right inverse"):
            load_dense_generator(f)


def test_parity_check_annihilates_generator_for_all_builders():
    for code in [build_bch(3, 1), build_bch(4, 2), build_ca_polar(16, 8, crc=None)]:
        product = mat_mul_transposed(code.parity_check, code.generator)
        assert not any(product.rows)
