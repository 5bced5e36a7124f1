import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsim.codec import (HIGH, LOW, BitStream, hex_to_bits, manchester_decode,
                          manchester_encode, random_payload, read_bits, write_bits)
from radsim.errors import ParameterError, ParseError, ShapeError

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=256)


class TestBitStream:
    def test_rejects_nonbinary(self):
        with pytest.raises(ParameterError):
            BitStream(np.array([0, 2, 1]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            BitStream(np.array([0, 1]), 0.0)


class TestHex:
    def test_nibble_expansion(self):
        assert list(hex_to_bits("0F", 1.0).bits) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert list(hex_to_bits("A3", 1.0).bits) == [1, 0, 1, 0, 0, 0, 1, 1]

    def test_empty(self):
        assert len(hex_to_bits("", 1.0)) == 0

    def test_lowercase(self):
        assert np.array_equal(hex_to_bits("a3", 1.0).bits, hex_to_bits("A3", 1.0).bits)

    def test_bad_digit_names_position(self):
        with pytest.raises(ParseError, match="position 1"):
            hex_to_bits("0G1", 1.0)

    @pytest.mark.parametrize("hex_text, pos", [
        ("0f\u00e9a", 2), ("ab\u0663", 2), (" 0f", 0), ("0f ", 2), ("f" * 4095 + "x", 4095),
    ], ids=["non-ascii", "arabic-indic-digit", "leading-space", "trailing-space", "late"])
    def test_bad_digit_message_names_character_and_position(self, hex_text, pos):
        # bytes.fromhex would skip whitespace; the digit check must not.
        with pytest.raises(ParseError) as info:
            hex_to_bits(hex_text, 1.0)
        assert str(info.value) == f"invalid hex digit {hex_text[pos]!r} at position {pos}"

    @settings(max_examples=50)
    @given(st.text(alphabet="0123456789abcdefABCDEF", max_size=64))
    def test_matches_nibble_reference(self, hex_text):
        expected = "".join(format(int(c, 16), "04b") for c in hex_text)
        assert "".join(map(str, hex_to_bits(hex_text, 1.0).bits)) == expected


class TestRandomPayload:
    def test_deterministic(self):
        a = random_payload(12, 1000, 1.0)
        b = random_payload(12, 1000, 1.0)
        assert np.array_equal(a.bits, b.bits)

    def test_different_seeds_differ(self):
        # Binomial(1000, 1/2) puts the Hamming distance below 400 with
        # probability ~Phi(-6.3); pinned seeds here sit near 500.
        a = random_payload(1, 1000, 1.0)
        b = random_payload(2, 1000, 1.0)
        assert int(np.sum(a.bits != b.bits)) > 400

    def test_ones_fraction(self):
        # 5-sigma band for n=10000 is 0.5 +/- 0.025
        bits = random_payload(3, 10_000, 1.0).bits
        assert 0.45 <= bits.mean() <= 0.55

    def test_needs_positive_length(self):
        with pytest.raises(ParameterError):
            random_payload(0, 0, 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            random_payload(-1, 8, 1.0)


class TestManchester:
    def test_zero_is_high_low(self):
        enc = manchester_encode(BitStream(np.array([0]), 1.0))
        assert list(enc.bits) == [HIGH, LOW]

    def test_one_is_low_high(self):
        enc = manchester_encode(BitStream(np.array([1]), 1.0))
        assert list(enc.bits) == [LOW, HIGH]

    def test_concatenation(self):
        enc = manchester_encode(BitStream(np.array([0, 1, 0]), 1.0))
        assert list(enc.bits) == [HIGH, LOW, LOW, HIGH, HIGH, LOW]

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            manchester_encode(BitStream(np.zeros(0, dtype=np.uint8), 1.0))

    def test_bit_rate_is_kept_exactly_and_checked(self):
        # 1 / (2 * (1 / (2 * 7638.0))) is 7637.999999999999, so the rate is
        # stored, not rebuilt from the half-bit duration.
        stream = BitStream(np.array([0, 1, 1]), 7638.0)
        assert manchester_decode(manchester_encode(stream)).bit_rate == 7638.0
        for rate in (math.nan, math.inf, True, 0.0, -1.0):
            with pytest.raises(ParameterError, match="bit_rate"):
                BitStream(np.array([HIGH, LOW]), rate)

    def test_decode_single(self):
        dec = manchester_decode(BitStream(np.array([HIGH, LOW]), 2 * 1.0))
        assert list(dec.bits) == [0]
        assert dec.bit_rate == 1.0

    def test_invalid_pair_reports_bit_index(self):
        with pytest.raises(ParseError, match="bit 0"):
            manchester_decode(BitStream(np.array([HIGH, HIGH]), 2 * 0.5))
        with pytest.raises(ParseError, match="bit 1"):
            manchester_decode(BitStream(np.array([HIGH, LOW, LOW, LOW]), 2 * 0.5))

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError, match=r"^level count must be even \(two half-bits per bit\), got 1$"):
            manchester_decode(BitStream(np.array([HIGH]), 2 * 0.5))

    def test_symbol_rate_overflow_is_one_line(self):
        # 2 * 1e308 is inf: no float64 holds the half-bit rate of such a stream.
        with pytest.raises(ParameterError) as info:
            manchester_encode(BitStream(np.array([1, 0]), 1e308))
        assert str(info.value) == ("Manchester symbol rate 2 x bit_rate overflows "
                                   "for bit_rate 1e+308")

    @settings(max_examples=100)
    @given(bit_lists)
    def test_round_trip(self, bits):
        stream = BitStream(np.array(bits), 125.0)
        decoded = manchester_decode(manchester_encode(stream))
        assert np.array_equal(decoded.bits, stream.bits)
        assert decoded.bit_rate == stream.bit_rate

    @settings(max_examples=50)
    @given(bit_lists)
    def test_mid_bit_transition_always_present(self, bits):
        enc = manchester_encode(BitStream(np.array(bits), 1.0))
        assert np.all(enc.bits[0::2] != enc.bits[1::2])


class TestTextFiles:
    def test_bits_round_trip(self, tmp_path):
        stream = random_payload(4, 129, 250.0)
        path = tmp_path / "bits.txt"
        write_bits(stream, path)
        assert path.read_text().endswith("\n")
        again = read_bits(path, 250.0)
        assert np.array_equal(again.bits, stream.bits)

    def test_bits_bad_character(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0120\n")
        with pytest.raises(ParseError, match="position 2"):
            read_bits(path, 1.0)

    @pytest.mark.parametrize("text, pos", [
        ("0" * 16383 + "21\n", 16383), ("01\u00e90\n", 2), ("0110\u0661\n", 4), ("01 10\n", 2),
    ], ids=["after-16383-bits", "non-ascii", "arabic-indic-digit", "space"])
    def test_bad_character_message_names_character_and_position(self, tmp_path, text, pos):
        path = tmp_path / "bits.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_bits(path, 1.0)
        assert str(info.value) == f"{path}: invalid bit character {text[pos]!r} at position {pos}"

    def test_empty_bits_file_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("\n")
        stream = read_bits(path, 1.0)
        assert len(stream) == 0 and stream.bits.dtype == np.uint8

    def test_levels_round_trip(self, tmp_path):
        enc = manchester_encode(random_payload(9, 40, 100.0))
        path = tmp_path / "levels.txt"
        write_bits(enc, path)
        assert [int(c) for c in path.read_text().rstrip("\n")] == enc.bits.tolist()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n_bits=st.integers(1, 2000))
    def test_text_is_one_digit_per_value(self, tmp_path_factory, seed, n_bits):
        stream = random_payload(seed, n_bits, 250.0)
        path = tmp_path_factory.mktemp("digits") / "out.txt"
        levels = manchester_encode(stream)
        empty = BitStream(np.zeros(0, np.uint8), 250.0)
        for write, value, digits in ((write_bits, stream, stream.bits),
                                     (write_bits, levels, levels.bits),
                                     (write_bits, empty, empty.bits)):
            write(value, path)
            assert path.read_text() == "".join(map(str, digits)) + "\n"
