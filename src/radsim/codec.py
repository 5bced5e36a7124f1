"""Payload generation and line coding.

Covers hex/binary payload conversion, seeded random payloads and Manchester
encoding (0: high->low mid-bit, 1: low->high mid-bit, IEEE-802.3 style).
Manchester levels are a :class:`BitStream` at twice the bit rate (1 = high,
0 = low). An empty stream is valid but makes no line code and no signal.

Random payloads are drawn from numpy's default PCG64 generator so a 64-bit
seed reproduces the exact same stream everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError, ShapeError, check_int, check_real
from .signals import _MAX_SAMPLES, _read_text

HIGH = 1
LOW = 0


@dataclass(eq=False)
class BitStream:
    """An ordered binary payload transmitted at ``bit_rate`` bits per second."""

    bits: np.ndarray
    bit_rate: float

    def __post_init__(self):
        check_real("bit_rate", self.bit_rate, 0, bounds="()")
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ShapeError(f"bits must be one-dimensional, got shape {self.bits.shape}")
        if self.bits.size and not np.all((self.bits == 0) | (self.bits == 1)):
            raise ParameterError("bits must contain only 0 and 1")

    def __len__(self) -> int:
        return int(self.bits.size)


def hex_to_bits(hex_text: str, bit_rate: float) -> BitStream:
    """Expand hex digits into bits, most significant bit of each nibble first."""
    pos = len(hex_text) - len(hex_text.lstrip("0123456789abcdefABCDEF"))
    if pos < len(hex_text):
        raise ParseError(f"invalid hex digit {hex_text[pos]!r} at position {pos}")
    pad = len(hex_text) % 2  # fromhex reads whole bytes: a leading 0 evens the digit count
    octets = np.frombuffer(bytes.fromhex("0" * pad + hex_text), dtype=np.uint8)
    return BitStream(np.unpackbits(octets)[4 * pad:], bit_rate)


def random_payload(seed: int, n_bits: int, bit_rate: float) -> BitStream:
    """Uniform random bits from PCG64; identical seed gives identical stream."""
    check_int("n_bits", n_bits, 1, _MAX_SAMPLES)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
    return BitStream(bits, bit_rate)


def _check_nonempty(stream: BitStream, action: str) -> None:
    """Refuse a stream with no bits: it makes no line code and no signal."""
    if len(stream) == 0:
        raise ShapeError(f"cannot {action} an empty stream")


def manchester_encode(stream: BitStream) -> BitStream:
    """Mid-bit transitions at twice the bit rate: 0 -> (high, low), 1 -> (low, high)."""
    _check_nonempty(stream, "Manchester-encode")
    symbol_rate = 2 * stream.bit_rate
    if math.isinf(symbol_rate):
        raise ParameterError(
            f"Manchester symbol rate 2 x bit_rate overflows for bit_rate {stream.bit_rate!r}")
    levels = np.empty(2 * len(stream), dtype=np.uint8)
    levels[0::2] = 1 - stream.bits  # first half-bit: high for 0, low for 1
    levels[1::2] = stream.bits
    return BitStream(levels, symbol_rate)


def manchester_decode(levels: BitStream) -> BitStream:
    """Exact inverse of :func:`manchester_encode`: levels back to bits at half their rate."""
    if len(levels) % 2 != 0:
        raise ShapeError(f"level count must be even (two half-bits per bit), got {len(levels)}")
    first = levels.bits[0::2]
    second = levels.bits[1::2]
    bad = np.nonzero(first == second)[0]
    if bad.size:
        i = int(bad[0])
        pair = "high,high" if first[i] == HIGH else "low,low"
        raise ParseError(f"invalid Manchester pair ({pair}) at bit {i}")
    return BitStream(second.copy(), levels.bit_rate / 2)


def write_bits(stream: BitStream, path) -> None:
    """Serialize as a text file of '0'/'1' characters with a trailing newline."""
    Path(path).write_bytes((stream.bits + ord("0")).tobytes() + b"\n")


def read_bits(path, bit_rate: float) -> BitStream:
    text = _read_text(path).rstrip("\n")
    pos = len(text) - len(text.lstrip("01"))
    if pos < len(text):
        raise ParseError(f"{path}: invalid bit character {text[pos]!r} at position {pos}")
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0") if text else np.zeros(0, np.uint8)
    return BitStream(bits, bit_rate)

