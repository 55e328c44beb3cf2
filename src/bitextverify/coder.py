"""Lossless range coding over model snapshots, and ideal code lengths.

``ideal_bits`` is the canonical code length the scoring metrics use: the sum
of -log2 p along the estimation chain of every symbol, adapting a private
overlay between symbols when ``adapt`` is on. ``encode``/``decode`` prove that
number is honest: the emitted payload is decodable back to the exact input and
its length tracks the ideal length to within a small constant (bounded by 64
bits across the fuzz corpus, typically under 24). ``ideal_bits`` and
``encode`` are one pass of ``ppm.code_text``, which converts the text to
``bytes`` and range-checks every symbol first, so an out-of-alphabet symbol
raises ValueError under either adapt flag. ``decode`` checks the blob and is
one pass of ``ppm.decode_text``, which returns ``bytes``. This module holds
only the PPMC blob format and the range coder; ppm.py alone reads the table.

The coder is a 64-bit range coder with explicit carry propagation into the
already-emitted bytes. PPMD frequencies are exact small integers (2c-1 per
symbol, t for the escape, total 2T), far below the renormalization floor of
2^48, so no probability quantization is ever needed; the only loss against
the ideal length is integer truncation of the range split plus the flush.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence

from .ppm import PpmModel, code_text, decode_text, sha256

_MAGIC = b"PPMC"
_VERSION = 1
_HEADER = struct.Struct(">4sB8sQ")  # magic, version, coding-config hash, symbol count

_PRECISION = 64
_FULL = 1 << _PRECISION
_MASK = _FULL - 1
_SHIFT = _PRECISION - 8
_RENORM = 1 << _SHIFT  # emit a byte while the range is below this


class CodecError(ValueError):
    """Blob failed structural validation (header, version, or coding-config hash)."""


class EncodedBlob(NamedTuple):
    """Header plus arithmetic-coded payload; decodes back to the exact input."""

    config_hash: bytes  # 8-byte digest over (model state, adapt flag)
    length: int  # original symbol count
    payload: bytes

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(_MAGIC, _VERSION, self.config_hash, self.length) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedBlob":
        if len(data) < _HEADER.size:
            raise CodecError("blob shorter than its header")
        magic, version, config_hash, length = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CodecError("bad blob magic (not a PPMC stream)")
        if version != _VERSION:
            raise CodecError(f"unsupported PPMC version {version}")
        return cls(config_hash, length, data[_HEADER.size:])


def _coding_hash(model: PpmModel, adapt: bool) -> bytes:
    return sha256(model.config_hash() + (b"\x01" if adapt else b"\x00")).digest()[:8]


class _RangeEncoder:
    """64-bit range coder; carries ripple back into the emitted byte buffer."""

    __slots__ = ("low", "range", "out")

    def __init__(self):
        self.low = 0
        self.range = _FULL
        self.out = bytearray()

    def encode(self, start: int, freq: int, total: int) -> None:
        r = self.range // total
        self.low += start * r
        self.range = freq * r
        if self.low >= _FULL:
            self._carry()
            self.low -= _FULL
        while self.range < _RENORM:
            self.out.append(self.low >> _SHIFT)
            self.low = (self.low << 8) & _MASK
            self.range <<= 8

    def _carry(self) -> None:
        out = self.out
        i = len(out) - 1
        while i >= 0 and out[i] == 0xFF:
            out[i] = 0
            i -= 1
        if i < 0:
            raise AssertionError("range coder carry escaped the emitted prefix")
        out[i] += 1

    def finish(self) -> bytes:
        # Pick the smallest in-range code point that is a multiple of 2^56 and
        # emit only its top byte; the decoder zero-pads everything below.
        target = ((self.low + _RENORM - 1) >> _SHIFT) << _SHIFT
        if target >= _FULL:
            self._carry()
            target -= _FULL
        self.out.append(target >> _SHIFT)
        return bytes(self.out)


class _RangeDecoder:
    """Mirror of the encoder tracking code-minus-low, which is carry-free."""

    __slots__ = ("rest", "range", "rem")

    def __init__(self, payload: bytes):
        self.rest = iter(payload[8:])  # bytes past the end of the payload read as 0
        self.range = _FULL
        self.rem = int.from_bytes(payload[:8], "big") << max(0, 8 * (8 - len(payload)))

    def split(self, total: int) -> tuple[int, int]:
        """Return (target bin, range unit) for a distribution summing to `total`."""
        r = self.range // total
        return min(self.rem // r, total - 1), r

    def consume(self, start: int, freq: int, r: int) -> None:
        self.rem -= start * r
        self.range = freq * r
        while self.range < _RENORM:
            self.rem = (self.rem << 8) | next(self.rest, 0)
            self.range <<= 8


def encode(model: PpmModel, text: Sequence[int], adapt: bool = True) -> EncodedBlob:
    """Losslessly encode `text` against a model snapshot.

    With ``adapt`` on (the default, standard adaptive behavior) a private
    overlay is updated after each symbol; the snapshot itself never changes.
    """
    config = _coding_hash(model, adapt)
    enc = _RangeEncoder()
    code_text(model, text, adapt, enc)
    n = len(text)
    return EncodedBlob(config, n, enc.finish() if n else b"")


def decode(model: PpmModel, blob: EncodedBlob, adapt: bool = True) -> bytes:
    """Inverse of encode(). Raises CodecError unless the blob was produced
    with an identical model state and adapt flag.

    Returns the decoded symbols as bytes.
    """
    if blob.config_hash != _coding_hash(model, adapt):
        raise CodecError(
            "coding-config hash mismatch: blob was produced with a different "
            "model state or adapt flag"
        )
    if blob.length < 0:
        raise CodecError("negative length")
    return decode_text(model, blob.length, _RangeDecoder(blob.payload), adapt)


def ideal_bits(model: PpmModel, text: Sequence[int], adapt: bool = True,
               cuts: Sequence[int] | None = None) -> float | list[float]:
    """Ideal code length of `text` in bits under a model snapshot.

    Sum over symbols of -log2 p along the estimation chain; with ``adapt`` on,
    a private overlay is updated between symbols. Divide by 8 for bytes. With
    ``cuts``, strictly ascending prefix lengths, the code length of each of
    those prefixes of `text` instead, float for float, from one walk.
    """
    return code_text(model, text, adapt, None, cuts)
