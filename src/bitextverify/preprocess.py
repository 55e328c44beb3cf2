"""Reversible text transforms applied before compression, plus length accounting.

``char_length`` counts code points and is what the length-ratio metric uses;
it is invariant under the transform choice. The arabic-numeric transform is a
bijective single-byte recoding of the Arabic block U+0600..U+067F, so Arabic
text reaches the byte-oriented coder at one byte per character instead of the
two bytes UTF-8 needs, which is what makes its code lengths comparable with
the English side. Everything else round-trips through a 4-byte escape.
"""

from __future__ import annotations

from typing import NamedTuple

ARABIC_BLOCK_FIRST = 0x0600
ARABIC_BLOCK_LAST = 0x067F
_BLOCK_OFFSET = 0x80  # block maps onto bytes 0x80..0xFF
_ESCAPE = 0x7F  # DEL introduces an escaped 3-byte big-endian code point

IDENTITY = "identity"
ARABIC_NUMERIC = "arabic-numeric"
TRANSFORM_IDS = (IDENTITY, ARABIC_NUMERIC)


class TransformError(ValueError):
    """Byte stream is not a valid transform image (e.g. truncated escape)."""


def char_length(text: str) -> int:
    """Number of characters (code points) in `text`; every code point counts."""
    return len(text)


def arabic_to_numeric(text: str) -> bytes:
    """Recode text so the Arabic block costs one byte per character.

    Characters in U+0600..U+067F become the single byte cp - 0x0600 + 0x80;
    ASCII below DEL passes through; every other character (DEL included)
    becomes 0x7F followed by its code point as 3 big-endian bytes. Total and
    bijective on its image.
    """
    out = bytearray()
    for ch in text:
        cp = ord(ch)
        if ARABIC_BLOCK_FIRST <= cp <= ARABIC_BLOCK_LAST:
            out.append(cp - ARABIC_BLOCK_FIRST + _BLOCK_OFFSET)
        elif cp < _ESCAPE:
            out.append(cp)
        else:
            out.append(_ESCAPE)
            out += cp.to_bytes(3, "big")
    return bytes(out)


def numeric_to_arabic(data: bytes) -> str:
    """Exact inverse of arabic_to_numeric; raises TransformError on bytes it never writes."""
    chars = []
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b >= _BLOCK_OFFSET:
            chars.append(chr(b - _BLOCK_OFFSET + ARABIC_BLOCK_FIRST))
            i += 1
        elif b == _ESCAPE:
            if i + 4 > n:
                raise TransformError(f"truncated escape sequence at offset {i}")
            cp = int.from_bytes(data[i + 1:i + 4], "big")
            if cp < _ESCAPE or ARABIC_BLOCK_FIRST <= cp <= ARABIC_BLOCK_LAST or cp > 0x10FFFF:
                raise TransformError(f"offset {i}: the transform never escapes U+{cp:04X}")
            chars.append(chr(cp))
            i += 4
        else:
            chars.append(chr(b))
            i += 1
    return "".join(chars)


def apply_transform(text: str, transform_id: str) -> bytes:
    if transform_id == IDENTITY:
        return text.encode("utf-8")
    if transform_id == ARABIC_NUMERIC:
        return arabic_to_numeric(text)
    raise ValueError(f"unknown transform {transform_id!r}")


class PreparedText(NamedTuple):
    """A text's length in characters and its transform image."""

    char_length: int
    data: bytes


def prepare(text: str, transform_id: str = IDENTITY) -> PreparedText:
    return PreparedText(char_length(text), apply_transform(text, transform_id))
