"""Reversible text transforms applied before compression, plus length accounting.

``char_length`` counts code points and is what the length-ratio metric uses;
it is invariant under the transform choice. The arabic-numeric transform is a
bijective single-byte recoding of the Arabic block U+0600..U+067F, so Arabic
text reaches the byte-oriented coder at one byte per character instead of the
two bytes UTF-8 needs, which is what makes its code lengths comparable with
the English side. Everything else round-trips through a 4-byte escape. Both
directions run in the standard library's charmap codec, with an error handler
registered as ``bitextverify.arabic-numeric`` that writes and reads the escapes.
"""

from __future__ import annotations

import codecs
from typing import NamedTuple

ARABIC_BLOCK_FIRST = 0x0600
ARABIC_BLOCK_LAST = 0x067F
_ESCAPE = 0x7F  # DEL introduces an escaped 3-byte big-endian code point

IDENTITY = "identity"
ARABIC_NUMERIC = "arabic-numeric"
TRANSFORM_IDS = (IDENTITY, ARABIC_NUMERIC)


class TransformError(ValueError):
    """Byte stream is not a valid transform image (e.g. truncated escape)."""


# Byte b decodes to _TABLE[b]; U+FFFE leaves DEL unmapped, so its escapes reach _escape
_TABLE = "".join(map(chr, [*range(_ESCAPE), 0xFFFE,
                           *range(ARABIC_BLOCK_FIRST, ARABIC_BLOCK_LAST + 1)]))
_ENCODING_MAP = codecs.charmap_build(_TABLE)
_ERRORS = "bitextverify.arabic-numeric"


def _escape(exc: UnicodeError) -> tuple[bytes | str, int]:
    """Charmap error handler: write each unmapped character as its escape, or read one."""
    i, j = exc.start, exc.end
    if isinstance(exc, UnicodeEncodeError):  # UTF-32-BE's zero top byte becomes DEL
        image = bytearray(codecs.utf_32_be_encode(exc.object[i:j], "surrogatepass")[0])
        image[::4] = bytes([_ESCAPE]) * (j - i)
        return bytes(image), j
    if i + 4 > len(exc.object):
        raise TransformError(f"truncated escape sequence at offset {i}")
    cp = int.from_bytes(exc.object[i + 1:i + 4], "big")
    if cp < _ESCAPE or ARABIC_BLOCK_FIRST <= cp <= ARABIC_BLOCK_LAST or cp > 0x10FFFF:
        raise TransformError(f"offset {i}: the transform never escapes U+{cp:04X}")
    return chr(cp), i + 4


codecs.register_error(_ERRORS, _escape)


def char_length(text: str) -> int:
    """Number of characters (code points) in `text`; every code point counts."""
    return len(text)


def arabic_to_numeric(text: str) -> bytes:
    """Recode text so the Arabic block costs one byte per character: U+0600..U+067F
    becomes the single byte cp - 0x0600 + 0x80, ASCII below DEL passes through, and
    every other character (DEL included) becomes 0x7F followed by its code point as
    3 big-endian bytes. Total and bijective on its image."""
    return codecs.charmap_encode(text, _ERRORS, _ENCODING_MAP)[0]


def numeric_to_arabic(data: bytes) -> str:
    """Exact inverse of arabic_to_numeric; raises TransformError on bytes it never writes."""
    return codecs.charmap_decode(data, _ERRORS, _TABLE)[0]


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
