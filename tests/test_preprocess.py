from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from bitextverify.preprocess import (
    ARABIC_BLOCK_FIRST,
    ARABIC_BLOCK_LAST,
    ARABIC_NUMERIC,
    IDENTITY,
    TransformError,
    apply_transform,
    arabic_to_numeric,
    char_length,
    numeric_to_arabic,
    prepare,
)

from conftest import _ref_arabic_to_numeric, _ref_numeric_to_arabic


def test_char_length_counts_code_points():
    assert char_length("") == 0
    assert char_length("abc def.") == 8
    # combining marks are characters too
    assert char_length("جدِّي") == 5


def test_char_length_verified_reference_sentence():
    # the one reference sentence that survived extraction intact measures 84
    fixture = Path(__file__).parent / "data" / "table5.tsv"
    line = fixture.read_text(encoding="utf-8").splitlines()[2]
    _, arabic, _ = line.split("\t")
    assert char_length(arabic) == 84


class TestForwardMapping:
    def test_arabic_block_single_byte(self):
        assert arabic_to_numeric("س") == b"\xb3"
        assert arabic_to_numeric("؀") == b"\x80"
        assert arabic_to_numeric("ٿ") == b"\xff"

    def test_ascii_passthrough(self):
        assert arabic_to_numeric("abc") == b"abc"
        assert arabic_to_numeric(" .,!") == b" .,!"

    def test_escape_path(self):
        assert arabic_to_numeric("€") == b"\x7f\x00\x20\xac"

    def test_del_is_escaped(self):
        assert arabic_to_numeric("\x7f") == b"\x7f\x00\x00\x7f"

    def test_arabic_presentation_block_above_067f_escapes(self):
        assert arabic_to_numeric("ڀ") == b"\x7f\x00\x06\x80"


class TestInverseMapping:
    def test_high_byte_maps_into_block(self):
        assert numeric_to_arabic(b"\xb3") == "س"
        assert numeric_to_arabic(bytes([0x80 + i for i in range(16)])) == "".join(
            chr(0x0600 + i) for i in range(16)
        )

    def test_escape_of_the_escape(self):
        assert numeric_to_arabic(b"\x7f\x00\x00\x7f") == "\x7f"

    def test_truncated_escape_rejected(self):
        with pytest.raises(TransformError):
            numeric_to_arabic(b"abc\x7f\x00\x06")


mixed_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0x0600, max_codepoint=0x067F),
        st.characters(min_codepoint=0x00, max_codepoint=0x10FFFF, exclude_categories=("Cs",)),
    ),
    max_size=300,
)


@given(mixed_text)
@example("\x7f é \U0001F600 مرحبا")  # DEL, Latin-1, astral and Arabic, every time
def test_round_trip_bijectivity(text):
    assert numeric_to_arabic(arabic_to_numeric(text)) == text


# arbitrary bytes, weighted toward the escape byte and the bytes that bound an escaped code point
transform_bytes = st.lists(
    st.one_of(st.sampled_from([0x00, 0x06, 0x10, 0x11, 0x7E, 0x7F, 0x80, 0xFF]),
              st.integers(0, 255)),
    max_size=40,
).map(bytes)


@given(transform_bytes)
def test_only_transform_images_decode(data):
    """Bytes either are an image of arabic_to_numeric, and round-trip, or raise
    TransformError: an escape of a character written bare (below DEL or in the
    Arabic block) or of no code point (above U+10FFFF) is rejected."""
    try:
        text = numeric_to_arabic(data)
    except TransformError:
        return
    assert arabic_to_numeric(text) == data


# any code point, lone surrogates included, weighted toward the table's edges:
# DEL, the bytes above ASCII, the two noncharacters that end the BMP (U+FFFE is
# charmap's "unmapped" marker), the Arabic block and the astral planes
any_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x00, max_codepoint=0x10FFFF, exclude_categories=()),
        st.sampled_from(["\x7e", "\x7f", "\ud800", "\udfff", "\ufffe", "\uffff"]),
        st.characters(min_codepoint=0x80, max_codepoint=0xFF),
        st.characters(min_codepoint=ARABIC_BLOCK_FIRST, max_codepoint=ARABIC_BLOCK_LAST),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
    ),
    max_size=60,
)


@given(any_text)
def test_codec_matches_the_frozen_recoding_on_text(text):
    assert arabic_to_numeric(text) == _ref_arabic_to_numeric(text)


def _decoded_or_error(decode, data):
    try:
        return decode(data)
    except TransformError as exc:
        return TransformError, str(exc)


@given(st.one_of(transform_bytes, any_text.map(_ref_arabic_to_numeric)))
def test_codec_matches_the_frozen_recoding_on_bytes(data):
    """The same string, or TransformError with the same message, on any bytes."""
    assert _decoded_or_error(numeric_to_arabic, data) == _decoded_or_error(_ref_numeric_to_arabic, data)


@pytest.mark.parametrize("data", [b"\x7f\x00\x00a", b"\x7f\x00\x06\x00", b"\x7f\x00\x06\x7f",
                                  b"\x7f\x11\x00\x00", b"\x7f\xff\xff\xff"])
def test_escape_the_transform_never_writes_rejected(data):
    with pytest.raises(TransformError, match="never escapes"):
        numeric_to_arabic(data)


@given(st.text(alphabet=st.characters(min_codepoint=0x0600, max_codepoint=0x067F), min_size=1, max_size=200))
def test_arabic_block_compresses_vs_utf8(text):
    recoded = arabic_to_numeric(text)
    assert len(recoded) == char_length(text)  # one byte per character
    assert len(recoded) <= len(text.encode("utf-8"))  # utf-8 needs two


@given(mixed_text)
def test_char_length_invariant_under_transform(text):
    for transform, invert in ((IDENTITY, bytes.decode), (ARABIC_NUMERIC, numeric_to_arabic)):
        prepared = prepare(text, transform)
        assert prepared.char_length == char_length(text) == len(text)
        assert invert(prepared.data) == text


def test_identity_transform_is_utf8():
    assert apply_transform("abcس", IDENTITY) == "abcس".encode("utf-8")
    assert apply_transform("abcس", IDENTITY).decode("utf-8") == "abcس"


def test_unknown_transform_rejected():
    with pytest.raises(ValueError):
        apply_transform("x", "rot13")
