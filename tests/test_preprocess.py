from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bitextverify.preprocess import (
    ARABIC_NUMERIC,
    IDENTITY,
    TransformError,
    apply_transform,
    arabic_to_numeric,
    char_length,
    numeric_to_arabic,
    prepare,
)


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
def test_round_trip_bijectivity(text):
    assert numeric_to_arabic(arabic_to_numeric(text)) == text


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
