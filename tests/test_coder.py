import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from bitextverify.coder import CodecError, EncodedBlob, decode, encode, ideal_bits
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import arabic_to_numeric


def empty_snapshot():
    return PpmModel(5, 256).snapshot()


def primed_snapshot():
    model = PpmModel(5, 256)
    model.train(b"the rain in spain falls mainly on the plain")
    model.train(arabic_to_numeric("سبيل السلسبيل"))
    return model.snapshot()


class TestIdealBits:
    def test_empty_text(self):
        assert ideal_bits(empty_snapshot(), b"") == 0.0

    def test_aa_micro_oracle(self):
        # 'a': uniform 1/256 = 8 bits; second 'a': order-0 hit (2*1-1)/(2*1) = 1 bit
        assert ideal_bits(empty_snapshot(), b"aa") == pytest.approx(9.0, abs=1e-9)

    def test_ab_micro_oracle(self):
        # 'a': 8 bits; 'b': unseen order-1 context is free, order-0 escape
        # 1/(2*1) = 1 bit, uniform 8 bits
        assert ideal_bits(empty_snapshot(), b"ab") == pytest.approx(17.0, abs=1e-9)

    def test_uniform_model_adapt_off(self):
        text = b"any text at all, really"
        assert ideal_bits(empty_snapshot(), text, adapt=False) == pytest.approx(8.0 * len(text))

    def test_adaptive_cheaper_than_static_on_repetition(self):
        text = b"abcabcabcabcabcabc"
        snap = empty_snapshot()
        assert ideal_bits(snap, text, adapt=True) < ideal_bits(snap, text, adapt=False)

    def test_does_not_mutate_snapshot(self):
        """ideal_bits, encode and decode, adapt on and off, leave the snapshot's
        dump and hash as they were."""
        for alphabet, extra in ((256, []), (200, [199, 150, 199, 42])):
            model = PpmModel(3, alphabet)
            model.train(b"the rain in spain falls mainly on the plain")
            model.train([199, 150, 199, 150, 7] if extra else b"spain")
            snap = model.snapshot()
            before, hashed = snap.dumps(), snap.config_hash()
            text = list(b"spain rains again") + extra
            for adapt in (True, False):
                first = ideal_bits(snap, text, adapt=adapt)
                assert ideal_bits(snap, text, adapt=adapt) == first
                blob = encode(snap, text, adapt=adapt)
                assert list(decode(snap, blob, adapt=adapt)) == text
                assert encode(snap, text, adapt=adapt) == blob
                assert snap.dumps() == before and model.dumps() == before
                assert snap.config_hash() == hashed == hashlib.sha256(before).digest()[:8]


class TestRoundTrip:
    def test_empty_blob(self):
        snap = empty_snapshot()
        blob = encode(snap, b"")
        assert blob.payload == b"" and blob.length == 0 and blob.payload_bits == 0
        assert decode(snap, blob) == b""

    def test_aa_payload_close_to_ideal(self):
        snap = empty_snapshot()
        blob = encode(snap, b"aa", adapt=True)
        assert decode(snap, blob, adapt=True) == b"aa"
        assert blob.payload_bits <= 9.0 + 64

    def test_all_byte_values(self):
        snap = empty_snapshot()
        text = bytes(range(256)) * 3
        assert decode(snap, encode(snap, text)) == text

    def test_character_alphabet_model(self):
        model = PpmModel(2, 4)
        model.train([0, 1, 2, 0, 1, 2])
        snap = model.snapshot()
        text = [0, 1, 2, 2, 1, 0, 3, 3]
        blob = encode(snap, text)
        assert decode(snap, blob) == bytes(text)

    @given(st.binary(max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_fuzz_identity_and_honesty_empty_model(self, text):
        snap = empty_snapshot()
        blob = encode(snap, text, adapt=True)
        assert decode(snap, blob, adapt=True) == text
        overhead = blob.payload_bits - ideal_bits(snap, text, adapt=True)
        assert 0 <= overhead <= 64

    @given(st.binary(max_size=512), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fuzz_identity_primed_model_both_adapt_flags(self, text, adapt):
        snap = primed_snapshot()
        blob = encode(snap, text, adapt=adapt)
        assert decode(snap, blob, adapt=adapt) == text
        overhead = blob.payload_bits - ideal_bits(snap, text, adapt=adapt)
        assert 0 <= overhead <= 64


class TestAlphabetRange:
    """Every symbol is range-checked once per text, whatever the adapt flag."""

    @staticmethod
    def small_snapshot():
        model = PpmModel(2, 4)
        model.train([0, 1, 2, 0, 1, 2])
        return model.snapshot()

    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("text", [[7, 1], [1, 5], [3, 4], [0, -1], [2, 2, 256]])
    def test_ideal_bits_rejects_out_of_range(self, text, adapt):
        with pytest.raises(ValueError, match="outside alphabet of size 4"):
            ideal_bits(self.small_snapshot(), text, adapt=adapt)

    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("text", [[7, 1], [1, 5], [3, 4], [0, -1], [2, 2, 256]])
    def test_encode_rejects_out_of_range(self, text, adapt):
        with pytest.raises(ValueError, match="outside alphabet of size 4"):
            encode(self.small_snapshot(), text, adapt=adapt)

    @pytest.mark.parametrize("adapt", [True, False])
    def test_wide_alphabet_rejects_out_of_range(self, adapt):
        """At 255, the widest alphabet below 256, bytes() accepts the symbol 255
        and the alphabet check alone rejects it."""
        snap = PpmModel(1, 255).snapshot()
        for text in ([254, 255], [-1], [256]):
            with pytest.raises(ValueError, match="outside alphabet of size 255"):
                ideal_bits(snap, text, adapt=adapt)
            with pytest.raises(ValueError, match="outside alphabet of size 255"):
                encode(snap, text, adapt=adapt)

    def test_in_range_text_still_round_trips(self):
        snap = self.small_snapshot()
        for adapt in (True, False):
            assert decode(snap, encode(snap, [3, 0, 3], adapt), adapt) == bytes([3, 0, 3])


class TestBlobValidation:
    def test_file_format_round_trip(self):
        snap = primed_snapshot()
        blob = encode(snap, b"payload text")
        raw = blob.to_bytes()
        assert raw[:4] == b"PPMC" and raw[4] == 1
        parsed = EncodedBlob.from_bytes(raw)
        assert parsed == blob
        assert decode(snap, parsed) == b"payload text"

    def test_wrong_adapt_flag_detected(self):
        snap = primed_snapshot()
        blob = encode(snap, b"xy", adapt=True)
        with pytest.raises(CodecError):
            decode(snap, blob, adapt=False)

    def test_wrong_model_detected(self):
        blob = encode(primed_snapshot(), b"xy")
        with pytest.raises(CodecError):
            decode(empty_snapshot(), blob)

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            EncodedBlob.from_bytes(b"JUNK" + bytes(17))

    def test_bad_version(self):
        snap = empty_snapshot()
        raw = bytearray(encode(snap, b"q").to_bytes())
        raw[4] = 99
        with pytest.raises(CodecError):
            EncodedBlob.from_bytes(bytes(raw))

    def test_short_header(self):
        with pytest.raises(CodecError):
            EncodedBlob.from_bytes(b"PPMC\x01")

    def test_negative_length(self):
        """from_bytes reads the length unsigned; a blob built by hand can still hold one."""
        snap = primed_snapshot()
        blob = encode(snap, b"xy")._replace(length=-1)
        with pytest.raises(CodecError, match="negative length"):
            decode(snap, blob)


class TestDeterminism:
    def test_identical_blobs_across_runs(self):
        text = b"determinism is a feature" * 8
        blobs = []
        for _ in range(2):
            model = PpmModel(5, 256)
            model.train(b"some priming text, same both times")
            blobs.append(encode(model.snapshot(), text).to_bytes())
        assert blobs[0] == blobs[1]


def test_monotone_priming_on_held_out_text():
    lines = [
        b"the committee met in the city in the morning",
        b"the committee published a report in the evening",
        b"the city published the committee report",
        b"a meeting in the city discussed the report",
    ]
    held_out = b"the committee discussed the city report in the morning"
    primed = PpmModel(5, 256)
    for line in lines:
        primed.train(line)
    assert ideal_bits(primed.snapshot(), held_out) < ideal_bits(empty_snapshot(), held_out)
