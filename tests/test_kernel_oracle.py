"""The escape-chain kernel against a frozen reference implementation.

``ref_ideal_bits`` and ``ref_encode`` are the generator-based ``_walk``
implementations the kernel replaced, kept verbatim in logic and reading the
model only through its public ``stats()``. The kernel must reproduce them
exactly: the same floats, summed in the same order, and the same blob bytes.
The ``table5.tsv`` pins were captured from that implementation, as
``float.hex`` strings so that no rounding in printing can hide a drift.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bitextverify.coder import EncodedBlob, _coding_hash, _RangeEncoder, encode, ideal_bits
from bitextverify.corpus import load_tsv
from bitextverify.metrics import score_pair
from bitextverify.ppm import ContextStats, PpmModel
from bitextverify.preprocess import arabic_to_numeric

from conftest import DETERMINISTIC_ESCAPE, ESCAPE, SYMBOL, _ref_walk

# pair id -> (bits_a, bits_e) under the bundled models, default transform
TABLE5_BITS = {
    "1": ("0x1.4f9191217dfcap+8", "0x1.c3d1fe9aa7685p+8"),
    "2": ("0x1.0ef3e0458d7d6p+8", "0x1.6067e30e18968p+8"),
    "3": ("0x1.0ec0770ca8809p+9", "0x1.3c1eb7657a458p+9"),
    "4": ("0x1.4a1cab068e00ep+8", "0x1.4fd3d2a3f1f76p+8"),
    "5": ("0x1.2f550864d238ep+8", "0x1.c5a237a6df913p+8"),
    "6": ("0x1.8f430544bfc65p+8", "0x1.196d4272db181p+9"),
    "7": ("0x1.8cd976fb8840ep+8", "0x1.043838d51c7f5p+9"),
    "8": ("0x1.1d24fceb79635p+9", "0x1.3c0821305c65dp+9"),
    "9": ("0x1.421a73fcc2a2bp+7", "0x1.90ee492c08f02p+7"),
    "10": ("0x1.585644cdd7c7fp+8", "0x1.7f2c845ca528ap+8"),
}


# -- reference ----------------------------------------------------------------
# (the per-symbol walk, _ref_walk, is shared with test_ppm.py through conftest.py)


class _RefOverlay:
    def __init__(self, base):
        self.base = base
        self.local = {}

    def get(self, ctx):
        stats = self.local.get(ctx)
        return stats if stats is not None else self.base.stats(ctx)

    def update(self, history, symbol):
        n = len(history)
        start = n - self.base.max_order if n > self.base.max_order else 0
        for j in range(n + 1, start, -1):
            ctx = tuple(history[j - 1:n]) if j <= n else ()
            stats = self.local.get(ctx) or self.base.stats(ctx) or ContextStats({}, 0)
            # stats() returns a copy: counting in it leaves the model as it was
            stats.counts[symbol] = stats.counts.get(symbol, 0) + 1
            self.local[ctx] = stats._replace(total=stats.total + 1)


def _ref_views(model, adapt):
    if adapt:
        overlay = _RefOverlay(model)
        return overlay.get, overlay.update
    return model.stats, None


def ref_ideal_bits(model, text, adapt=True):
    lookup, update = _ref_views(model, adapt)
    d = model.max_order
    alphabet = model.alphabet_size
    log2 = math.log2
    bits = 0.0
    for i in range(len(text)):
        sym = text[i]
        hist = text[i - d if i > d else 0:i]
        for _, _, num, den, _ in _ref_walk(lookup, hist, sym, d, alphabet):
            if num != den:
                bits += log2(den) - log2(num)
        if update is not None:
            update(hist, sym)
    return bits


def ref_encode(model, text, adapt=True):
    config = _coding_hash(model, adapt)
    n = len(text)
    if n == 0:
        return EncodedBlob(config, 0, b"")
    lookup, update = _ref_views(model, adapt)
    d = model.max_order
    alphabet = model.alphabet_size
    enc = _RangeEncoder()
    for i in range(n):
        sym = text[i]
        hist = text[i - d if i > d else 0:i]
        for order, kind, num, den, stats in _ref_walk(lookup, hist, sym, d, alphabet):
            if kind is DETERMINISTIC_ESCAPE:
                continue
            if order == -1:
                enc.encode(sym, 1, alphabet)
            elif kind is ESCAPE:
                enc.encode(den - num, num, den)
            else:
                start = 0
                for s, c in stats.counts.items():
                    if s == sym:
                        break
                    start += 2 * c - 1
                enc.encode(start, num, den)
        if update is not None:
            update(hist, sym)
    return EncodedBlob(config, n, enc.finish())


# -- models and texts -----------------------------------------------------------


def _empty():
    return PpmModel(5, 256).snapshot()


def _primed():
    model = PpmModel(5, 256)
    model.train(b"the rain in spain falls mainly on the plain")
    model.train(arabic_to_numeric("سبيل السلسبيل"))
    model.train(b"plain rain, plain spain")
    return model.snapshot()


def _narrow():
    model = PpmModel(3, 16)
    model.train([7, 15, 7, 3, 7, 15, 0, 7, 15])
    model.train([5, 5, 5, 15])
    return model.snapshot()


MODELS = {"empty": _empty(), "primed": _primed(), "narrow": _narrow()}

byte_texts = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(b"the rain spl\x80\x81"), max_size=300).map(bytes),
)
narrow_texts = st.lists(
    st.one_of(st.sampled_from([0, 3, 5, 7, 15]), st.integers(0, 15)), max_size=200
)


def _cases():
    return st.one_of(
        st.tuples(st.sampled_from(["empty", "primed"]), byte_texts),
        st.tuples(st.just("narrow"), narrow_texts),
    )


@given(_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ideal_bits_equals_reference_exactly(case, adapt):
    name, text = case
    model = MODELS[name]
    assert ideal_bits(model, text, adapt=adapt) == ref_ideal_bits(model, text, adapt=adapt)


@given(_cases(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_encode_blob_equals_reference_bytes(case, adapt):
    name, text = case
    model = MODELS[name]
    assert encode(model, text, adapt=adapt).to_bytes() == ref_encode(model, text, adapt).to_bytes()


def test_reference_is_the_documented_estimator():
    # 'a' costs 8 bits uniform; 'b' escapes order 0 for 1 bit and costs 8 more
    assert ref_ideal_bits(_empty(), b"ab") == 17.0


@pytest.mark.parametrize("pair", load_tsv(Path(__file__).parent / "data" / "table5.tsv"),
                         ids=lambda p: p.id)
def test_table5_bits_pinned(pair, bundled_models):
    model_a, model_e = bundled_models
    score = score_pair(pair, model_a, model_e)
    assert (score.bits_a.hex(), score.bits_e.hex()) == TABLE5_BITS[pair.id]
