import hashlib
import math
import os
import pickle
import struct
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bitextverify.cli import DATA_DIR
from bitextverify.coder import ideal_bits
from bitextverify.corpus import read_lines
from bitextverify.ppm import (
    _ONCE,
    ContextStats,
    FrozenModelError,
    PpmModel,
    code_text,
    escape_probability,
    symbol_probability,
)
from bitextverify.preprocess import ARABIC_NUMERIC, apply_transform

from conftest import (
    DETERMINISTIC_ESCAPE,
    ESCAPE,
    SYMBOL,
    _ref_loads,
    _ref_observe,
    _ref_walk,
    char_model,
)

SEEN = "س"   # seen/siin
BA = "ب"
YA = "ي"
LAM = "ل"
ALEF = "ا"
# 15-symbol worked-example training string for the order-3 model table
WORKED_STRING = SEEN + BA + YA + LAM + LAM + LAM + SEEN + LAM + SEEN + LAM + SEEN + BA + YA + LAM + ALEF


class TestFormulas:
    def test_symbol_probability_values(self):
        assert symbol_probability(2, 2) == Fraction(3, 4)
        assert symbol_probability(4, 15) == Fraction(7, 30)
        assert symbol_probability(1, 1) == Fraction(1, 2)

    def test_escape_probability_values(self):
        assert escape_probability(1, 2) == Fraction(1, 4)
        assert escape_probability(5, 15) == Fraction(5, 30)
        assert escape_probability(1, 1) == Fraction(1, 2)

    @pytest.mark.parametrize("c,total", [(0, 1), (1, 0), (3, 2), (-1, 5)])
    def test_symbol_probability_rejects(self, c, total):
        with pytest.raises(ValueError):
            symbol_probability(c, total)

    @pytest.mark.parametrize("t,total", [(0, 1), (1, 0), (4, 3)])
    def test_escape_probability_rejects(self, t, total):
        with pytest.raises(ValueError):
            escape_probability(t, total)

    @given(st.integers(1, 500), st.integers(0, 2000))
    def test_symbol_probability_in_open_unit_interval(self, c, extra):
        total = c + extra
        p = symbol_probability(c, total)
        assert 0 < p < 1


class TestNewModel:
    def test_not_equal_to_another_type(self):
        model = PpmModel(2, 256)
        assert model.__eq__((2, 256)) is NotImplemented
        assert model != (2, 256) and model == PpmModel(2, 256)

    def test_empty_model_shape(self):
        model = PpmModel(5, 256)
        assert model.max_order == 5 and model.alphabet_size == 256
        order0 = model.stats(())
        assert order0 is not None and order0.total == 0
        assert len(model) == 1

    def test_degenerate_order_zero(self):
        model = PpmModel(0, 2)
        model.train([0, 1, 1])
        assert model.stats(()).counts == {0: 1, 1: 2}
        assert len(model) == 1  # no higher-order contexts ever created

    @pytest.mark.parametrize("order,alphabet", [
        (-1, 256), (5, 1), (5, 0), (2.5, 256), (256, 4), (1, 257), (True, 256), (3, True)])
    def test_invalid_parameters(self, order, alphabet):
        with pytest.raises(ValueError):
            PpmModel(order, alphabet)


class _Recorder(list):
    """An encoder for code_text that keeps each (start, freq, total) it is charged."""

    def encode(self, start, freq, total):
        self.append((start, freq, total))


def _charged(model, text, adapt=False):
    recorder = _Recorder()
    code_text(model, text, adapt, recorder)
    return recorder


def _steps(model, history, symbol):
    """(order, kind, probability) of each step the reference walk takes for `symbol`."""
    walk = _ref_walk(model.stats, history, symbol, model.max_order, model.alphabet_size)
    return [(order, kind, Fraction(num, den)) for order, kind, num, den, _ in walk]


def _symbol_bits(model, history, symbol):
    """Bits a static pass charges `symbol` after `history`: a symbol's cost
    depends only on its own context window."""
    history = list(history)
    return ideal_bits(model, history + [symbol], adapt=False) - ideal_bits(model, history, adapt=False)


class TestEstimate:
    """The PPMD escape chain of one symbol: the steps of the reference walk, and
    the bits and (freq, total) pairs the kernel charges for them."""

    def test_uniform_fallback_on_empty_model(self):
        model = PpmModel(5, 256)
        steps = _steps(model, b"whatever", ord("b"))
        assert [kind for _, kind, _ in steps] == [DETERMINISTIC_ESCAPE] * 6 + [SYMBOL]
        assert steps[-1][2] == Fraction(1, 256)
        assert _symbol_bits(model, b"whatever", ord("b")) == pytest.approx(8.0, abs=1e-12)

    def test_escape_chain_after_training_single_symbol(self):
        # trained on "a" with d=1: order-1 context unseen (free), order-0
        # escapes at 1/2, uniform costs 8 bits
        model = PpmModel(1, 256)
        model.train(b"a")
        assert _steps(model, b"a", ord("b")) == [
            (1, DETERMINISTIC_ESCAPE, Fraction(1)),
            (0, ESCAPE, Fraction(1, 2)),
            (-1, SYMBOL, Fraction(1, 256)),
        ]
        assert _symbol_bits(model, b"a", ord("b")) == pytest.approx(9.0, abs=1e-9)

    def test_worked_example_highest_order_row(self):
        model, ids = char_model(WORKED_STRING, 3)
        history = [ids[c] for c in SEEN + BA + YA]
        assert _steps(model, history, ids[LAM]) == [(3, SYMBOL, Fraction(3, 4))]
        assert _symbol_bits(model, history, ids[LAM]) == pytest.approx(0.415, abs=5e-4)

    def test_symbol_out_of_alphabet_rejected(self):
        model = PpmModel(2, 16)
        for adapt in (False, True):
            with pytest.raises(ValueError, match="outside alphabet"):
                ideal_bits(model, [16], adapt)

    def test_orders_strictly_decreasing_single_terminal(self):
        model = PpmModel(3, 8)
        model.train([1, 2, 3, 1, 2, 3, 1])
        history = [1, 2]
        for sym in range(8):
            steps = _steps(model, history, sym)
            orders = [order for order, _, _ in steps]
            assert orders == sorted(orders, reverse=True) and len(set(orders)) == len(orders)
            assert [kind for _, kind, _ in steps].count(SYMBOL) == 1
            assert steps[-1][1] == SYMBOL
            # the kernel charges the same chain, less its free steps
            charged = _charged(model, history + [sym])[len(_charged(model, history)):]
            assert [Fraction(freq, total) for _, freq, total in charged] == [
                p for _, kind, p in steps if kind != DETERMINISTIC_ESCAPE
            ]


class TestUpdateAndTrain:
    def test_repeated_symbol_same_context(self):
        model = PpmModel(2, 256)
        model.train(b"qqx")
        model.train(b"qqx")
        stats = model.stats(tuple(b"qq"))
        assert stats.counts == {ord("x"): 2}
        assert stats.total == 2 and stats.distinct == 1

    def test_training_ab_twice(self):
        model = PpmModel(1, 256)
        model.train(b"ab")
        model.train(b"ab")
        assert model.stats((ord("a"),)).counts == {ord("b"): 2}
        assert model.stats((ord("a"),)).total == 2

    def test_worked_example_order0(self):
        model, ids = char_model(WORKED_STRING, 3)
        stats = model.stats(())
        assert {ch: stats.counts[i] for ch, i in ids.items()} == {
            SEEN: 4, BA: 2, YA: 2, LAM: 6, ALEF: 1
        }
        assert stats.total == 15 and stats.distinct == 5

    def test_train_many_returns_how_many_texts_it_trained(self):
        model = PpmModel(2, 256)
        assert model.train_many(iter([])) == 0
        assert model.train_many(iter([b"ab", b"", b"abc"])) == 3
        assert model.train(b"ab") is None

    def test_order0_total_equals_symbols_trained(self):
        model = PpmModel(4, 256)
        model.train(b"some text of a particular length here")
        assert model.stats(()).total == len(b"some text of a particular length here")

    def test_empty_training(self):
        model = PpmModel(5, 256)
        model.train(b"")
        assert model == PpmModel(5, 256)

    def test_history_reset_between_texts(self):
        per_text = PpmModel(1, 256)
        per_text.train(b"ab")
        per_text.train(b"ab")
        concat = PpmModel(1, 256)
        concat.train(b"abab")
        # the concatenated text sees "a" following "b" across the boundary
        assert per_text.stats((ord("b"),)) is None
        assert concat.stats((ord("b"),)).counts == {ord("a"): 1}
        assert per_text != concat

    def test_suffix_contexts_always_present(self):
        model = PpmModel(3, 256)
        model.train(b"abcabcabd")
        for ctx in model.contexts():
            if ctx:
                assert model.stats(ctx[1:]) is not None


@given(st.binary(min_size=1, max_size=200))
def test_mass_conservation_every_context(data):
    model = PpmModel(3, 256)
    model.train(data)
    for ctx in model.contexts():
        stats = model.stats(ctx)
        if stats.total == 0:
            continue
        mass = escape_probability(stats.distinct, stats.total) + sum(
            symbol_probability(c, stats.total) for c in stats.counts.values()
        )
        assert mass == 1


@given(st.lists(st.integers(0, 3), max_size=32), st.lists(st.integers(0, 3), min_size=1, max_size=64),
       st.booleans())
def test_estimate_update_loop_is_complete_and_accurate(priming, symbols, adapt):
    """The (freq, total) pairs code_text charges, multiplied exactly, give the
    float ideal_bits sums, with and without adaptation, on a primed snapshot."""
    model = PpmModel(2, 4)
    model.train(priming)
    snap = model.snapshot()
    num_prod = den_prod = 1
    for _, freq, total in _charged(snap, symbols, adapt):
        assert 0 < freq < total
        num_prod *= freq
        den_prod *= total
    exact_bits = math.log2(den_prod) - math.log2(num_prod)
    assert ideal_bits(snap, symbols, adapt) == pytest.approx(exact_bits, abs=1e-9)


# bytes over a few symbols, so contexts repeat within a text and the overlay counts them
_REPEATING = st.lists(st.sampled_from(b"abcab \xd9"), max_size=60).map(bytes)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(0, 6), priming=st.lists(_REPEATING | st.binary(max_size=40), max_size=4),
       text=_REPEATING | st.binary(max_size=60), data=st.data())
def test_cuts_give_each_prefix_float_for_float(order, priming, text, data):
    """One adaptive walk with cuts gives, at each cut, exactly ideal_bits of that
    prefix: coding is causal, so the floats are the same sums in the same order."""
    model = PpmModel(order)
    model.train_many(priming)
    snap = model.snapshot()
    cuts = tuple(sorted(data.draw(st.sets(st.integers(0, len(text))), label="cuts")))
    assert ideal_bits(snap, text, True, cuts) == [ideal_bits(snap, text[:c]) for c in cuts]
    assert ideal_bits(snap, text, True, (*cuts, len(text))[-1:]) == [ideal_bits(snap, text)]


@pytest.mark.parametrize("cuts", [(2, 2), (3, 1), (6,), (-1,), (0, 6)])
def test_cuts_must_ascend_within_the_text(cuts):
    with pytest.raises(ValueError, match="cuts must ascend strictly"):
        ideal_bits(PpmModel().snapshot(), b"hello", True, cuts)


class TestSnapshot:
    def test_frozen_rejects_mutation(self):
        model = PpmModel(2, 256)
        model.train(b"abc")
        snap = model.snapshot()
        with pytest.raises(FrozenModelError):
            snap.train(b"xyz")

    def test_snapshot_is_independent_copy(self):
        model = PpmModel(2, 256)
        model.train(b"abc")
        snap = model.snapshot()
        model.train(b"abc")
        assert snap.stats(()).total == 3
        assert model.stats(()).total == 6

    @pytest.mark.parametrize("alphabet", [16, 200])
    def test_snapshot_survives_later_training(self, alphabet):
        """A snapshot shares its source's table; the source's next train copies
        it first, so the snapshot's bytes and hash never change, also when a
        train call fails on a symbol outside the alphabet."""
        model = PpmModel(3, alphabet)
        model.train([1, 2, 3, 1, 2, 4])
        snap = model.snapshot()
        before, hashed = snap.dumps(), snap.config_hash()
        with pytest.raises(ValueError, match="outside alphabet"):
            model.train([1, 2, alphabet])
        assert snap.dumps() == before
        model.train([2, 3, 5, 2, 3])
        model.train([5, 5, 1])
        assert snap.dumps() == before
        assert PpmModel.loads(before).config_hash() == hashed == snap.config_hash()
        assert model.stats(()).total == 14 and snap.stats(()).total == 6

    @pytest.mark.parametrize("alphabet", [16, 200])
    def test_later_snapshot_matches_a_fresh_model(self, alphabet):
        texts = [[1, 2, 3, 1, 2, 4], [2, 3, 5, 2, 3], [5, 5, 1, 2]]
        model = PpmModel(3, alphabet)
        model.train(texts[0])
        first = model.snapshot()
        first_dump = first.dumps()
        for text in texts[1:]:
            model.train(text)
        second = model.snapshot()
        fresh = PpmModel(3, alphabet)
        for text in texts:
            fresh.train(text)
        assert second == fresh
        assert second.dumps() == fresh.dumps()
        assert second.config_hash() == fresh.config_hash()
        assert first.dumps() == first_dump
        model.train(texts[0])
        assert second.dumps() == fresh.dumps()

    def test_overlay_never_touches_base(self):
        model = PpmModel(2, 256)
        model.train(b"abcabc")
        snap = model.snapshot()
        before = snap.dumps()
        overlay = snap.overlay()
        for i, sym in enumerate(b"abcxyz"):
            overlay.update(b"abcxyz"[:i], sym)
        assert snap.dumps() == before
        assert snap.stats((ord("x"),)) is None

    @pytest.mark.parametrize("alphabet", [256, 200])
    def test_stats_is_a_detached_copy(self, alphabet):
        """Changing what stats() returns changes neither the snapshot nor its
        source, and leaves no stale cached hash behind."""
        model = PpmModel(2, alphabet)
        model.train([1, 2, 3, 1, 2])
        snap = model.snapshot()
        before, hashed = snap.dumps(), snap.config_hash()
        for context in ((), (1,)):
            stats = snap.stats(context)
            stats.counts[120] = 1
            stats.counts[2] = 99
            assert stats != snap.stats(context)
        overlay = snap.overlay()
        overlay.update([1], 2)
        assert snap.dumps() == before and model.dumps() == before
        assert snap.config_hash() == hashed == _sha8(snap.dumps())
        assert snap.stats((1,)) == ContextStats({2: 2}, 2)

    def test_snapshot_of_snapshot_is_same_object(self):
        snap = PpmModel(1, 4).snapshot()
        assert snap.snapshot() is snap

    @pytest.mark.parametrize("alphabet", [256, 200])
    def test_pickle_round_trip_stays_frozen(self, alphabet):
        model = PpmModel(3, alphabet)
        model.train([1, 2, 3, 1, 2, 4, alphabet - 1, 1, 2])
        snap = model.snapshot()
        copy = pickle.loads(pickle.dumps(snap))
        assert copy is not snap
        assert copy.frozen
        assert copy == snap
        assert copy.config_hash() == snap.config_hash()
        with pytest.raises(FrozenModelError):
            copy.train([1, 2])


class TestSerialization:
    def test_round_trip(self):
        model = PpmModel(3, 256)
        model.train(b"banana bandana")
        data = model.dumps()
        back = PpmModel.loads(data)
        assert back == model
        assert back.dumps() == data

    def test_train_twice_identical_dump(self):
        first = PpmModel(4, 256)
        first.train(b"deterministic input")
        second = PpmModel(4, 256)
        second.train(b"deterministic input")
        assert first.dumps() == second.dumps()

    def test_save_load(self, tmp_path):
        model = PpmModel(2, 64)
        model.train([1, 2, 3, 1, 2])
        path = tmp_path / "model.ppm"
        model.save(path)
        assert PpmModel.load(path) == model

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_load_reads_a_dump_through_a_pipe(self, tmp_path):
        """A dump that arrives a byte at a time loads: the magic check waits for 5 bytes."""
        model = PpmModel(2, 64)
        model.train([1, 2, 3, 1, 2])
        path = tmp_path / "pipe"
        os.mkfifo(path)

        def write():
            with open(path, "wb", buffering=0) as fh:
                for byte in model.dumps():
                    fh.write(bytes([byte]))

        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert PpmModel.load(path) == model
        finally:
            writer.join()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            PpmModel.loads(b"NOTAMODEL")

    def test_truncated_dump_rejected(self):
        data = PpmModel(2, 64).dumps()
        with pytest.raises(ValueError):
            PpmModel.loads(data[:-1] if len(data) > 18 else data + b"x")

    def test_trailing_bytes_rejected(self):
        model = PpmModel(2, 64)
        model.train([1, 2, 3])
        with pytest.raises(ValueError, match="^trailing garbage after PPMV1 model dump$"):
            PpmModel.loads(model.dumps() + b"\0")

    def test_empty_context_listed_once_is_not_a_duplicate(self):
        # __init__ pre-inserts the empty context; a dump without it still loads
        assert PpmModel.loads(_dump(2, 256, [((), [(7, 2)])])).stats(()).counts == {7: 2}
        assert len(PpmModel.loads(_dump(2, 256, [((1,), [(2, 1)])]))) == 2

    @pytest.mark.parametrize("order, alphabet, contexts", [
        pytest.param(1, 256, [((), [(1, 1)]), ((1, 2, 3), [(1, 1)])], id="context-above-max-order"),
        pytest.param(2, 100, [((), [(1, 1)]), ((150,), [(1, 1)])], id="context-symbol-outside"),
        pytest.param(2, 256, [((), [(1, 1)]), ((300,), [(1, 1)])], id="byte-context-symbol-outside"),
        pytest.param(2, 257, [((), [(1, 1)])], id="alphabet-above-256"),
        pytest.param(5, 256, [((), [(300, 1)])], id="entry-symbol-outside"),
        pytest.param(5, 256, [((), [(1, 1), (2, 0)])], id="count-below-one"),
        pytest.param(5, 256, [((), [(300, 0)])], id="symbol-300-count-0"),
        pytest.param(5, 256, [((), [(1, 1)]), ((1,), [(2, 0)])], id="only-entry-count-0"),
        pytest.param(5, 256, [((), [(1, 1), (1, 2)])], id="symbol-twice"),
        pytest.param(5, 256, [((), [(1, 1)]), ((1,), [(2, 1)]), ((1,), [(2, 1)])], id="context-twice"),
        pytest.param(5, 256, [((), [(1, 1)]), ((), [(1, 1)])], id="empty-context-twice"),
        pytest.param(5, 256, [((1,), [(2, 1)]), ((1,), [(2, 1)])], id="twice-without-empty"),
    ])
    def test_corrupt_dump_rejected(self, order, alphabet, contexts):
        with pytest.raises(ValueError, match="corrupt PPMV1 model dump"):
            PpmModel.loads(_dump(order, alphabet, contexts))

    def test_byte_context_symbol_outside_is_named(self):
        with pytest.raises(ValueError) as info:
            PpmModel.loads(_dump(2, 256, [((), [(1, 1)]), ((300,), [(1, 1)])]))
        assert str(info.value) == (
            "corrupt PPMV1 model dump: context (300,) has a symbol outside alphabet 256")

    def test_entries_past_the_end_are_truncation(self):
        data = _dump(2, 256, [((), [(1, 1), (2, 1)])])
        with pytest.raises(ValueError, match="truncated"):
            PpmModel.loads(data[:-12])

    def test_config_hash_tracks_state(self):
        a = PpmModel(2, 256)
        b = PpmModel(2, 256)
        assert a.config_hash() == b.config_hash()
        a.train(b"z")
        assert a.config_hash() != b.config_hash()


def _dump(order, alphabet, contexts):
    """A PPMV1 dump written field by field, so it may break any invariant."""
    out = bytearray(b"PPMV1") + struct.pack(">BIQ", order, alphabet, len(contexts))
    for ctx, entries in contexts:
        out += struct.pack(f">B{len(ctx)}II", len(ctx), *ctx, len(entries))
        for symbol, count in entries:
            out += struct.pack(">IQ", symbol, count)
    return bytes(out)


def _sha8(data):
    return hashlib.sha256(data).digest()[:8]


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(0, 3),
    alphabet=st.sampled_from([4, 200, 256]),
    contexts=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
                      unique=True, max_size=5),
    entries=st.lists(st.dictionaries(st.integers(0, 5), st.integers(1, 3), max_size=4),
                     min_size=6, max_size=6),
    empty_at=st.one_of(st.none(), st.integers(0, 5)),
)
def test_loaded_hash_is_the_hash_of_its_dump(order, alphabet, contexts, entries, empty_at):
    """loads() keeps sha256 of its input as the hash when the dump lists the empty
    context first; listed late or not at all, the hash comes from dumps(). Either
    way config_hash() is that of dumps(), a snapshot keeps it and train renews it."""
    if empty_at is not None:
        contexts.insert(min(empty_at, len(contexts)), ())
    data = _dump(order, alphabet, [(ctx, list(e.items())) for ctx, e in zip(contexts, entries)])
    try:
        model = PpmModel.loads(data)
    except ValueError:
        return  # e.g. a context longer than the order, or a symbol outside the alphabet
    if empty_at == 0:
        assert model.dumps() == data
    assert model.config_hash() == _sha8(model.dumps())
    snap = model.snapshot()
    assert snap.config_hash() == model.config_hash()
    model.train([0, 1, 0, 1])
    assert model.config_hash() == _sha8(model.dumps()) != snap.config_hash()
    assert snap.config_hash() == _sha8(snap.dumps())


_MUTATION = st.tuples(st.sampled_from(["truncate", "flip", "overwrite"]),
                      st.integers(0, 1 << 16), st.integers(0, 255))


@settings(max_examples=400, deadline=None)
@given(
    order=st.integers(0, 3),
    alphabet=st.sampled_from([4, 200, 256]),
    texts=st.lists(st.lists(st.integers(0, 999), max_size=8), max_size=3),
    mutations=st.lists(_MUTATION, min_size=1, max_size=3),
)
def test_loads_matches_the_frozen_reader_on_damaged_dumps(order, alphabet, texts, mutations):
    """Truncations, bit flips and byte overwrites of a small dump either load
    into the contexts the frozen reader gives, in its order, with its totals
    and counts, or make both readers raise ValueError."""
    model = PpmModel(order, alphabet)
    for text in texts:
        model.train([s % alphabet for s in text])
    data = bytearray(model.dumps())
    for kind, where, value in mutations:
        at = where % len(data)
        if kind == "truncate":
            del data[at:]
            if not data:
                break
        elif kind == "flip":
            data[at] ^= 1 << value % 8
        else:
            data[at] = value
    data = bytes(data)
    try:
        expected = _ref_loads(data)
    except ValueError:
        with pytest.raises(ValueError):
            PpmModel.loads(data)
        return
    loaded = PpmModel.loads(data)
    contexts = [(tuple(ctx), total, list(counts.items()))
                for ctx, (total, counts) in loaded._table.items()]
    assert (loaded.max_order, loaded.alphabet_size, contexts, loaded._hash is not None) == expected


class TestSharedEntries:
    """loads gives every context that lists the same entry bytes one shared
    [total, counts] list; training a loaded model copies the table first."""

    @pytest.mark.parametrize("wrap", [bytes, bytearray, lambda b: memoryview(bytearray(b))],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_loads_accepts_any_bytes_like(self, wrap):
        model = PpmModel(3, 256)
        model.train(b"abracadabra, abracadabra")
        data = model.dumps()
        loaded = PpmModel.loads(wrap(data))
        assert loaded == model and loaded._table == model._table
        assert loaded._hash == loaded.config_hash() == model.config_hash() == _sha8(data)

    @pytest.mark.parametrize("language, runs", [("arabic", 923), ("english", 1145)])
    def test_bundled_models_share_their_entries(self, bundled_models, language, runs):
        model = PpmModel.loads(bundled_models[("arabic", "english").index(language)].dumps())
        assert len({id(entry) for entry in model._table.values()}) <= runs


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(0, 3),
    alphabet=st.sampled_from([3, 200, 256]),
    texts=st.lists(st.lists(st.integers(0, 999), max_size=12), min_size=1, max_size=4),
    more=st.lists(st.integers(0, 999), max_size=12),
)
def test_training_a_loaded_model_leaves_shared_entries_alone(order, alphabet, texts, more):
    """Training a loaded model, with or without a snapshot taken, changes
    neither the snapshot nor the other contexts that shared an entry, and gives
    the model that training from scratch gives."""
    texts = [[s % alphabet for s in text] for text in [*texts, more]]
    source = PpmModel(order, alphabet)
    for text in texts[:-1]:
        source.train(text)
    data = source.dumps()
    before = {ctx: source.stats(ctx) for ctx in source.contexts()}
    loaded, bare = PpmModel.loads(data), PpmModel.loads(data)
    snap = loaded.snapshot()
    loaded.train(texts[-1])
    bare.train(texts[-1])
    source.train(texts[-1])
    assert snap.dumps() == data
    assert {ctx: snap.stats(ctx) for ctx in snap.contexts()} == before
    assert loaded.dumps() == bare.dumps() == source.dumps()


def test_a_table_loads_as_loads_left_the_model(tmp_path):
    """load_table of table_bytes() gives the same table, hash and shared entries
    as loads; training copies the table first, so a snapshot and the contexts
    that shared an entry stay as they were."""
    source = PpmModel(3, 256)
    source.train_many([b"abracadabra", b"cadabra abra", b"abracadabra"])
    loaded = PpmModel.loads(source.dumps())
    path = tmp_path / "m.table"
    path.write_bytes(loaded.table_bytes())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    tabled = PpmModel.load_table(path, digest)
    assert tabled == loaded and tabled.dumps() == source.dumps()
    assert tabled.config_hash() == source.config_hash()
    shared = len({id(entry) for entry in loaded._table.values()})
    assert len({id(entry) for entry in tabled._table.values()}) == shared < len(loaded)
    bare = PpmModel.load_table(path, digest)
    snap = tabled.snapshot()
    for model in (tabled, bare, source):
        model.train(b"abra cadabra")
    assert snap.dumps() != tabled.dumps() == bare.dumps() == source.dumps()
    assert snap == loaded


def _layout(table):
    """Contexts in table order, each with its total and its counts in order."""
    return [(ctx, total, list(counts.items())) for ctx, (total, counts) in table.items()]


def _once_entries_intact():
    return all(entry == [1, {s: 1}] for s, entry in _ONCE.items())


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(0, 5),
    alphabet=st.sampled_from([3, 200, 256]),
    texts=st.lists(st.lists(st.integers(0, 999), max_size=16), min_size=1, max_size=4),
    more=st.lists(st.integers(0, 999), max_size=16),
)
def test_shared_once_seen_entries_count_like_the_reference(order, alphabet, texts, more):
    """Training gives the frozen reference's contexts, totals and counts, all in
    the same order, and the shared entries of once-seen contexts still read
    [1, {s: 1}] after training, a snapshot, loads then train, and overlay updates."""
    texts = [bytes(s % alphabet for s in text) for text in [*texts, more]]
    model, reference = PpmModel(order, alphabet), {b"": [0, {}]}
    for text in texts[:-1]:
        model.train(text)
        _ref_observe(reference, {}, text, 0, order)
    assert _layout(model._table) == _layout(reference)
    assert _once_entries_intact()
    before = _layout(reference)
    snap, loaded = model.snapshot(), PpmModel.loads(model.dumps())
    for trained in (model, loaded):
        trained.train(texts[-1])
    _ref_observe(reference, {}, texts[-1], 0, order)
    assert _layout(model._table) == _layout(loaded._table) == _layout(reference)
    assert _layout(snap._table) == before
    assert _once_entries_intact()
    overlay, local = snap.overlay(), {}
    for i, symbol in enumerate(texts[-1]):
        overlay.update(texts[-1][:i], symbol)
        seq = texts[-1][max(0, i - order):i + 1]
        _ref_observe(local, snap._table, seq, len(seq) - 1, order)
    assert _layout(overlay._local) == _layout(local)
    assert _layout(snap._table) == before
    assert _once_entries_intact()


@settings(max_examples=300, deadline=None)
@given(order=st.integers(0, 6), alphabet=st.integers(2, 256), data=st.data())
def test_train_many_counts_like_the_reference(order, alphabet, data):
    """One train_many call over texts (empty ones, ones shorter than the order,
    repeats) gives the frozen reference's table, run text by text: contexts,
    totals and counts in the same order, the dump of per-text train calls with
    as many distinct entries, and, after loads or a snapshot, training again
    leaves the shared entries as they were."""
    spread = data.draw(st.sampled_from([2, 3, alphabet]), "spread")
    text = st.binary(max_size=3 * order + 4).map(
        lambda raw: bytes(b % min(spread, alphabet) for b in raw))
    pool = [b"", *data.draw(st.lists(text, min_size=1, max_size=4), "pool")]
    texts, more = (data.draw(st.lists(st.sampled_from(pool), max_size=8), name)
                   for name in ("texts", "more"))
    model, per_text, reference = PpmModel(order, alphabet), PpmModel(order, alphabet), {b"": [0, {}]}
    model.train_many(iter(texts))
    for text in texts:
        per_text.train(text)
        _ref_observe(reference, {}, text, 0, order)
    assert _layout(model._table) == _layout(reference)
    assert model.dumps() == per_text.dumps()
    assert len({id(e) for e in model._table.values()}) == len(
        {id(e) for e in per_text._table.values()})
    assert _once_entries_intact()
    before = _layout(reference)
    snap, loaded = model.snapshot(), PpmModel.loads(model.dumps())
    shared = [(entry, entry[0], list(entry[1].items())) for entry in loaded._table.values()]
    for trained in (model, loaded):
        trained.train_many(more)
    for text in more:
        _ref_observe(reference, {}, text, 0, order)
    assert _layout(model._table) == _layout(loaded._table) == _layout(reference)
    assert _layout(snap._table) == before
    assert all(entry[0] == total and list(entry[1].items()) == counts
               for entry, total, counts in shared)
    assert _once_entries_intact()


@pytest.mark.parametrize("kind", ["trained", "snapshotted", "loaded"])
@pytest.mark.parametrize("bad_at", [0, 1, 2])
def test_train_many_with_a_bad_text_leaves_the_model_as_it_was(kind, bad_at):
    """A symbol outside the alphabet in any text raises before anything is counted."""
    model = PpmModel(2, 128)
    model.train(b"abcab")
    if kind == "loaded":
        model = PpmModel.loads(model.dumps())
    snap = model.snapshot() if kind == "snapshotted" else None
    data, digest, shared = model.dumps(), model.config_hash(), model._shared
    texts = [b"abc", b"bca", b"cab"]
    texts[bad_at] = b"ab\xc8"
    with pytest.raises(ValueError, match="symbol 200 outside alphabet of size 128"):
        model.train_many(iter(texts))
    assert (model.dumps(), model._hash, model._shared) == (data, digest, shared)
    assert snap is None or snap.dumps() == data


def test_bundled_priming_shares_its_once_seen_entries(bundled_models):
    """A model trained on the bundled Arabic priming text keeps one list per
    context seen more than once: 6,188 contexts, 4,269 of them seen once, which
    share at most the 256 entries of _ONCE."""
    model = PpmModel()
    for line in read_lines(f"{DATA_DIR}/arabic.txt"):
        model.train(apply_transform(line, ARABIC_NUMERIC))
    assert model.dumps() == bundled_models[0].dumps()
    assert len(model) == 6188
    assert sum(total == 1 for total, _ in model._table.values()) == 4269
    assert len({id(entry) for entry in model._table.values()}) <= 6188 - 4269 + 256


def test_context_stats_equality_ignores_insertion_order():
    left = ContextStats({1: 2, 3: 4}, 6)
    right = ContextStats({3: 4, 1: 2}, 6)
    assert left == right


_MODEL_INTERNALS = {"_table", "_keys", "_shared", "_frozen", "_hash"}


def test_only_ppm_reads_the_model_internals():
    """ppm.py is the one module that knows the PPMD table and its bookkeeping:
    no other package module reads a PpmModel private attribute."""
    import ast
    from pathlib import Path

    import bitextverify.ppm

    package = Path(bitextverify.ppm.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "coder.py" in modules
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in modules if path.name != "ppm.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in _MODEL_INTERNALS
    ]
    assert not reads, reads
