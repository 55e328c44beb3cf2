import hashlib
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bitextverify.coder import ideal_bits
from bitextverify.ppm import (
    ContextStats,
    FrozenModelError,
    PpmModel,
    code_text,
    escape_probability,
    symbol_probability,
)

from conftest import DETERMINISTIC_ESCAPE, ESCAPE, SYMBOL, _ref_loads, _ref_walk, char_model

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

    @pytest.mark.parametrize("order,alphabet", [(-1, 256), (5, 1), (5, 0), (2.5, 256), (256, 4)])
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

    @pytest.mark.parametrize("alphabet", [16, 1000])
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

    @pytest.mark.parametrize("alphabet", [16, 1000])
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
        assert overlay.stats((ord("x"),)) is not None
        assert snap.stats((ord("x"),)) is None

    @pytest.mark.parametrize("alphabet", [256, 1000])
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
        overlay.stats((1,)).counts[7] = 1
        assert snap.dumps() == before and model.dumps() == before
        assert snap.config_hash() == hashed == _sha8(snap.dumps())
        assert snap.stats((1,)) == ContextStats({2: 2}, 2)

    def test_snapshot_of_snapshot_is_same_object(self):
        snap = PpmModel(1, 4).snapshot()
        assert snap.snapshot() is snap

    @pytest.mark.parametrize("alphabet", [256, 1000])
    def test_pickle_round_trip_stays_frozen(self, alphabet):
        model = PpmModel(3, alphabet)
        model.train([1, 2, 3, 1, 2, 4, 255, 1, 2])
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

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            PpmModel.loads(b"NOTAMODEL")

    def test_truncated_dump_rejected(self):
        data = PpmModel(2, 64).dumps()
        with pytest.raises(ValueError):
            PpmModel.loads(data[:-1] if len(data) > 18 else data + b"x")

    def test_empty_context_listed_once_is_not_a_duplicate(self):
        # __init__ pre-inserts the empty context; a dump without it still loads
        assert PpmModel.loads(_dump(2, 256, [((), [(7, 2)])])).stats(()).counts == {7: 2}
        assert len(PpmModel.loads(_dump(2, 256, [((1,), [(2, 1)])]))) == 2

    @pytest.mark.parametrize("order, alphabet, contexts", [
        pytest.param(1, 256, [((), [(1, 1)]), ((1, 2, 3), [(1, 1)])], id="context-above-max-order"),
        pytest.param(2, 100, [((), [(1, 1)]), ((150,), [(1, 1)])], id="context-symbol-outside"),
        pytest.param(2, 256, [((), [(1, 1)]), ((300,), [(1, 1)])], id="byte-context-symbol-outside"),
        pytest.param(2, 1000, [((), [(1, 1)]), ((1500,), [(1, 1)])], id="tuple-key-symbol-outside"),
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
    alphabet=st.sampled_from([4, 256, 1000]),
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
    alphabet=st.sampled_from([4, 256, 1000]),
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


def test_context_stats_equality_ignores_insertion_order():
    left = ContextStats({1: 2, 3: 4}, 6)
    right = ContextStats({3: 4, 1: 2}, 6)
    assert left == right
