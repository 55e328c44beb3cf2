import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bitextverify.ppm import (
    DETERMINISTIC_ESCAPE,
    ESCAPE,
    SYMBOL,
    ContextStats,
    FrozenModelError,
    PpmModel,
    escape_probability,
    symbol_probability,
)

from conftest import char_model

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


class TestEstimate:
    def test_uniform_fallback_on_empty_model(self):
        model = PpmModel(5, 256)
        trace = model.estimate(b"whatever", ord("b"))
        kinds = [s.kind for s in trace.steps]
        assert kinds == [DETERMINISTIC_ESCAPE] * 6 + [SYMBOL]
        assert trace.steps[-1].probability == Fraction(1, 256)
        assert trace.total_bits == pytest.approx(8.0, abs=1e-12)

    def test_escape_chain_after_training_single_symbol(self):
        # trained on "a" with d=1: order-1 context unseen (free), order-0
        # escapes at 1/2, uniform costs 8 bits
        model = PpmModel(1, 256)
        model.train(b"a")
        trace = model.estimate(b"a", ord("b"))
        assert [(s.order, s.kind, s.probability) for s in trace.steps] == [
            (1, DETERMINISTIC_ESCAPE, Fraction(1)),
            (0, ESCAPE, Fraction(1, 2)),
            (-1, SYMBOL, Fraction(1, 256)),
        ]
        assert trace.total_bits == pytest.approx(9.0, abs=1e-9)

    def test_worked_example_highest_order_row(self):
        model, ids = char_model(WORKED_STRING, 3)
        history = [ids[c] for c in SEEN + BA + YA]
        trace = model.estimate(history, ids[LAM])
        assert len(trace.steps) == 1
        assert trace.steps[0].kind == SYMBOL
        assert trace.steps[0].probability == Fraction(3, 4)
        assert trace.total_bits == pytest.approx(0.415, abs=5e-4)

    def test_symbol_out_of_alphabet_rejected(self):
        model = PpmModel(2, 16)
        with pytest.raises(ValueError):
            model.estimate([], 16)

    def test_orders_strictly_decreasing_single_terminal(self):
        model = PpmModel(3, 8)
        model.train([1, 2, 3, 1, 2, 3, 1])
        for sym in range(8):
            trace = model.estimate([1, 2], sym)
            orders = [s.order for s in trace.steps]
            assert orders == sorted(orders, reverse=True) and len(set(orders)) == len(orders)
            assert [s.kind for s in trace.steps].count(SYMBOL) == 1
            assert trace.steps[-1].kind == SYMBOL


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


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
def test_estimate_update_loop_is_complete_and_accurate(symbols):
    num_prod = den_prod = 1
    total_float = 0.0
    for i, sym in enumerate(symbols):
        model = PpmModel(2, 4)  # at step i the adaptive model has counted symbols[:i]
        model.train(symbols[:i])
        trace = model.estimate(symbols[:i], sym)
        total_float += trace.total_bits
        for step in trace.steps:
            assert step.probability > 0
            if step.probability < 1:
                num_prod *= step.probability.numerator
                den_prod *= step.probability.denominator
    exact_bits = math.log2(den_prod) - math.log2(num_prod)
    assert total_float == pytest.approx(exact_bits, abs=1e-9)


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
        pytest.param(2, 1000, [((), [(1, 1)]), ((1500,), [(1, 1)])], id="tuple-key-symbol-outside"),
        pytest.param(5, 256, [((), [(300, 1)])], id="entry-symbol-outside"),
        pytest.param(5, 256, [((), [(1, 1), (2, 0)])], id="count-below-one"),
        pytest.param(5, 256, [((), [(300, 0)])], id="symbol-300-count-0"),
        pytest.param(5, 256, [((), [(1, 1), (1, 2)])], id="symbol-twice"),
        pytest.param(5, 256, [((), [(1, 1)]), ((1,), [(2, 1)]), ((1,), [(2, 1)])], id="context-twice"),
        pytest.param(5, 256, [((), [(1, 1)]), ((), [(1, 1)])], id="empty-context-twice"),
        pytest.param(5, 256, [((1,), [(2, 1)]), ((1,), [(2, 1)])], id="twice-without-empty"),
    ])
    def test_corrupt_dump_rejected(self, order, alphabet, contexts):
        with pytest.raises(ValueError, match="corrupt PPMV1 model dump"):
            PpmModel.loads(_dump(order, alphabet, contexts))

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


def test_context_stats_equality_ignores_insertion_order():
    left = ContextStats({1: 2, 3: 4}, 6)
    right = ContextStats({3: 4, 1: 2}, 6)
    assert left == right
