"""Acceptance suite: one test per criterion, printing a pass line when green.

Run with `pytest tests/test_acceptance.py -v -s`.

Two checks need a word on where their expected values come from:

* criterion 4b expects 17.0 bits for the adaptive code length of "ab" under an
  empty order-5 model over 256 symbols. The estimator (see the `ppm` module
  docstring) codes "a" at the uniform order -1 for log2(256) = 8 bits; for
  "b" the unseen order-1 context "a" is skipped for free, the order-0 escape
  t/(2T) = 1/2 costs 1 bit and order -1 costs 8 bits: 8 + 1 + 8 = 17. The test
  derives this from `escape_probability` and the order -1 width. An earlier
  reference value, 18.0, cannot come from any complete code that agrees with
  criterion 4a: 4a's 9.0 fixes P(a | "a") = 1/2, which leaves exactly 1/2 of
  the mass for the escape, so with a uniform order -1 P(b | "a") = 1/512, or
  9 bits.
* criterion 6a compares the published per-sentence length columns with the
  paper's verbatim Table 5 sentences (arXiv 1502.03752), read from
  `data/table5_verbatim.tsv`; it is skipped until that file is committed.
  `data/table5.tsv` is a damaged rendering of the same table (most cells fall
  1-5 code points short) and serves the scoring checks only. The counting
  rule fixed by its one intact cell (row 3 Arabic, 84 code points including a
  combining mark) is checked by
  `test_preprocess.py::test_char_length_verified_reference_sentence` and
  `::test_char_length_counts_code_points`.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from bitextverify.cli import fmt_pct, main
from bitextverify.coder import decode, encode, ideal_bits
from bitextverify.corpus import (
    SentencePair,
    evaluate,
    load_tsv,
    score_pairs,
    threshold_matrix,
)
from bitextverify.metrics import (
    SATISFACTORY,
    UNSATISFACTORY,
    PairScore,
    ThresholdConfig,
    cr,
    code_ratio,
    slr,
    verdict,
)
from bitextverify.ppm import PpmModel, escape_probability, symbol_probability
from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY, apply_transform, arabic_to_numeric, char_length
from bitextverify.synthetic import build_corpus

DATA = Path(__file__).parent / "data"
TABLE5_VERBATIM = DATA / "table5_verbatim.tsv"

SEEN = "س"
BA = "ب"
YA = "ي"
LAM = "ل"
ALEF = "ا"

# 15-symbol training string reconstructed from the published order-3 model
# table: the unique assignment consistent with every (prediction, c, p) cell
# and with the table's block layout order at every model order.
TRAINING_STRING = SEEN + BA + YA + LAM + LAM + LAM + SEEN + LAM + SEEN + LAM + SEEN + BA + YA + LAM + ALEF

# every block of the published table: (context, [(prediction, c, p)], (t, esc_p))
WORKED_TABLE = [
    # order 3
    (SEEN + BA + YA, [(LAM, 2, F(3, 4))], (1, F(1, 4))),
    (BA + YA + LAM, [(LAM, 1, F(1, 4)), (ALEF, 1, F(1, 4))], (2, F(2, 4))),
    (YA + LAM + LAM, [(LAM, 1, F(1, 2))], (1, F(1, 2))),
    (LAM + LAM + LAM, [(SEEN, 1, F(1, 2))], (1, F(1, 2))),
    (LAM + LAM + SEEN, [(LAM, 1, F(1, 2))], (1, F(1, 2))),
    (LAM + SEEN + LAM, [(SEEN, 2, F(3, 4))], (1, F(1, 4))),
    (SEEN + LAM + SEEN, [(LAM, 1, F(1, 4)), (BA, 1, F(1, 4))], (2, F(2, 4))),
    (LAM + SEEN + BA, [(YA, 1, F(1, 2))], (1, F(1, 2))),
    # order 2
    (SEEN + BA, [(YA, 2, F(3, 4))], (1, F(1, 4))),
    (BA + YA, [(LAM, 2, F(3, 4))], (1, F(1, 4))),
    (YA + LAM, [(LAM, 1, F(1, 4)), (ALEF, 1, F(1, 4))], (2, F(2, 4))),
    (LAM + LAM, [(LAM, 1, F(1, 4)), (SEEN, 1, F(1, 4))], (2, F(2, 4))),
    (LAM + SEEN, [(LAM, 2, F(3, 6)), (BA, 1, F(1, 6))], (2, F(2, 6))),
    (SEEN + LAM, [(SEEN, 2, F(3, 4))], (1, F(1, 4))),
    # order 1
    (SEEN, [(BA, 2, F(3, 8)), (LAM, 2, F(3, 8))], (2, F(2, 8))),
    (BA, [(YA, 2, F(3, 4))], (1, F(1, 4))),
    (YA, [(LAM, 2, F(3, 4))], (1, F(1, 4))),
    (LAM, [(LAM, 2, F(3, 12)), (SEEN, 3, F(5, 12)), (ALEF, 1, F(1, 12))], (3, F(3, 12))),
    # order 0
    ("", [(SEEN, 4, F(7, 30)), (BA, 2, F(3, 30)), (YA, 2, F(3, 30)),
          (LAM, 6, F(11, 30)), (ALEF, 1, F(1, 30))], (5, F(5, 30))),
]

TABLE6_LENGTHS = {
    "1": (59, 95), "2": (68, 82), "3": (84, 132), "4": (53, 59), "5": (58, 94),
    "6": (67, 136), "7": (72, 110), "8": (93, 123), "9": (27, 45), "10": (63, 83),
}

GRID = [1.25 + 0.25 * i for i in range(10)]


def _passed(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_worked_model_table_reproduction():
    started = time.perf_counter()
    mapping = {ch: i for i, ch in enumerate(sorted(set(TRAINING_STRING)))}
    model = PpmModel(max_order=3, alphabet_size=len(mapping))
    model.train([mapping[ch] for ch in TRAINING_STRING])

    observed_contexts = set(model.contexts())
    expected_contexts = {tuple(mapping[ch] for ch in ctx) for ctx, _, _ in WORKED_TABLE}
    assert observed_contexts == expected_contexts

    for ctx, predictions, (t, esc_p) in WORKED_TABLE:
        stats = model.stats([mapping[ch] for ch in ctx])
        assert stats is not None, ctx
        assert stats.distinct == t
        assert stats.counts == {mapping[ch]: c for ch, c, _ in predictions}
        for ch, c, p in predictions:
            assert stats.counts[mapping[ch]] == c
            assert symbol_probability(c, stats.total) == p, (ctx, ch)
        assert escape_probability(t, stats.total) == esc_p, ctx

    order0 = model.stats(())
    assert order0.total == 15 and symbol_probability(order0.counts[mapping[SEEN]], 15) == F(7, 30)
    assert escape_probability(order0.distinct, 15) == F(5, 30)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed("1", f"all {len(WORKED_TABLE)} context blocks exact in {elapsed:.3f}s")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_formula_spot_checks():
    assert symbol_probability(2, 2) == F(3, 4)
    assert escape_probability(1, 2) == F(1, 4)
    assert escape_probability(5, 15) == F(1, 3) * F(1, 2) == F(5, 30)
    _passed("2", "PPMD symbol and escape formulas exact")


# -- criterion 3 ---------------------------------------------------------------


def _word_pool(rng: random.Random) -> list[str]:
    arabic = ["".join(chr(rng.randrange(0x0621, 0x064B)) for _ in range(rng.randint(2, 7)))
              for _ in range(120)]
    ascii_words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 8)))
                   for _ in range(120)]
    return arabic + ascii_words


def _fuzz_text(rng: random.Random, pool: list[str], n: int) -> str:
    if n == 0:
        return ""
    if rng.random() < 0.3:
        chars = "abcdefgh .,!?" + "".join(chr(c) for c in range(0x0621, 0x0635))
        return "".join(rng.choice(chars) for _ in range(n))
    parts: list[str] = []
    size = 0
    while size < n:
        word = rng.choice(pool)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)[:n]


def test_criterion_03_coder_honesty_fuzz():
    started = time.perf_counter()
    rng = random.Random(0xC0DE)
    pool = _word_pool(rng)

    priming = _fuzz_text(rng, pool, 3000)
    primed_model = PpmModel(5, 256)
    primed_model.train(arabic_to_numeric(priming))
    snapshots = [PpmModel(5, 256).snapshot(), primed_model.snapshot()]

    lengths = [0, 65536]
    lengths += [rng.randint(1, 256) for _ in range(900)]
    lengths += [rng.randint(257, 4096) for _ in range(80)]
    lengths += [rng.randint(4097, 16384) for _ in range(14)]
    lengths += [rng.randint(16385, 65536) for _ in range(4)]
    assert len(lengths) == 1000

    worst = 0.0
    for i, n in enumerate(lengths):
        data = arabic_to_numeric(_fuzz_text(rng, pool, n))
        snapshot = snapshots[i % 2]
        adapt = i % 3 != 0
        blob = encode(snapshot, data, adapt=adapt)
        assert decode(snapshot, blob, adapt=adapt) == data, f"case {i} not lossless"
        overhead = blob.payload_bits - ideal_bits(snapshot, data, adapt=adapt)
        assert 0 <= overhead <= 64, f"case {i}: overhead {overhead}"
        worst = max(worst, overhead)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed("3", f"1000 cases lossless, worst overhead {worst:.2f} bits, {elapsed:.1f}s")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04a_micro_oracle_aa():
    snapshot = PpmModel(5, 256).snapshot()
    assert ideal_bits(snapshot, b"aa", adapt=True) == pytest.approx(9.0, abs=1e-9)
    _passed("4a", 'ideal_bits(empty, "aa", adapt on) = 9.0')


def test_criterion_04b_micro_oracle_ab():
    # "a" at order -1; for "b" the unseen order-1 context is a free
    # deterministic escape, then the order-0 escape (t=1, T=1) and order -1.
    order_minus_1_bits = math.log2(256)
    # the order-0 context after "a" is complete: symbol plus escape mass is 1
    assert symbol_probability(1, 1) + escape_probability(1, 1) == 1
    escape_bits = -math.log2(escape_probability(1, 1))
    expected = order_minus_1_bits + escape_bits + order_minus_1_bits
    assert expected == 17.0
    snapshot = PpmModel(5, 256).snapshot()
    assert ideal_bits(snapshot, b"ab", adapt=True) == pytest.approx(expected, abs=1e-9)
    _passed("4b", f'ideal_bits(empty, "ab", adapt on) = {expected}')


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_metric_identities():
    rng = random.Random(5)
    for _ in range(10_000):
        bits_a = rng.uniform(1e-6, 1e6)
        bits_e = rng.uniform(1e-6, 1e6)
        len_a = rng.randint(1, 10**6)
        len_e = rng.randint(1, 10**6)
        cr_value = cr(bits_a, bits_e)
        slr_value = slr(len_a, len_e)
        assert cr_value >= 1.0 and slr_value >= 1.0
        assert cr(bits_e, bits_a) == cr_value
        assert slr(len_e, len_a) == slr_value
        assert abs(code_ratio(bits_a, bits_e) * code_ratio(bits_e, bits_a) - 1.0) < 1e-12
    _passed("5", "10000 tuples: folding, symmetry and reciprocal laws hold")


# -- criterion 6 ---------------------------------------------------------------


@pytest.mark.skipif(
    not TABLE5_VERBATIM.exists(),
    reason="needs tests/data/table5_verbatim.tsv: the verbatim sentences of "
           "Table 5 of arXiv 1502.03752",
)
def test_criterion_06a_reference_sentence_lengths():
    pairs = load_tsv(TABLE5_VERBATIM)
    assert sorted(pair.id for pair in pairs) == sorted(TABLE6_LENGTHS)
    mismatches = []
    for pair in pairs:
        want_a, want_e = TABLE6_LENGTHS[pair.id]
        got_a, got_e = char_length(pair.text_a), char_length(pair.text_e)
        if got_a != want_a:
            mismatches.append(f"row {pair.id} arabic: {got_a} != {want_a}")
        if got_e != want_e:
            mismatches.append(f"row {pair.id} english: {got_e} != {want_e}")
    assert not mismatches, (
        "published length cells not reproduced from the verbatim Table 5 "
        "sentences: " + "; ".join(mismatches)
    )
    _passed("6a", "all 20 published length cells reproduced")


def test_criterion_06b_reference_scores_stable(bundled_models):
    model_a, model_e = bundled_models
    pairs = load_tsv(DATA / "table5.tsv")

    def run():
        return [s.score for s in score_pairs(pairs, model_a, model_e)]

    first, second = run(), run()
    assert first == second
    for pair, score in zip(pairs, first):
        assert score.slr == slr(char_length(pair.text_a), char_length(pair.text_e))
        assert score.verdict == verdict(score.slr, score.cr, ThresholdConfig())
        assert score.bits_a > 0 and score.bits_e > 0
    _passed("6b", "scores and verdicts bit-identical across runs with fixed priming")


# -- criterion 7 ---------------------------------------------------------------


def _random_scores(rng: random.Random, count: int) -> list[PairScore]:
    scores = []
    for i in range(count):
        len_a, len_e = rng.randint(1, 300), rng.randint(1, 300)
        bits_a, bits_e = rng.uniform(1, 2400), rng.uniform(1, 2400)
        scores.append(
            PairScore(str(i), len_a, len_e, bits_a, bits_e,
                      slr(len_a, len_e), cr(bits_a, bits_e), SATISFACTORY)
        )
    return scores


def test_criterion_07_substituted_reference_properties():
    rng = random.Random(7)
    scores = _random_scores(rng, 400)

    # (a) hybrid rejections are exactly the union of single-metric rejections
    for theta in (1.25, 2.0, 2.5, 3.25):
        thresholds = ThresholdConfig(theta, theta)
        both = {s.pair_id for s in scores if verdict(s.slr, s.cr, thresholds) == UNSATISFACTORY}
        only_slr = {s.pair_id for s in scores if verdict(s.slr, s.cr, thresholds, "slr") == UNSATISFACTORY}
        only_cr = {s.pair_id for s in scores if verdict(s.slr, s.cr, thresholds, "cr") == UNSATISFACTORY}
        assert both == only_slr | only_cr

    # (b) the accepted set grows monotonically as either threshold rises
    previous: set[str] = set()
    for theta_slr in GRID:
        accepted = {s.pair_id for s in scores
                    if verdict(s.slr, s.cr, ThresholdConfig(theta_slr, 2.25)) == SATISFACTORY}
        assert previous <= accepted
        previous = accepted
    previous = set()
    for theta_cr in GRID:
        accepted = {s.pair_id for s in scores
                    if verdict(s.slr, s.cr, ThresholdConfig(2.5, theta_cr)) == SATISFACTORY}
        assert previous <= accepted
        previous = accepted

    # (c) per-class accuracies (20.29, 100) average to 60.145 and print as 60.15
    pairs = [SentencePair(str(i), "x", "y", SATISFACTORY) for i in range(10_000)]
    pairs += [SentencePair(f"u{i}", "x", "y", UNSATISFACTORY) for i in range(2_000)]
    # satisfactory pairs judged satisfactory exactly 2029 times
    flat = [PairScore(p.id, 1, 1, 1.0, 1.0,
                      1.0 if (p.label == SATISFACTORY and i < 2029) else 9.0,
                      1.0, SATISFACTORY)
            for i, p in enumerate(pairs)]
    report = evaluate(pairs, flat, ThresholdConfig(2.5, 2.5))
    assert report.sat_accuracy == pytest.approx(20.29, abs=1e-9)
    assert report.unsat_accuracy == pytest.approx(100.0, abs=1e-9)
    assert report.average == pytest.approx(60.145, abs=1e-9)
    assert fmt_pct(report.average) == "60.15"
    _passed("7", "union law, threshold monotonicity and accuracy arithmetic hold")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_hybrid_beats_single_metrics():
    started = time.perf_counter()
    corpus = build_corpus(500, 100, seed=20250810)
    model_a = PpmModel()
    for line in corpus.priming_a.splitlines():
        model_a.train(apply_transform(line, ARABIC_NUMERIC))
    model_e = PpmModel()
    for line in corpus.priming_e.splitlines():
        model_e.train(apply_transform(line, IDENTITY))
    scored = score_pairs(corpus.pairs, model_a.snapshot(), model_e.snapshot())
    scores = [s.score for s in scored]
    assert all(scores)

    best_slr = max(evaluate(corpus.pairs, scores, ThresholdConfig(g, g), "slr").average for g in GRID)
    best_cr = max(evaluate(corpus.pairs, scores, ThresholdConfig(g, g), "cr").average for g in GRID)
    matrix = threshold_matrix(corpus.pairs, scores, GRID, GRID)
    best_hybrid = max(max(row) for row in matrix)
    assert best_hybrid >= best_slr
    assert best_hybrid >= best_cr

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(
        "8",
        f"hybrid best {float(best_hybrid):.2f} >= slr best {float(best_slr):.2f} and "
        f"cr best {float(best_cr):.2f} on 600 labeled pairs, {elapsed:.1f}s",
    )


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_priming_gain_at_least_20_percent():
    from importlib import resources

    for language, transform in (("arabic", ARABIC_NUMERIC), ("english", IDENTITY)):
        text = resources.files("bitextverify").joinpath(f"data/{language}.txt").read_text("utf-8")
        lines = text.splitlines()
        split = int(len(lines) * 0.8)
        primed = PpmModel()
        for line in lines[:split]:
            primed.train(apply_transform(line, transform))
        primed_snapshot = primed.snapshot()
        empty_snapshot = PpmModel().snapshot()
        primed_bits = unprimed_bits = 0.0
        for line in lines[split:]:
            data = apply_transform(line, transform)
            primed_bits += ideal_bits(primed_snapshot, data)
            unprimed_bits += ideal_bits(empty_snapshot, data)
        gain = 1.0 - primed_bits / unprimed_bits
        assert gain >= 0.20, f"{language}: priming gain only {gain:.1%}"
    _passed("9", "primed code length beats unprimed by at least 20% per language")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_filter_determinism_across_jobs(tmp_path):
    corpus = build_corpus(9_000, 1_000, seed=10)
    corpus_path = tmp_path / "big.tsv"
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in corpus.pairs:
            fh.write(f"{pair.id}\t{pair.text_a}\t{pair.text_e}\n")

    outputs = []
    for jobs, name in (("1", "serial"), ("4", "parallel")):
        out_dir = tmp_path / name
        code = main(["filter", "--pairs", str(corpus_path), "--out-dir", str(out_dir),
                     "--jobs", jobs])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert set(outputs[0]) == {"accepted.tsv", "rejected.tsv", "invalid.tsv", "report.json"}
    assert outputs[0] == outputs[1]

    report = json.loads(outputs[0]["report.json"].decode("utf-8"))
    assert report["counts"]["total"] == 10_000
    _passed("10", "10000-pair filter outputs byte-identical at --jobs 1 and --jobs 4")
