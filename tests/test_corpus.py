import os
import signal
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bitextverify.corpus as corpus
from bitextverify.cli import _open_output, _pair_row
from bitextverify.coder import ideal_bits
from bitextverify.corpus import (
    CorpusFormatError,
    EvalReport,
    LABELS,
    SentencePair,
    evaluate,
    filter_corpus,
    greater_stats,
    load_aligned,
    load_corpus,
    load_tsv,
    pool_size,
    score_pairs,
    threshold_matrix,
    usable_cores,
)
from bitextverify.metrics import (
    SATISFACTORY,
    UNSATISFACTORY,
    InvalidPairError,
    PairScore,
    ThresholdConfig,
    score_pair,
)
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, prepare


def make_score(pair_id, slr_value, cr_value, len_a=10, len_e=10, bits_a=40.0, bits_e=40.0):
    return PairScore(pair_id, len_a, len_e, bits_a, bits_e, slr_value, cr_value, SATISFACTORY)


class TestLoadTsv:
    def test_three_labeled_rows(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "1\tالنص\tthe text\tSatisfactory\n"
            "2\tنص اخر\tanother text\tUnsatisfactory\n"
            "3\tثالث\tthird\tSatisfactory\n",
            encoding="utf-8",
        )
        pairs = load_tsv(path)
        assert len(pairs) == 3
        assert pairs[0] == SentencePair("1", "النص", "the text", SATISFACTORY, None)
        assert pairs[1].label == UNSATISFACTORY

    def test_category_column(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tأ\ta\tSatisfactory\tnews\n", encoding="utf-8")
        assert load_tsv(path)[0].category == "news"

    def test_unlabeled_rows(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\tأ\ta\n", encoding="utf-8")
        assert load_tsv(path)[0].label is None

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tأ\ta\n2\tonly-two-columns\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="2"):
            load_tsv(path)

    def test_invalid_label_token(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tأ\ta\tGood\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="label"):
            load_tsv(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tأ\ta\n1\tب\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_tsv(path)

    def test_empty_file_warns_not_errors(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning):
            assert load_tsv(path) == []

    def test_lone_cr_stays_inside_field(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("1\tأ\tfoo\rbar\n2\tب\tb\r\n".encode("utf-8"))
        pairs = load_tsv(path)
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[0].text_e == "foo\rbar"
        assert pairs[1].text_e == "b"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # only the one opening the file: a U+FEFF inside a field is text
        path = tmp_path / "c.tsv"
        path.write_bytes("\ufeff1\tأ\ta\n2\tب\tb\ufeff\n".encode("utf-8"))
        pairs = load_tsv(path)
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[1].text_e == "b\ufeff"

    @pytest.mark.parametrize("row", ["2\tب\tsome text\r\r\n", "2\tب\tsome text\r\t\t\n"])
    def test_field_ending_in_cr_rejected(self, tmp_path, row):
        # "\r\r\n" loses one "\r" with its terminator; the other, like an English
        # field ending in "\r" before empty columns, would not survive an output row
        path = tmp_path / "c.tsv"
        path.write_bytes(f"1\tأ\ta\n{row}".encode("utf-8"))
        with pytest.raises(CorpusFormatError, match=r"c\.tsv:2: a field ends in a carriage return"):
            load_tsv(path)


class TestLoadAligned:
    def test_zip(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_text("أول\nثان\n", encoding="utf-8")
        e.write_text("first\nsecond\n", encoding="utf-8")
        pairs = load_aligned(a, e)
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[1].text_e == "second"

    def test_length_mismatch_names_both(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_text("أول\nثان\nثالث\n", encoding="utf-8")
        e.write_text("first\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="3.*1"):
            load_aligned(a, e)

    def test_line_separator_on_one_side_stays_in_its_line(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_text("أول\u2028تابع\nثان\n", encoding="utf-8")
        e.write_text("first\nsecond\n", encoding="utf-8")
        pairs = load_aligned(a, e)
        assert [(p.id, p.text_a, p.text_e) for p in pairs] == [
            ("1", "أول\u2028تابع", "first"),
            ("2", "ثان", "second"),
        ]

    def test_line_separators_on_both_sides_keep_ids(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_text("أول\u2028تابع\nثان\n", encoding="utf-8")
        e.write_text("first\u2028more\x85\x0b\x0c\x1c\x1d\x1e\nsecond\n", encoding="utf-8")
        pairs = load_aligned(a, e)
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[0].text_e == "first\u2028more\x85\x0b\x0c\x1c\x1d\x1e"
        assert pairs[1].text_a == "ثان"

    def test_lone_cr_stays_inside_line(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_bytes("أول\r\nثان\r\n".encode("utf-8"))
        e.write_bytes(b"first\rpart\r\nsecond\n")
        pairs = load_aligned(a, e)
        assert [(p.text_a, p.text_e) for p in pairs] == [("أول", "first\rpart"), ("ثان", "second")]

    @pytest.mark.parametrize("name, bad", [
        ("x.ar", "نص\tعربي\n"),
        ("x.en", "some\ttext\n"),
        ("x.ar", "نص\r\r\n"),
        ("x.en", "text\r"),
    ])
    def test_line_a_tsv_field_cannot_hold_rejected(self, tmp_path, name, bad):
        files = {"x.ar": "أول\nثان\n", "x.en": "first\nsecond\n"}
        files[name] = files[name].split("\n")[0] + "\n" + bad
        for file, text in files.items():
            (tmp_path / file).write_bytes(text.encode("utf-8"))
        with pytest.raises(CorpusFormatError, match=rf"{name}:2: tab or trailing carriage return"):
            load_aligned(tmp_path / "x.ar", tmp_path / "x.en")

    def test_dispatch_through_load_corpus(self, tmp_path):
        a = tmp_path / "x.ar"
        e = tmp_path / "x.en"
        a.write_text("أول\n", encoding="utf-8")
        e.write_text("one\n", encoding="utf-8")
        assert len(load_corpus(a, "aligned", english_path=e)) == 1
        with pytest.raises(ValueError):
            load_corpus(a, "aligned")
        with pytest.raises(ValueError):
            load_corpus(a, "xml")


def labeled(pair_id, label):
    return SentencePair(pair_id, "نص", "text", label)


# Fields rich in the characters a TSV row or a line split could mangle.
FIELD = st.one_of(
    st.text(st.sampled_from(list("ab \t\r\n\u2028\x85\x0bنص")), max_size=6),
    st.text(max_size=6),
)


def _write_back_and_reload(pairs, directory):
    out = Path(directory) / "out.tsv"
    with _open_output(out) as fh:
        for p in pairs:
            print(_pair_row(p), file=fh)
    return load_tsv(out)


@pytest.mark.filterwarnings("ignore:.*empty corpus")
class TestOutputRoundTrip:
    """A pair that loads is written by the filter outputs as a row that loads back equal."""

    @settings(max_examples=300, deadline=None)
    @given(cols=st.tuples(FIELD, FIELD, FIELD, st.sampled_from(["", *LABELS]), FIELD))
    def test_tsv(self, cols):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "in.tsv"
            path.write_bytes(("\t".join(cols) + "\n").encode("utf-8"))
            try:
                pairs = load_tsv(path)
            except CorpusFormatError:
                return
            assert _write_back_and_reload(pairs, directory) == pairs

    @settings(max_examples=300, deadline=None)
    @given(arabic=FIELD, english=FIELD)
    def test_aligned(self, arabic, english):
        with tempfile.TemporaryDirectory() as directory:
            path_a, path_e = Path(directory) / "in.ar", Path(directory) / "in.en"
            path_a.write_bytes(arabic.encode("utf-8"))
            path_e.write_bytes(english.encode("utf-8"))
            try:
                pairs = load_aligned(path_a, path_e)
            except CorpusFormatError:
                return
            assert _write_back_and_reload(pairs, directory) == pairs


class TestEvaluate:
    # four pairs straddling thresholds (2.0, 2.0); verdicts enumerated by hand:
    #   p1 sat   slr 1.5 cr 1.2 -> accepted  (correct)
    #   p2 sat   slr 2.5 cr 1.0 -> rejected  (wrong)
    #   p3 unsat slr 1.0 cr 3.0 -> rejected  (correct)
    #   p4 unsat slr 1.2 cr 1.1 -> accepted  (wrong)
    def setup_method(self):
        self.pairs = [
            labeled("p1", SATISFACTORY),
            labeled("p2", SATISFACTORY),
            labeled("p3", UNSATISFACTORY),
            labeled("p4", UNSATISFACTORY),
        ]
        self.scores = [
            make_score("p1", 1.5, 1.2),
            make_score("p2", 2.5, 1.0),
            make_score("p3", 1.0, 3.0),
            make_score("p4", 1.2, 1.1),
        ]
        self.thresholds = ThresholdConfig(2.0, 2.0)

    def test_hand_enumerated_accuracies(self):
        report = evaluate(self.pairs, self.scores, self.thresholds)
        assert report.sat_accuracy == 50.0
        assert report.unsat_accuracy == 50.0
        assert report.average == 50.0

    def test_single_metric_modes(self):
        slr_report = evaluate(self.pairs, self.scores, self.thresholds, "slr")
        assert slr_report.sat_accuracy == 50.0  # p2 rejected by slr alone
        assert slr_report.unsat_accuracy == 0.0  # neither unsat pair has slr > 2
        cr_report = evaluate(self.pairs, self.scores, self.thresholds, "cr")
        assert cr_report.sat_accuracy == 100.0
        assert cr_report.unsat_accuracy == 50.0

    def test_infinite_thresholds_accept_everything(self):
        report = evaluate(self.pairs, self.scores, ThresholdConfig(1e12, 1e12))
        assert report.sat_accuracy == 100.0
        assert report.unsat_accuracy == 0.0
        assert report.average == 50.0

    def test_rejected_set_union_law(self):
        # hybrid rejections are exactly the union of the single-metric rejections
        for theta in (ThresholdConfig(1.1, 1.15), self.thresholds, ThresholdConfig(2.6, 3.1)):
            def rejected(mode):
                from bitextverify.metrics import verdict
                return {
                    s.pair_id
                    for s in self.scores
                    if verdict(s.slr, s.cr, theta, mode) == UNSATISFACTORY
                }
            assert rejected("both") == rejected("slr") | rejected("cr")

    def test_hybrid_accuracy_bounds_vs_single_modes(self):
        # hybrid rejections are a superset of each single mode's, so unsat
        # accuracy dominates and sat accuracy is dominated, pointwise
        for theta in (ThresholdConfig(1.3, 1.6), self.thresholds, ThresholdConfig(2.8, 2.2)):
            both = evaluate(self.pairs, self.scores, theta)
            only_slr = evaluate(self.pairs, self.scores, theta, "slr")
            only_cr = evaluate(self.pairs, self.scores, theta, "cr")
            assert both.unsat_accuracy >= max(only_slr.unsat_accuracy, only_cr.unsat_accuracy)
            assert both.sat_accuracy <= min(only_slr.sat_accuracy, only_cr.sat_accuracy)

    def test_unlabeled_pair_rejected(self):
        pairs = [labeled("p1", SATISFACTORY), SentencePair("p2", "a", "b"), labeled("p3", UNSATISFACTORY)]
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate(pairs, self.scores[:3], self.thresholds)

    def test_scores_must_align_with_pairs(self):
        with pytest.raises(ValueError, match="4 pairs but 3 scores"):
            evaluate(self.pairs, self.scores[:-1], self.thresholds)

    def test_single_class_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self.pairs[:2], self.scores[:2], self.thresholds)

    def test_average_property(self):
        report = EvalReport(20.29, 100.0)
        assert report.average == pytest.approx(60.145)


class TestThresholdMatrix:
    def setup_method(self):
        self.pairs = [labeled(f"s{i}", SATISFACTORY) for i in range(6)] + [
            labeled(f"u{i}", UNSATISFACTORY) for i in range(4)
        ]
        # satisfactory pairs sit below the sweep range, unsatisfactory above
        self.scores = [make_score(f"s{i}", 1.0 + 0.02 * i, 1.05) for i in range(6)] + [
            make_score(f"u{i}", 3.8 + i, 3.9 + i) for i in range(4)
        ]

    def test_single_cell_equals_direct_evaluate(self):
        cell = threshold_matrix(self.pairs, self.scores, [2.0], [2.25])[0][0]
        direct = evaluate(self.pairs, self.scores, ThresholdConfig(2.0, 2.25)).average
        assert cell == direct

    def test_cells_match_independent_evaluates(self):
        slr_grid = [1.5, 2.0, 2.5]
        cr_grid = [1.25, 2.25]
        matrix = threshold_matrix(self.pairs, self.scores, slr_grid, cr_grid)
        for i, theta_cr in enumerate(cr_grid):
            for j, theta_slr in enumerate(slr_grid):
                expected = evaluate(
                    self.pairs, self.scores, ThresholdConfig(theta_slr, theta_cr)
                ).average
                assert matrix[i][j] == expected

    def test_monotone_when_classes_separate(self):
        grid = [1.25, 1.75, 2.25, 2.75, 3.25]
        matrix = threshold_matrix(self.pairs, self.scores, grid, grid)
        for row in matrix:
            assert all(b >= a for a, b in zip(row, row[1:]))
        for col in zip(*matrix):
            assert all(b >= a for a, b in zip(col, col[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_matrix(self.pairs, self.scores, [], [1.0])
        with pytest.raises(ValueError):
            threshold_matrix(self.pairs, self.scores, [1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            threshold_matrix(self.pairs, self.scores, [2.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            threshold_matrix(self.pairs, self.scores, [1.0, float("nan"), 2.0], [1.0])


GRID_VALUES = st.lists(st.integers(1, 40).map(lambda k: k / 8), min_size=1, max_size=6, unique=True)


@settings(max_examples=200, deadline=None)
@given(
    slr_grid=GRID_VALUES,
    cr_grid=GRID_VALUES,
    # scores on grid points (k / 8), between them, and beyond both ends
    rows=st.lists(st.tuples(st.booleans(), st.integers(0, 44), st.integers(0, 44),
                            st.booleans(), st.booleans()), min_size=1, max_size=30),
)
def test_threshold_matrix_equals_evaluate_per_cell(slr_grid, cr_grid, rows):
    slr_grid, cr_grid = sorted(slr_grid), sorted(cr_grid)
    pairs = [labeled(f"p{i}", SATISFACTORY if sat else UNSATISFACTORY)
             for i, (sat, *_) in enumerate(rows)]
    scores = [make_score(f"p{i}", k / 8 + 0.0625 * between_slr, m / 8 + 0.0625 * between_cr)
              for i, (_, k, m, between_slr, between_cr) in enumerate(rows)]
    try:
        expected = [[evaluate(pairs, scores, ThresholdConfig(theta_slr, theta_cr)).average
                     for theta_slr in slr_grid] for theta_cr in cr_grid]
    except CorpusFormatError as exc:  # one label only
        with pytest.raises(CorpusFormatError, match=str(exc)):
            threshold_matrix(pairs, scores, slr_grid, cr_grid)
        return
    matrix = threshold_matrix(pairs, scores, slr_grid, cr_grid)
    assert matrix == expected
    assert all(type(cell) is type(expected[0][0]) for row in matrix for cell in row)


def test_threshold_matrix_keeps_evaluates_input_checks():
    pairs = [labeled("s", SATISFACTORY), labeled("u", UNSATISFACTORY)]
    scores = [make_score("s", 1.0, 1.0), make_score("u", 3.0, 3.0)]
    with pytest.raises(CorpusFormatError, match="'p2' is unlabeled"):
        threshold_matrix([*pairs, SentencePair("p2", "a", "b")], [*scores, scores[0]], [1.0], [1.0])
    with pytest.raises(ValueError, match="2 pairs but 1 scores"):
        threshold_matrix(pairs, scores[:1], [1.0], [1.0])


class TestGreaterStats:
    def test_ties_count_as_not_greater(self):
        scores = [make_score(f"p{i}", 1.0, 1.0) for i in range(3)]
        assert greater_stats(scores) == (0.0, 0.0)

    def test_hand_counted_quarters(self):
        scores = [
            make_score("p0", 1.0, 1.0, len_a=12, len_e=10, bits_a=50.0, bits_e=40.0),
            make_score("p1", 1.0, 1.0, len_a=8, len_e=10, bits_a=50.0, bits_e=40.0),
            make_score("p2", 1.0, 1.0, len_a=9, len_e=10, bits_a=30.0, bits_e=40.0),
            make_score("p3", 1.0, 1.0, len_a=10, len_e=10, bits_a=40.0, bits_e=40.0),
        ]
        assert greater_stats(scores) == (25.0, 50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greater_stats([])


@pytest.fixture(scope="module")
def filter_models():
    model_a = PpmModel()
    model_a.train("مرحبا بكم".encode("utf-8"))
    model_e = PpmModel()
    model_e.train(b"hello and welcome to the corpus")
    return model_a.snapshot(), model_e.snapshot()


class TestFilterCorpus:
    def test_partition_property(self, filter_models):
        model_a, model_e = filter_models
        pairs = [
            SentencePair("ok", "مرحبا", "welcome"),
            SentencePair("short", "ب", "a very long english side " * 4),
            SentencePair("bad", "", "english only"),
            SentencePair("self", "same text", "same text"),
        ]
        accepted, rejected, invalid = filter_corpus(pairs, model_a, model_e)
        ids = [s.pair.id for part in (accepted, rejected, invalid) for s in part]
        assert sorted(ids) == sorted(p.id for p in pairs)
        assert all(s.score is not None and s.error is None for s in accepted + rejected)
        assert [(s.pair.id, s.score, s.error) for s in invalid] == [
            ("bad", None, "empty arabic side")
        ]
        assert "self" in [s.pair.id for s in accepted]
        assert "short" in [s.pair.id for s in rejected]

    def test_empty_corpus(self, filter_models):
        model_a, model_e = filter_models
        assert filter_corpus([], model_a, model_e) == ([], [], [])

    def test_self_paired_corpus_fully_accepted(self, filter_models):
        model_a, model_e = filter_models
        pairs = [SentencePair(str(i), f"text {i}", f"text {i}") for i in range(10)]
        accepted, rejected, invalid = filter_corpus(pairs, model_a, model_a)
        assert len(accepted) == 10 and not rejected and not invalid

    def test_raising_threshold_grows_accepted_set(self, filter_models):
        model_a, model_e = filter_models
        pairs = [
            SentencePair(str(i), "مرحبا " * (1 + i % 5), "welcome " * (1 + (i * 3) % 7))
            for i in range(20)
        ]
        previous: set[str] = set()
        for theta in (1.05, 1.5, 2.5, 4.0, 8.0):
            accepted, _, _ = filter_corpus(pairs, model_a, model_e, ThresholdConfig(theta, theta))
            current = {s.pair.id for s in accepted}
            assert previous <= current
            previous = current

    def test_per_category_breakdown(self, filter_models):
        model_a, model_e = filter_models
        pairs = [
            SentencePair("1", "نص", "text", category="news"),
            SentencePair("2", "نص", "text"),
            SentencePair("3", "", "text", category="news"),
        ]
        accepted, rejected, invalid = filter_corpus(pairs, model_a, model_e)
        assert {s.pair.id: s.pair.category for s in accepted + rejected} == {"1": "news", "2": None}
        assert [(s.pair.id, s.pair.category) for s in invalid] == [("3", "news")]

    def test_order_preserved(self, filter_models):
        model_a, _ = filter_models
        pairs = [SentencePair(str(i), f"t{i}", f"t{i}") for i in range(30)]
        accepted, _, _ = filter_corpus(pairs, model_a, model_a)
        assert [s.pair.id for s in accepted] == [str(i) for i in range(30)]
        pairs = [SentencePair(str(i), "" if i % 3 else "t", f"t{i}" * (i % 2)) for i in range(12)]
        _, _, invalid = filter_corpus(pairs, model_a, model_a)
        assert [s.pair.id for s in invalid] == [p.id for p in pairs if not (p.text_a and p.text_e)]


class TestScorePairsParallel:
    def test_jobs_match_sequential(self, filter_models):
        model_a, model_e = filter_models
        pairs = [
            SentencePair(str(i), "مرحبا " * (1 + i % 3), "hello there " * (1 + i % 4))
            for i in range(25)
        ] + [SentencePair("empty", "", "x")]
        sequential = score_pairs(pairs, model_a, model_e, jobs=1)
        parallel = score_pairs(pairs, model_a, model_e, jobs=2)
        assert sequential == parallel

    def test_results_wrap_the_callers_pairs(self, filter_models, monkeypatch):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)  # a pool even on one core
        model_a, model_e = filter_models
        pairs = [SentencePair(str(i), "مرحبا", "hello") for i in range(5)]
        pairs.append(SentencePair("empty", "", "x"))
        scored = score_pairs(pairs, model_a, model_e, jobs=2)
        assert len(scored) == len(pairs)
        assert all(item.pair is pair for item, pair in zip(scored, pairs))
        assert scored[-1].error == "empty arabic side"


# metrics.MAX_SIDE_BYTES, the most prepared bytes a scored side may have
SIDE_LIMIT = 65536


# a side of n prepared bytes: one byte per Arabic-block letter, two per UTF-8 "é"
def _arabic_side(n):
    return "س" * n


def _english_side(n):
    return "é" * (n // 2) + "a" * (n % 2)


class TestSideLimit:
    """A side of more than SIDE_LIMIT prepared bytes makes its pair invalid,
    after the empty-side checks and the Arabic side first; one at the limit scores."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_at_the_limit_scores(self, filter_models, monkeypatch, jobs):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)  # a pool even on one core
        model_a, model_e = filter_models
        pair = SentencePair("1", _arabic_side(SIDE_LIMIT), _english_side(SIDE_LIMIT))
        data_a, data_e = prepare(pair.text_a, ARABIC_NUMERIC).data, pair.text_e.encode("utf-8")
        assert len(data_a) == len(data_e) == SIDE_LIMIT
        (scored,) = score_pairs([pair], model_a, model_e, jobs=jobs)
        assert scored.error is None
        assert (scored.score.bits_a, scored.score.bits_e) == (
            ideal_bits(model_a, data_a), ideal_bits(model_e, data_e))
        assert (scored.score.len_a, scored.score.len_e) == (65536, 32768)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_over_the_limit_is_invalid(self, filter_models, monkeypatch, jobs):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)
        model_a, model_e = filter_models
        over, short = SIDE_LIMIT + 1, "مرحبا"
        pairs = [
            SentencePair("a", _arabic_side(over), "hello"),
            SentencePair("e", short, _english_side(over)),
            SentencePair("escaped", "€" * (over // 4 + 1), "hello"),  # 4 bytes a character
            SentencePair("both", _arabic_side(over), _english_side(over)),
            SentencePair("empty", _arabic_side(over), ""),
            SentencePair("ok", short, "hello"),
        ]
        scored = score_pairs(pairs, model_a, model_e, jobs=jobs)
        assert [item.error for item in scored] == [
            "arabic side longer than 65536 bytes",
            "english side longer than 65536 bytes",
            "arabic side longer than 65536 bytes",
            "arabic side longer than 65536 bytes",
            "empty english side",
            None,
        ]
        with pytest.raises(InvalidPairError, match="english side longer than 65536 bytes"):
            score_pair(pairs[1], model_a, model_e)


# sides drawn from a few short texts, so most of them repeat and many begin one
# another ("a", "ab", "ab c", "abc"; "مر", "مرحبا"), so a walk has several members;
# "" makes a pair invalid, and so does a side one byte over SIDE_LIMIT in either
# language, though "a" begins it. A repeated text pair may differ in id, label or category
_SIDE = st.sampled_from(["", "a", "abc", "ab", "a b", "ab c", "مر", "مرحبا", "ab ab", "نص abc",
                         "a" * (SIDE_LIMIT + 1)])
_REPEATED_PAIRS = st.lists(
    st.tuples(_SIDE, _SIDE, st.sampled_from([None, *LABELS]), st.sampled_from([None, "news"])),
    max_size=30,
).map(lambda rows: [SentencePair(str(i), *row) for i, row in enumerate(rows)])


class TestDistinctSides:
    """score_pairs walks each chain of prefix-related sides once; the results must
    be those of score_pair on every pair, repeated, empty, prefix-related and
    cross-language-equal sides included."""

    @staticmethod
    def _expected(pairs, model_a, model_e, thresholds):
        expected = []
        for pair in pairs:
            try:
                expected.append((score_pair(pair, model_a, model_e, thresholds), None))
            except InvalidPairError as exc:
                expected.append((None, exc.reason))
        return expected

    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(max_examples=25, deadline=None)
    @given(pairs=_REPEATED_PAIRS)
    def test_equals_score_pair(self, filter_models, jobs, pairs):
        model_a, model_e = filter_models
        thresholds = ThresholdConfig(1.5, 1.4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "usable_cores", lambda: 2)  # a pool even on one core
            scored = score_pairs(pairs, model_a, model_e, thresholds, jobs=jobs)
        assert [item.pair for item in scored] == pairs
        got = [(item.score, item.error) for item in scored]
        assert got == self._expected(pairs, model_a, model_e, thresholds)

    def test_repeats_are_scored_once(self, filter_models, monkeypatch):
        """One walk per chain, in sorted order: English "ab" and "abc" are one walk
        with cuts (2, 3), and each cut's float goes to the side of that length."""
        model_a, model_e = filter_models
        calls = []

        def fake_bits(model, data, cuts):
            calls.append((model, data, cuts))
            return [8.0 * cut + 0.5 * (model is model_e) for cut in cuts]

        monkeypatch.setattr(corpus, "side_bits", fake_bits)
        pairs = [SentencePair("1", "ab", "ab"), SentencePair("2", "ab", "abc"),
                 SentencePair("3", "", "ab"), SentencePair("4", "ab", "cd"),
                 SentencePair("5", "ab", "ab")]
        scored = score_pairs(pairs, model_a, model_e)
        data_a = prepare("ab", ARABIC_NUMERIC).data
        assert calls == [(model_a, data_a, (2,)), (model_e, b"abc", (2, 3)),
                         (model_e, b"cd", (2,))]
        bits = [None if s.score is None else (s.score.bits_a, s.score.bits_e) for s in scored]
        assert bits == [(16.0, 16.5), (16.0, 24.5), None, (16.0, 16.5), (16.0, 16.5)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_small_alphabet_still_raises(self, jobs, monkeypatch):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)
        model = PpmModel(2, 4)
        pairs = [SentencePair("1", "ab", "ab"), SentencePair("2", "ab", "ab")]
        with pytest.raises(ValueError, match="alphabet"):
            score_pairs(pairs, model, model, jobs=jobs)


def _time_out(signum, frame):
    raise TimeoutError("score_pairs did not return")


class TestForkJoin:
    """score_pairs over three processes (this one and two forked children) gives
    the serial result, also when a child fails, and leaves no child or pipe behind."""

    PAIRS = [
        SentencePair(str(i), "مرحبا " * (1 + i % 3), "hello there " * (1 + i % 4))
        for i in range(36)
    ] + [SentencePair("ea", "", "x"), SentencePair("ee", "نص", ""), SentencePair("eb", "", ""),
         SentencePair("ok", "بكم", "welcome"), SentencePair("same", "abc", "abc")]

    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 3)  # children even on one core

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pids of the children forked through os.fork during the test."""
        pids, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        yield pids
        for pid in pids:  # after a failure, leave no child behind
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass

    @settings(max_examples=15, deadline=None)
    @given(pairs=_REPEATED_PAIRS)
    def test_three_processes_match_serial(self, filter_models, pairs):
        model_a, model_e = filter_models
        assert score_pairs(pairs, model_a, model_e, jobs=3) == score_pairs(
            pairs, model_a, model_e, jobs=1
        )

    def test_fixed_corpus_forks_two_children(self, filter_models, forks):
        model_a, model_e = filter_models
        serial = score_pairs(self.PAIRS, model_a, model_e, jobs=1)
        assert forks == []
        assert score_pairs(self.PAIRS, model_a, model_e, jobs=3) == serial
        assert len(forks) == 2
        assert sum(s.score is None for s in serial) == 3

    def test_serial_where_fork_is_missing(self, filter_models, monkeypatch):
        model_a, model_e = filter_models
        serial = score_pairs(self.PAIRS, model_a, model_e, jobs=1)
        monkeypatch.delattr(os, "fork")
        assert score_pairs(self.PAIRS, model_a, model_e, jobs=3) == serial

    @staticmethod
    def _mark_child(directory):
        """Record in `directory` that this process, a forked child, ran the fake."""
        Path(directory, str(os.getpid())).touch()

    @staticmethod
    def _marked(directory):
        return sorted(int(name) for name in os.listdir(directory))

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_child_share_is_scored_here(self, filter_models, monkeypatch, forks, failure,
                                               tmp_path):
        """A child that raises (exits 1) or exits 0 before it replies: the parent
        scores that share itself, with the same floats. Each child records that
        the fake ran in it, so the failure is the one under test."""
        model_a, model_e = filter_models
        serial = score_pairs(self.PAIRS, model_a, model_e, jobs=1)
        parent, real_bits = os.getpid(), corpus.side_bits

        def side_bits(model, data, cuts):
            if os.getpid() != parent:
                self._mark_child(tmp_path)
                if failure == "exit":
                    os._exit(0)
                raise RuntimeError("child share fails")
            return real_bits(model, data, cuts)

        monkeypatch.setattr(corpus, "side_bits", side_bits)
        assert score_pairs(self.PAIRS, model_a, model_e, jobs=3) == serial
        assert len(forks) == 2
        assert self._marked(tmp_path) == sorted(forks)

    @pytest.mark.parametrize("where", ["parent", "everywhere", "busy-children"])
    @pytest.mark.parametrize("n_pairs", [41, 15_000])
    def test_raising_call_leaves_no_child_or_fd(self, filter_models, monkeypatch, forks,
                                                where, n_pairs, tmp_path):
        """15,000 pairs give each child 10,000 floats, more than a pipe holds, so
        a child is still writing when this process stops reading. Busy children,
        20 s on each walk, are killed rather than waited for. Each child records
        that the fake ran in it, and this process raises only once both have."""
        model_a, model_e = filter_models
        parent = os.getpid()

        def side_bits(model, data, cuts):
            if os.getpid() == parent:
                deadline = time.monotonic() + 3
                while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise ValueError("symbol 300 outside alphabet of size 256")
            self._mark_child(tmp_path)
            if where == "everywhere":
                raise ValueError("symbol 300 outside alphabet of size 256")
            if where == "busy-children":
                time.sleep(20)
            return [1.0] * len(cuts)

        monkeypatch.setattr(corpus, "side_bits", side_bits)
        pairs = [SentencePair(str(i), f"a{i}", f"e{i}") for i in range(n_pairs)]
        fds = sorted(os.listdir("/dev/fd"))
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.alarm(60)  # a child blocked on its pipe would hang the reaping
        started = time.monotonic()
        try:
            with pytest.raises(ValueError, match="outside alphabet"):
                score_pairs(pairs, model_a, model_e, jobs=3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 5
        assert sorted(os.listdir("/dev/fd")) == fds
        assert len(forks) == 2
        assert self._marked(tmp_path) == sorted(forks)
        for pid in forks:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(pid, os.WNOHANG)

    def test_no_deprecation_warning(self, filter_models, forks):
        """Python 3.12+ warns when a multi-threaded process forks; no thread is started."""
        model_a, model_e = filter_models
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scored = score_pairs(self.PAIRS, model_a, model_e, jobs=2)
        assert scored == score_pairs(self.PAIRS, model_a, model_e, jobs=1)
        assert len(forks) == 1


class TestPoolSize:
    """The pool size is computed by a pure helper; no pool is started here."""

    @pytest.mark.parametrize(
        "jobs,n_walks,cores,expected",
        [
            (1, 100, 8, 1),
            (4, 100, 8, 4),
            (4, 100, 2, 2),
            (10**9, 100, 8, 8),
            (10**9, 3, 64, 3),
            (8, 1, 8, 1),
            (8, 0, 8, 1),
        ],
    )
    def test_capped_by_cores_and_pairs(self, jobs, n_walks, cores, expected):
        assert pool_size(jobs, n_walks, cores) == expected

    @pytest.mark.parametrize("jobs", [0, -1, -(10**9)])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            pool_size(jobs, 10, 4)

    def test_score_pairs_rejects_zero_jobs(self, filter_models):
        model_a, model_e = filter_models
        with pytest.raises(ValueError):
            score_pairs([SentencePair("1", "نص", "text")], model_a, model_e, jobs=0)

    def test_no_pool_without_a_side_to_score(self, monkeypatch):
        """The processes are counted by walks, not pairs: 5 pairs with an empty
        Arabic side at jobs=2 on 2 cores score nothing, so nothing is forked."""

        def fork():
            raise AssertionError("a child was forked")

        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", fork)
        model = PpmModel().snapshot()
        pairs = [SentencePair(str(i), "", "english side") for i in range(5)]
        scored = score_pairs(pairs, model, model, jobs=2)
        assert [s.error for s in scored] == ["empty arabic side"] * 5, scored

    def test_usable_cores_positive(self):
        assert usable_cores() >= 1
