import pytest
from hypothesis import given, strategies as st

from bitextverify.corpus import SentencePair
from bitextverify.metrics import (
    SATISFACTORY,
    UNSATISFACTORY,
    InvalidPairError,
    PairScore,
    ThresholdConfig,
    code_ratio,
    cr,
    score_pair,
    slr,
    verdict,
)
from bitextverify.ppm import PpmModel

positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
length = st.integers(1, 10**6)


class TestRatios:
    def test_code_ratio_reference_row(self):
        # compressed sizes 29 vs 26 bytes
        assert code_ratio(29 * 8, 26 * 8) == pytest.approx(1.11538, abs=5e-6)
        assert round(cr(26 * 8, 29 * 8), 4) == 1.1154

    def test_cr_reference_row_four(self):
        assert round(cr(27 * 8, 19 * 8), 4) == 1.4211

    def test_equal_inputs(self):
        assert code_ratio(3.5, 3.5) == 1.0
        assert cr(3.5, 3.5) == 1.0
        assert slr(12, 12) == 1.0

    def test_slr_reference_rows(self):
        assert round(slr(59, 95), 4) == 1.6102
        assert round(slr(27, 45), 4) == 1.6667

    def test_rejections(self):
        with pytest.raises(ValueError):
            code_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            cr(1.0, 0.0)
        with pytest.raises(ValueError):
            slr(0, 5)

    @given(positive, positive)
    def test_cr_at_least_one_and_symmetric(self, a, b):
        value = cr(a, b)
        assert value >= 1.0
        assert cr(b, a) == value

    @given(length, length)
    def test_slr_at_least_one_and_symmetric(self, a, b):
        value = slr(a, b)
        assert value >= 1.0
        assert slr(b, a) == value

    @given(positive, positive)
    def test_reciprocal_law(self, a, b):
        assert abs(code_ratio(a, b) * code_ratio(b, a) - 1.0) < 1e-12

    @given(positive, positive, st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_invariance(self, a, b, k):
        assert cr(k * a, k * b) == pytest.approx(cr(a, b), rel=1e-12)


class TestVerdict:
    def test_boundary_values_pass(self):
        thresholds = ThresholdConfig()
        assert verdict(2.5, 2.25, thresholds) == SATISFACTORY

    def test_exceeding_either_rejects(self):
        thresholds = ThresholdConfig()
        assert verdict(2.5000001, 1.0, thresholds) == UNSATISFACTORY
        assert verdict(1.0, 2.2500001, thresholds) == UNSATISFACTORY
        assert verdict(3.0, 1.0, thresholds) == UNSATISFACTORY

    def test_single_metric_modes(self):
        thresholds = ThresholdConfig(2.0, 2.0)
        assert verdict(5.0, 1.0, thresholds, "cr") == SATISFACTORY
        assert verdict(5.0, 1.0, thresholds, "slr") == UNSATISFACTORY
        assert verdict(1.0, 5.0, thresholds, "slr") == SATISFACTORY
        assert verdict(1.0, 5.0, thresholds, "cr") == UNSATISFACTORY

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            verdict(1.0, 1.0, ThresholdConfig(), "slr+cr")

    @given(
        st.floats(1.0, 10.0), st.floats(1.0, 10.0),
        st.floats(0.1, 5.0), st.floats(0.1, 5.0),
        st.floats(0.0, 3.0), st.floats(0.0, 3.0),
    )
    def test_raising_thresholds_never_flips_to_reject(self, s, c, t_slr, t_cr, up1, up2):
        low = ThresholdConfig(t_slr, t_cr)
        high = ThresholdConfig(t_slr + up1, t_cr + up2)
        if verdict(s, c, low) == SATISFACTORY:
            assert verdict(s, c, high) == SATISFACTORY


class TestThresholdConfig:
    def test_defaults(self):
        thresholds = ThresholdConfig()
        assert thresholds.theta_slr == 2.5 and thresholds.theta_cr == 2.25

    @pytest.mark.parametrize("slr_t,cr_t", [(0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0),
                                            (float("nan"), 1.0), (True, 1.0),
                                            pytest.param(10**400, 1.0, id="10**400-1.0")])
    def test_invalid_rejected(self, slr_t, cr_t):
        with pytest.raises(ValueError):
            ThresholdConfig(slr_t, cr_t)


@pytest.fixture(scope="module")
def small_models():
    model_a = PpmModel()
    model_a.train("سلام عليكم".encode("utf-8"))
    model_e = PpmModel()
    model_e.train(b"hello there general reader")
    return model_a.snapshot(), model_e.snapshot()


class TestScorePair:
    def test_identical_texts_unit_ratios(self, small_models):
        model_a, model_e = small_models
        pair = SentencePair("p1", "abc abc", "abc abc")
        score = score_pair(pair, model_a, model_a)
        assert score.slr == 1.0 and score.cr == 1.0
        assert score.verdict == SATISFACTORY

    def test_empty_side_raises(self, small_models):
        model_a, model_e = small_models
        with pytest.raises(InvalidPairError):
            score_pair(SentencePair("p", "", "text"), model_a, model_e)
        with pytest.raises(InvalidPairError):
            score_pair(SentencePair("p", "text", ""), model_a, model_e)

    def test_score_fields_consistent(self, small_models):
        model_a, model_e = small_models
        pair = SentencePair("p2", "سلام سلام", "peace peace here")
        score = score_pair(pair, model_a, model_e)
        assert score.len_a == 9 and score.len_e == 16
        assert score.slr == pytest.approx(16 / 9)
        assert score.cr == pytest.approx(max(score.bits_a / score.bits_e, score.bits_e / score.bits_a))

    def test_scoring_order_independent(self, small_models):
        model_a, model_e = small_models
        first = SentencePair("a", "مرحبا", "hi there")
        second = SentencePair("b", "سلام لك", "peace to you")
        one = [score_pair(p, model_a, model_e) for p in (first, second)]
        other = [score_pair(p, model_a, model_e) for p in (second, first)]
        assert one[0] == other[1] and one[1] == other[0]

    def test_tsv_row_format(self, small_models):
        model_a, model_e = small_models
        score = score_pair(SentencePair("id9", "مرحبا", "hello"), model_a, model_e)
        row = score.tsv_row()
        cols = row.split("\t")
        assert cols[0] == "id9"
        assert cols[1] == "5" and cols[2] == "5"
        assert cols[7] in (SATISFACTORY, UNSATISFACTORY)
        float(cols[5]), float(cols[6])  # slr and cr parse as numbers
        # the record holds the id and then exactly the TSV's columns, in order
        assert PairScore._fields[1:] == tuple(PairScore.TSV_HEADER.split("\t")[1:])
        assert len(cols) == len(PairScore._fields)
