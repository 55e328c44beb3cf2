"""Sentence-pair distance metrics and the hybrid accept/reject rule.

A pair is scored with two ratios, both folded to be >= 1 and symmetric in the
two sides: the sentence length ratio over character counts, and the code
length ratio over ideal compression code lengths. The hybrid rule accepts a
pair only when neither ratio exceeds its threshold; values exactly equal to a
threshold are not "exceeded" and pass.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple

from .coder import ideal_bits
from .ppm import PpmModel
from .preprocess import ARABIC_NUMERIC, IDENTITY, PreparedText, prepare

if TYPE_CHECKING:
    from .corpus import SentencePair

SATISFACTORY = "Satisfactory"
UNSATISFACTORY = "Unsatisfactory"

METRIC_SLR = "slr"
METRIC_CR = "cr"
METRIC_BOTH = "both"
METRIC_MODES = (METRIC_SLR, METRIC_CR, METRIC_BOTH)

# scoring a side holds up to max_order + 1 contexts per byte of it: about 320 bytes of memory
MAX_SIDE_BYTES = 65536

SIDE_TRANSFORMS = {"arabic": ARABIC_NUMERIC, "english": IDENTITY}


class _Thresholds(NamedTuple):
    theta_slr: float
    theta_cr: float


class ThresholdConfig(_Thresholds):
    """The (SLR, CR) threshold pair driving classification."""

    __slots__ = ()

    def __new__(cls, theta_slr: float = 2.5, theta_cr: float = 2.25):
        for name, value in (("theta_slr", theta_slr), ("theta_cr", theta_cr)):
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        return super().__new__(cls, theta_slr, theta_cr)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class InvalidPairError(ValueError):
    """Pair cannot be scored (an empty or too long side); reported, never silently dropped."""

    def __init__(self, pair_id: str, reason: str):
        super().__init__(f"pair {pair_id!r}: {reason}")
        self.reason = reason


def code_ratio(bits_x: float, bits_y: float) -> float:
    """Plain ratio of two code lengths."""
    if bits_x <= 0 or bits_y <= 0:
        raise ValueError(f"code lengths must be positive, got {bits_x}, {bits_y}")
    return bits_x / bits_y


def cr(bits_a: float, bits_e: float) -> float:
    """Code length ratio folded to >= 1: max of the ratio and its reciprocal."""
    if bits_a <= 0 or bits_e <= 0:
        raise ValueError(f"code lengths must be positive, got {bits_a}, {bits_e}")
    return max(bits_a / bits_e, bits_e / bits_a)


def slr(len_a: int, len_e: int) -> float:
    """Sentence length ratio folded to >= 1: max of the ratio and its reciprocal."""
    if len_a < 1 or len_e < 1:
        raise ValueError(f"lengths must be >= 1, got {len_a}, {len_e}")
    return max(len_a / len_e, len_e / len_a)


def verdict(slr_value: float, cr_value: float, thresholds: ThresholdConfig,
            metric_mode: str = METRIC_BOTH) -> str:
    """Apply the threshold rule; strictly greater than a threshold rejects."""
    if metric_mode not in METRIC_MODES:
        raise ValueError(f"unknown metric mode {metric_mode!r}")
    rejected = False
    if metric_mode in (METRIC_SLR, METRIC_BOTH) and slr_value > thresholds.theta_slr:
        rejected = True
    if metric_mode in (METRIC_CR, METRIC_BOTH) and cr_value > thresholds.theta_cr:
        rejected = True
    return UNSATISFACTORY if rejected else SATISFACTORY


class PairScore(NamedTuple):
    """One scored pair: pair_id, then the score TSV's columns in the TSV's order."""

    pair_id: str
    len_a: int
    len_e: int
    bits_a: float
    bits_e: float
    slr: float
    cr: float
    verdict: str

    TSV_HEADER = "id\tlen_a\tlen_e\tbits_a\tbits_e\tslr\tcr\tverdict"

    def tsv_row(self) -> str:
        return (
            f"{self.pair_id}\t{self.len_a}\t{self.len_e}"
            f"\t{self.bits_a:.4f}\t{self.bits_e:.4f}"
            f"\t{self.slr:.4f}\t{self.cr:.4f}\t{self.verdict}"
        )


def prepare_sides(
    pair: "SentencePair", known: tuple[dict, dict] | None = None,
) -> tuple[PreparedText, PreparedText]:
    """Both sides of a pair prepared by SIDE_TRANSFORMS, (arabic, english).

    An empty side, then a side of more than MAX_SIDE_BYTES prepared bytes,
    raises InvalidPairError, the Arabic side checked first. `known`, one dict
    per language from a text to its PreparedText, lets a caller prepare each
    distinct text once.
    """
    if not pair.text_a:
        raise InvalidPairError(pair.id, "empty arabic side")
    if not pair.text_e:
        raise InvalidPairError(pair.id, "empty english side")
    seen_a, seen_e = known or ({}, {})
    prep_a = seen_a.get(pair.text_a) or seen_a.setdefault(
        pair.text_a, prepare(pair.text_a, SIDE_TRANSFORMS["arabic"]))
    prep_e = seen_e.get(pair.text_e) or seen_e.setdefault(
        pair.text_e, prepare(pair.text_e, SIDE_TRANSFORMS["english"]))
    if len(prep_a.data) > MAX_SIDE_BYTES:
        raise InvalidPairError(pair.id, f"arabic side longer than {MAX_SIDE_BYTES} bytes")
    if len(prep_e.data) > MAX_SIDE_BYTES:
        raise InvalidPairError(pair.id, f"english side longer than {MAX_SIDE_BYTES} bytes")
    return prep_a, prep_e


def side_bits(model: PpmModel, data: bytes,
              cuts: tuple[int, ...] | None = None) -> float | list[float]:
    """Code length of one prepared side: ideal_bits over a private adaptive
    overlay, so the shared snapshot is never mutated and the result depends
    only on `data` and `model`. With `cuts`, that of each of those prefixes."""
    return ideal_bits(model, data, True, cuts)


def pair_score(len_a: int, len_e: int, bits_a: float, bits_e: float,
               thresholds: ThresholdConfig) -> tuple:
    """Every PairScore field after pair_id, in order, of a pair whose sides have
    these lengths and code lengths: a caller builds PairScore(its id, *fields)."""
    slr_value, cr_value = slr(len_a, len_e), cr(bits_a, bits_e)
    return (len_a, len_e, bits_a, bits_e, slr_value, cr_value,
            verdict(slr_value, cr_value, thresholds))


def score_pair(
    pair: "SentencePair",
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
) -> PairScore:
    """Score one sentence pair against frozen per-language models."""
    prep_a, prep_e = prepare_sides(pair)
    return PairScore(pair.id, *pair_score(
        prep_a.char_length, prep_e.char_length,
        side_bits(model_a, prep_a.data), side_bits(model_e, prep_e.data),
        thresholds or ThresholdConfig(),
    ))
