"""Corpus ingestion, ground-truth evaluation, distribution statistics, filtering."""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .metrics import (
    METRIC_BOTH,
    SATISFACTORY,
    UNSATISFACTORY,
    InvalidPairError,
    PairScore,
    ThresholdConfig,
    score_pair,
    verdict,
)
from .ppm import PpmModel
from .preprocess import ARABIC_NUMERIC

LABELS = (SATISFACTORY, UNSATISFACTORY)
UNCATEGORIZED = "uncategorized"


class CorpusFormatError(ValueError):
    """Malformed corpus input; the message carries file and line context."""


@dataclass(frozen=True)
class SentencePair:
    """One aligned sentence pair with optional ground-truth label and category."""

    id: str
    text_a: str
    text_e: str
    label: str | None = None
    category: str | None = None


@dataclass(frozen=True)
class ScoredPair:
    """A pair with its score, or with the reason it could not be scored."""

    pair: SentencePair
    score: PairScore | None
    error: str | None = None


def load_corpus(path, fmt: str = "tsv", english_path=None) -> list[SentencePair]:
    """Load sentence pairs from a TSV file or a line-aligned file pair."""
    if fmt == "tsv":
        return load_tsv(path)
    if fmt == "aligned":
        if english_path is None:
            raise ValueError("aligned format needs both an arabic and an english path")
        return load_aligned(path, english_path)
    raise ValueError(f"unknown corpus format {fmt!r}")


def read_lines(path) -> Iterator[str]:
    r"""Lines of any UTF-8 text input, corpus or priming file: split on "\n" only, each
    without one trailing "\r\n" or "\n". A lone "\r", U+2028 or "\x85" stays in its line."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for line in fh:
            yield line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


def load_tsv(path) -> list[SentencePair]:
    r"""TSV columns: id, arabic, english, then optional label and category. No
    field may end in "\r"."""
    pairs: list[SentencePair] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        cols = line.split("\t")
        if not 3 <= len(cols) <= 5:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 3 to 5 tab-separated columns, got {len(cols)}"
            )
        if "\r\t" in line or line.endswith("\r"):  # lost if last in an output row
            raise CorpusFormatError(f"{path}:{lineno}: a field ends in a carriage return")
        pair_id = cols[0]
        if pair_id in seen_ids:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate pair id {pair_id!r}")
        seen_ids.add(pair_id)
        label = cols[3] if len(cols) > 3 and cols[3] else None
        if label is not None and label not in LABELS:
            raise CorpusFormatError(
                f"{path}:{lineno}: invalid label {label!r} (expected one of {LABELS})"
            )
        category = cols[4] if len(cols) > 4 and cols[4] else None
        pairs.append(SentencePair(pair_id, cols[1], cols[2], label, category))
    if not pairs:
        warnings.warn(f"{path}: empty corpus")
    return pairs


def load_aligned(path_a, path_e) -> list[SentencePair]:
    r"""Zip two line-aligned files; ids are 1-based line numbers. A line may hold
    no tab and may not end in "\r": it must fit in one field of a TSV output row."""
    lines_a = list(read_lines(path_a))
    lines_e = list(read_lines(path_e))
    if len(lines_a) != len(lines_e):
        raise CorpusFormatError(
            f"aligned files differ in length: {path_a} has {len(lines_a)} lines, "
            f"{path_e} has {len(lines_e)}"
        )
    pairs = []
    for i, (a, e) in enumerate(zip(lines_a, lines_e), 1):
        for path, line in ((path_a, a), (path_e, e)):
            if "\t" in line or line.endswith("\r"):
                raise CorpusFormatError(f"{path}:{i}: tab or trailing carriage return in line")
        pairs.append(SentencePair(str(i), a, e))
    if not pairs:
        warnings.warn(f"{path_a}: empty corpus")
    return pairs


# -- scoring ------------------------------------------------------------------

def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports it."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def pool_size(jobs: int, n_pairs: int, cores: int) -> int:
    """Worker processes for `jobs` requested over `n_pairs` pairs: at most one per
    usable core and one per pair, and 1 (no pool) for an empty corpus."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cores, n_pairs))


def _score_one(pair, model_a, model_e, thresholds, arabic_transform):
    try:
        return score_pair(pair, model_a, model_e, thresholds, arabic_transform), None
    except InvalidPairError as exc:
        return None, exc.reason


_WORKER_ARGS: tuple = ()


def _init_worker(snap_a, snap_e, thresholds, arabic_transform):
    """Keep the scoring arguments for this worker process.

    The snapshots arrive as the parent's frozen objects: under ``fork`` the
    worker inherits them with no copy, under ``spawn``/``forkserver`` they are
    pickled once per worker. Either way nothing is rebuilt here.
    """
    global _WORKER_ARGS
    _WORKER_ARGS = (snap_a, snap_e, thresholds, arabic_transform)


def _score_in_worker(pair: SentencePair) -> tuple[PairScore | None, str | None]:
    """Score one pair in a worker; only (score, error) travels back, not the pair."""
    return _score_one(pair, *_WORKER_ARGS)


def score_pairs(
    pairs: Sequence[SentencePair],
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
    jobs: int = 1,
    arabic_transform: str = ARABIC_NUMERIC,
) -> list[ScoredPair]:
    """Score every pair, preserving input order; invalid pairs carry their reason.

    With jobs > 1 the pairs fan out over worker processes, no more than
    pool_size() allows. Each worker gets the frozen snapshots themselves:
    inherited under ``fork``, pickled once per worker under ``spawn`` and
    ``forkserver``. Both paths give (score, None) per pair, or (None, reason)
    for a pair that cannot be scored, and the ScoredPairs are built here
    around the caller's own pairs, so the results are identical.
    """
    if thresholds is None:
        thresholds = ThresholdConfig()
    workers = pool_size(jobs, len(pairs), usable_cores())
    args = (model_a.snapshot(), model_e.snapshot(), thresholds, arabic_transform)
    if workers > 1:
        with multiprocessing.Pool(workers, initializer=_init_worker, initargs=args) as pool:
            replies = pool.map(_score_in_worker, pairs, chunksize=64)
    else:
        replies = [_score_one(pair, *args) for pair in pairs]
    return [ScoredPair(pair, score, error) for pair, (score, error) in zip(pairs, replies)]


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Per-class accuracies against ground truth, in percent.

    evaluate() fills these with exact rationals so derived numbers (the
    average, report formatting) carry no binary rounding error.
    """

    sat_accuracy: Fraction | float
    unsat_accuracy: Fraction | float

    @property
    def average(self) -> Fraction | float:
        return (self.sat_accuracy + self.unsat_accuracy) / 2


def evaluate(
    pairs: Sequence[SentencePair],
    scores: Sequence[PairScore],
    thresholds: ThresholdConfig,
    metric_mode: str = METRIC_BOTH,
) -> EvalReport:
    """Compare threshold verdicts against ground-truth labels.

    `scores` must align with `pairs`. Single-metric modes apply only that
    metric's threshold; accuracies are per-class percentages and the average
    is their unweighted mean.
    """
    if len(pairs) != len(scores):
        raise ValueError(f"{len(pairs)} pairs but {len(scores)} scores")
    sat_total = sat_right = unsat_total = unsat_right = 0
    for pair, score in zip(pairs, scores):
        if pair.label is None:
            raise ValueError(f"pair {pair.id!r} is unlabeled")
        judged = verdict(score.slr, score.cr, thresholds, metric_mode)
        if pair.label == SATISFACTORY:
            sat_total += 1
            sat_right += judged == SATISFACTORY
        else:
            unsat_total += 1
            unsat_right += judged == UNSATISFACTORY
    if sat_total == 0 or unsat_total == 0:
        raise ValueError("evaluation needs at least one pair of each label")
    return EvalReport(
        Fraction(100 * sat_right, sat_total), Fraction(100 * unsat_right, unsat_total)
    )


def threshold_matrix(
    pairs: Sequence[SentencePair],
    scores: Sequence[PairScore],
    slr_grid: Sequence[float],
    cr_grid: Sequence[float],
) -> list[list[Fraction]]:
    """Average accuracy of the hybrid rule over a threshold grid.

    Cell [i][j] evaluates theta_cr = cr_grid[i] (down) with
    theta_slr = slr_grid[j] (across). Scores are computed once by the caller
    and reused for every cell.
    """
    for name, grid in (("slr_grid", slr_grid), ("cr_grid", cr_grid)):
        if not grid:
            raise ValueError(f"{name} is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"{name} must be strictly increasing")
    return [
        [
            evaluate(pairs, scores, ThresholdConfig(theta_slr, theta_cr), METRIC_BOTH).average
            for theta_slr in slr_grid
        ]
        for theta_cr in cr_grid
    ]


def greater_stats(scores: Sequence[PairScore]) -> tuple[float, float]:
    """Percentage of pairs whose Arabic side is longer / costs more bits.

    Ties count as not-greater.
    """
    if not scores:
        raise ValueError("greater_stats needs a non-empty corpus")
    n = len(scores)
    len_greater = sum(1 for s in scores if s.len_a > s.len_e)
    bits_greater = sum(1 for s in scores if s.bits_a > s.bits_e)
    return 100.0 * len_greater / n, 100.0 * bits_greater / n


# -- filtering ----------------------------------------------------------------


@dataclass
class FilterReport:
    """Counts and percentages of a filtering run, with per-category breakdown."""

    accepted_count: int = 0
    rejected_count: int = 0
    invalid_count: int = 0
    accepted_pct: float = 0.0  # over valid pairs
    rejected_pct: float = 0.0
    per_category: dict[str, dict[str, int]] = field(default_factory=dict)
    invalid: list[tuple[str, str]] = field(default_factory=list)  # (pair id, reason)


def filter_corpus(
    pairs: Sequence[SentencePair],
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
    jobs: int = 1,
    arabic_transform: str = ARABIC_NUMERIC,
) -> tuple[list[ScoredPair], list[ScoredPair], FilterReport]:
    """Partition a corpus by the hybrid verdict.

    Returns (accepted, rejected, report); pairs that cannot be scored are
    listed in the report and excluded from the percentages. Original order is
    preserved within each output.
    """
    scored = score_pairs(pairs, model_a, model_e, thresholds, jobs, arabic_transform)
    accepted: list[ScoredPair] = []
    rejected: list[ScoredPair] = []
    report = FilterReport()
    for item in scored:
        category = item.pair.category or UNCATEGORIZED
        bucket = report.per_category.setdefault(
            category, {"accepted": 0, "rejected": 0, "invalid": 0}
        )
        if item.score is None:
            report.invalid.append((item.pair.id, item.error or "unscorable"))
            bucket["invalid"] += 1
        elif item.score.verdict == SATISFACTORY:
            accepted.append(item)
            bucket["accepted"] += 1
        else:
            rejected.append(item)
            bucket["rejected"] += 1
    report.accepted_count, report.rejected_count = len(accepted), len(rejected)
    report.invalid_count = len(report.invalid)
    valid = report.accepted_count + report.rejected_count
    if valid:
        report.accepted_pct = 100.0 * report.accepted_count / valid
        report.rejected_pct = 100.0 * report.rejected_count / valid
    return accepted, rejected, report
