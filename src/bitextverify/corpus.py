"""Corpus ingestion, ground-truth evaluation, distribution statistics, filtering."""

from __future__ import annotations

import os
import signal
import warnings
from array import array
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .metrics import (
    METRIC_BOTH,
    SATISFACTORY,
    UNSATISFACTORY,
    InvalidPairError,
    PairScore,
    ThresholdConfig,
    pair_score,
    prepare_sides,
    score_pair,  # looked up here by bench/spans.py
    side_bits,
    verdict,
)
from .ppm import PpmModel
from .preprocess import ARABIC_NUMERIC

if TYPE_CHECKING:
    from fractions import Fraction

LABELS = (SATISFACTORY, UNSATISFACTORY)
UNCATEGORIZED = "uncategorized"


class CorpusFormatError(ValueError):
    """Malformed corpus input; the message carries file and line context."""


class SentencePair(NamedTuple):
    """One aligned sentence pair with optional ground-truth label and category."""

    id: str
    text_a: str
    text_e: str
    label: str | None = None
    category: str | None = None


class ScoredPair(NamedTuple):
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


def pool_size(jobs: int, n_tasks: int, cores: int) -> int:
    """Scoring processes for `jobs` requested over `n_tasks` distinct sides to
    score: at most one per usable core and one per task, and 1 (no child) when
    there is nothing to score."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cores, n_tasks))


def _score_forked(snapshots, tasks: list[tuple[int, bytes]], workers: int) -> list[float]:
    """Code length of each (side, prepared bytes) task, side 0 Arabic, 1 English,
    over this process and workers - 1 forked children.

    Child w scores tasks[w::workers] with the snapshots it inherited and writes
    the floats to a pipe as raw doubles, which is float-exact; this process
    scores tasks[0::workers] meanwhile. A share whose child replies short or
    exits non-zero is scored again here, so its error is raised here as itself.
    Every child is reaped and every pipe closed; when this process raises, the
    children are killed first instead of waited for.
    """

    def share_bits(w: int) -> list[float]:
        return [side_bits(snapshots[side], data) for side, data in tasks[w::workers]]

    bits = [0.0] * len(tasks)
    pipes, pids = [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                if (pid := os.fork()) == 0:  # the child never returns into the caller
                    try:
                        for pipe in pipes:  # else a write to a closed reader blocks, not fails
                            pipe.close()
                        with open(write, "wb", closefd=False) as pipe:
                            pipe.write(array("d", share_bits(w)))
                        os._exit(0)
                    finally:
                        os._exit(1)
            finally:
                os.close(write)
            pids.append(pid)
        bits[0::workers] = share_bits(0)
        replies = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:  # their floats would be thrown away: stop them now
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for w, reply, status in zip(range(1, workers), replies, statuses):
        if status or len(reply) != 8 * len(bits[w::workers]):
            reply = share_bits(w)
        bits[w::workers] = array("d", reply)
    return bits


def score_pairs(
    pairs: Sequence[SentencePair],
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
    jobs: int = 1,
    arabic_transform: str = ARABIC_NUMERIC,
) -> list[ScoredPair]:
    """Score every pair, preserving input order; invalid pairs carry their reason.

    Each distinct side is scored once. A side's code length depends only on
    its prepared bytes and its language's frozen snapshot, since every
    sentence adapts a private overlay, so a repeated side reuses its float and
    each result equals score_pair() on that pair.

    Every pair is first checked for an empty side (Arabic first) and both
    sides are prepared; the distinct (side, bytes) tasks are kept in
    first-seen order, for this call only and at most two per pair, and split
    over pool_size() processes by _score_forked, one where os.fork does not
    exist. The PairScores are built here around the caller's own pairs, so
    every path gives identical results.
    """
    if thresholds is None:
        thresholds = ThresholdConfig()
    tasks: dict[tuple[int, bytes], int] = {}  # (side, prepared bytes) -> task index
    plan: list[tuple | str] = []  # per pair: (len_a, len_e, task_a, task_e) or the reason
    for pair in pairs:
        try:
            prep_a, prep_e = prepare_sides(pair, arabic_transform)
        except InvalidPairError as exc:
            plan.append(exc.reason)
            continue
        task_a = tasks.setdefault((0, prep_a.data), len(tasks))
        task_e = tasks.setdefault((1, prep_e.data), len(tasks))
        plan.append((prep_a.char_length, prep_e.char_length, task_a, task_e))
    workers = pool_size(jobs, len(tasks), usable_cores() if hasattr(os, "fork") else 1)
    bits = _score_forked((model_a.snapshot(), model_e.snapshot()), list(tasks), workers)
    results = []
    for pair, step in zip(pairs, plan):
        if isinstance(step, str):
            results.append(ScoredPair(pair, None, step))
        else:
            len_a, len_e, task_a, task_e = step
            score = pair_score(pair.id, len_a, len_e, bits[task_a], bits[task_e], thresholds)
            results.append(ScoredPair(pair, score))
    return results


# -- evaluation ---------------------------------------------------------------


class EvalReport(NamedTuple):
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
    from fractions import Fraction
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


def filter_corpus(
    pairs: Sequence[SentencePair],
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
    jobs: int = 1,
    arabic_transform: str = ARABIC_NUMERIC,
) -> tuple[list[ScoredPair], list[ScoredPair], list[ScoredPair]]:
    """Partition a corpus by the hybrid verdict into (accepted, rejected, invalid).

    Each list keeps input order; an invalid pair, one that cannot be scored,
    carries its reason in `.error`.
    """
    scored = score_pairs(pairs, model_a, model_e, thresholds, jobs, arabic_transform)
    accepted: list[ScoredPair] = []
    rejected: list[ScoredPair] = []
    invalid: list[ScoredPair] = []
    for item in scored:
        if item.score is None:
            invalid.append(item)
        elif item.score.verdict == SATISFACTORY:
            accepted.append(item)
        else:
            rejected.append(item)
    return accepted, rejected, invalid
