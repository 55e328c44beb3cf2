"""Corpus ingestion, ground-truth evaluation, distribution statistics, filtering."""

from __future__ import annotations

import os
import warnings
from functools import partial
from itertools import chain, islice
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


# the most bytes a corpus line may hold before its "\n": reading one costs at most this much
MAX_LINE_BYTES = 1 << 20


def read_lines(path, limit: int | None = None) -> Iterator[str]:
    r"""Lines of any UTF-8 text input, corpus or priming file: split on "\n" only, each
    without one trailing "\r\n" or "\n". A lone "\r", U+2028 or "\x85" stays in its line.
    A byte-order mark opening the file is dropped; a U+FEFF anywhere else is text.
    Invalid UTF-8, or with `limit` a line of more than `limit` bytes before its
    "\n", raises CorpusFormatError naming the path and line; no more than
    limit + 1 bytes of a line are read."""
    with open(path, "rb") as fh:
        raws = fh if limit is None else iter(partial(fh.readline, limit + 1), b"")
        for lineno, raw in enumerate(raws, 1):
            if limit is not None and len(raw) > limit and not raw.endswith(b"\n"):
                raise CorpusFormatError(f"{path}:{lineno}: line longer than {limit} bytes")
            try:
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            yield line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")


def load_tsv(path) -> list[SentencePair]:
    r"""TSV columns: id, arabic, english, then optional label and category. No
    field may end in "\r", and no line may exceed MAX_LINE_BYTES."""
    pairs: list[SentencePair] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_lines(path, MAX_LINE_BYTES), 1):
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
    no tab and may not end in "\r": it must fit in one field of a TSV output row.
    No line may exceed MAX_LINE_BYTES."""
    lines_a = list(read_lines(path_a, MAX_LINE_BYTES))
    lines_e = list(read_lines(path_e, MAX_LINE_BYTES))
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


def pool_size(jobs: int, n_walks: int, cores: int) -> int:
    """Scoring processes for `jobs` requested over `n_walks` walks to score: at
    most one per usable core and one per walk, and 1 (no child) when there is
    nothing to score."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cores, n_walks))


def _walks(order: list[tuple[int, bytes]]) -> list[tuple[int, bytes, tuple[int, ...]]]:
    """Sorted distinct (side, prepared bytes) tasks as walks (side, bytes, cuts):
    a task that is a prefix of the next task of its side joins that task's walk
    as the cut of its length, so the cuts, walk by walk, list every task in order."""
    walks, cuts = [], []
    for (side, data), (next_side, next_data) in zip(order, [*order[1:], (-1, b"")]):
        cuts.append(len(data))
        if side != next_side or not next_data.startswith(data):
            walks.append((side, data, tuple(cuts)))
            cuts = []
    return walks


def _score_forked(snapshots, walks: list[tuple], workers: int) -> list[list[float]]:
    """Per walk (side, bytes, cuts), side 0 Arabic, 1 English, the code length of
    the bytes' prefix at each cut, from one walk each, over this process and
    workers - 1 forked children.

    Child w scores walks[w::workers] with the snapshots it inherited and writes
    one float per cut to a pipe as raw doubles, which is float-exact; this
    process scores walks[0::workers] meanwhile. A share whose child replies
    short or exits non-zero is scored again here, so its error is raised here
    as itself. Every child is reaped and every pipe closed; when this process
    raises, the children are killed first instead of waited for.
    """
    import signal
    from array import array

    def share_bits(w: int) -> list[list[float]]:
        return [side_bits(snapshots[side], data, cuts) for side, data, cuts in walks[w::workers]]

    bits: list = [None] * len(walks)
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
                            pipe.write(array("d", chain.from_iterable(share_bits(w))))
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
        lengths = [len(cuts) for _, _, cuts in walks[w::workers]]
        if status or len(reply) != 8 * sum(lengths):
            bits[w::workers] = share_bits(w)
        else:
            floats = iter(array("d", reply))
            bits[w::workers] = [list(islice(floats, n)) for n in lengths]
    return bits


def score_pairs(
    pairs: Sequence[SentencePair],
    model_a: PpmModel,
    model_e: PpmModel,
    thresholds: ThresholdConfig | None = None,
    jobs: int = 1,
) -> list[ScoredPair]:
    """Score every pair, preserving input order; invalid pairs carry their reason.

    Each chain of prefix-related sides is walked once. A side's code length
    depends only on its prepared bytes and its language's frozen snapshot,
    since every sentence adapts a private overlay, and coding is causal, so a
    side that begins a longer one takes its float from that one's walk (see
    _walks), and each result equals score_pair() on that pair.

    Each distinct (arabic, english) text pair is checked (empty sides first,
    Arabic first) and prepared once, each distinct text once per language:
    both transforms are injective, so equal texts give equal bytes. The walks
    are split over pool_size() processes by _score_forked, one where os.fork
    does not exist. One dict keyed by text pair holds its prepared sides or
    its invalid reason, then its score fields, built into a PairScore around
    each of the caller's own pairs.
    """
    thresholds = thresholds or ThresholdConfig()
    distinct: dict = {}  # (text_a, text_e) -> prepared sides or invalid reason, then score fields
    known: tuple[dict, dict] = ({}, {})  # per language: text -> PreparedText
    for pair in pairs:
        key = (pair.text_a, pair.text_e)
        if key not in distinct:
            try:
                distinct[key] = prepare_sides(pair, known)
            except InvalidPairError as exc:
                distinct[key] = exc.reason
    del known  # this call peaks while it builds the results: free what is done
    order = sorted({(side, prep.data) for step in distinct.values() if step.__class__ is not str
                    for side, prep in enumerate(step)})
    walks = _walks(order)
    workers = pool_size(jobs, len(walks), usable_cores() if hasattr(os, "fork") else 1)
    per_walk = _score_forked((model_a.snapshot(), model_e.snapshot()), walks, workers)
    bits = dict(zip(order, chain.from_iterable(per_walk)))
    for key, step in distinct.items():  # overwrites values only, so the dict keeps its size
        if step.__class__ is not str:
            prep_a, prep_e = step
            distinct[key] = pair_score(prep_a.char_length, prep_e.char_length,
                                       bits[0, prep_a.data], bits[1, prep_e.data], thresholds)
    del order, walks, per_walk, bits
    results = []
    for pair in pairs:
        fields = distinct[pair.text_a, pair.text_e]
        results.append(ScoredPair(pair, None, fields) if fields.__class__ is str
                       else ScoredPair(pair, PairScore(pair.id, *fields)))
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
            raise CorpusFormatError(f"pair {pair.id!r} is unlabeled")
        judged = verdict(score.slr, score.cr, thresholds, metric_mode)
        if pair.label == SATISFACTORY:
            sat_total += 1
            sat_right += judged == SATISFACTORY
        else:
            unsat_total += 1
            unsat_right += judged == UNSATISFACTORY
    if sat_total == 0 or unsat_total == 0:
        raise CorpusFormatError("evaluation needs at least one pair of each label")
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
    theta_slr = slr_grid[j] (across), equal to what evaluate() reports there.
    A pair passes iff slr <= theta_slr and cr <= theta_cr, so bisect_left
    places it at the first row and column where it passes; each cell then
    counts the passing pairs of each label from 2-D prefix sums of those places.
    """
    from bisect import bisect_left
    from fractions import Fraction
    from functools import cache
    from itertools import accumulate
    for name, grid in (("slr_grid", slr_grid), ("cr_grid", cr_grid)):
        if not grid:
            raise ValueError(f"{name} is empty")
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"{name} must be strictly increasing")
    if len(pairs) != len(scores):
        raise ValueError(f"{len(pairs)} pairs but {len(scores)} scores")
    cols = len(slr_grid) + 1
    # sat/unsat[i][j]: the pairs of that label that first pass at row i, column j
    sat = [[0] * cols for _ in range(len(cr_grid) + 1)]
    unsat = [[0] * cols for _ in range(len(cr_grid) + 1)]
    for pair, score in zip(pairs, scores):
        if pair.label is None:
            raise CorpusFormatError(f"pair {pair.id!r} is unlabeled")
        table = sat if pair.label == SATISFACTORY else unsat
        table[bisect_left(cr_grid, score.cr)][bisect_left(slr_grid, score.slr)] += 1
    n_sat, n_unsat = sum(map(sum, sat)), sum(map(sum, unsat))
    if n_sat == 0 or n_unsat == 0:
        raise CorpusFormatError("evaluation needs at least one pair of each label")

    @cache  # few distinct (sat, unsat) counts, however fine the grid: one Fraction each
    def average(s: int, u: int) -> Fraction:
        return (Fraction(100 * s, n_sat) + Fraction(100 * (n_unsat - u), n_unsat)) / 2

    matrix, sat_pass, unsat_pass = [], [0] * cols, [0] * cols
    for sat_row, unsat_row in zip(sat[:-1], unsat[:-1]):  # 2-D prefix sums, a row at a time
        sat_pass = [a + b for a, b in zip(accumulate(sat_row), sat_pass)]
        unsat_pass = [a + b for a, b in zip(accumulate(unsat_row), unsat_pass)]
        matrix.append([average(s, u) for s, u in zip(sat_pass[:-1], unsat_pass[:-1])])
    return matrix


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
) -> tuple[list[ScoredPair], list[ScoredPair], list[ScoredPair]]:
    """Partition a corpus by the hybrid verdict into (accepted, rejected, invalid).

    Each list keeps input order; an invalid pair, one that cannot be scored,
    carries its reason in `.error`.
    """
    scored = score_pairs(pairs, model_a, model_e, thresholds, jobs)
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
