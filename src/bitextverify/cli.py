"""Command-line surface: train models, score pairs, evaluate, sweep, filter, stats.

Exit codes: 0 success, 2 configuration error, 3 input-format error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .corpus import (
    CorpusFormatError,
    UNCATEGORIZED,
    evaluate,
    filter_corpus,
    greater_stats,
    load_corpus,
    read_lines,
    score_pairs,
    threshold_matrix,
)
from .metrics import METRIC_MODES, SIDE_TRANSFORMS, PairScore, ThresholdConfig
from .ppm import DEFAULT_MAX_ORDER, PpmModel
from .preprocess import IDENTITY, TRANSFORM_IDS, apply_transform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_IO = 4

DEFAULT_GRID = "1.25:3.50:0.25"
# sweep prints len(grid)**2 threshold cells, all counted in one pass over the corpus
MAX_GRID = 1000


def fmt_pct(value) -> str:
    """Half-up rounding of an exact decimal value to two places, so 60.145 prints as 60.15.

    A float counts as the decimal its repr() shows. An exact rational (as
    reported by evaluate) is rounded without passing through binary floating
    point. Integer arithmetic throughout, so printing imports neither decimal
    nor fractions.
    """
    if isinstance(value, float):
        digits, _, exp = repr(value).partition("e")
        whole, _, frac = digits.partition(".")
        shift = int(exp or 0) - len(frac)  # value == int(whole + frac) * 10**shift
        num, den = int(whole + frac) * 10 ** max(shift, 0), 10 ** max(-shift, 0)
    else:
        num, den = value.numerator, value.denominator
    text = str((200 * abs(num) + den) // (2 * den)).rjust(3, "0")
    return ("-" if num < 0 else "") + f"{text[:-2]}.{text[-2:]}"


def parse_grid(spec: str) -> list[float]:
    """Grid spec: either comma-separated values or start:stop:step (inclusive) with
    finite parts, giving 1 to MAX_GRID strictly increasing, finite, positive values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ValueError(f"bad grid range {spec!r}")
        count = int(min((stop - start) / step + 1e-9, MAX_GRID)) + 1  # MAX_GRID + 1 at most
        grid = [round(start + i * step, 10) for i in range(count)]
    else:
        grid = [float(p) if p else math.nan for p in spec.split(",")]  # an empty item fails
    if (not 0 < len(grid) <= MAX_GRID or not all(map(math.isfinite, grid))
            or any(b <= a for a, b in zip([0, *grid], grid))):  # the first must exceed 0 too
        raise ValueError(f"grid must be 1 to {MAX_GRID} strictly increasing values, finite and "
                         f"above 0, got {spec!r}")
    return grid


# the bundled files sit next to this module: the package installs as a directory
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _load_models(args) -> tuple[tuple[PpmModel, str], tuple[PpmModel, str]]:
    """(snapshot, id) per side: the model file if one is given, else the shipped
    dump data/<language>.ppm. Scoring never primes; only `train` does."""

    def side(path, language: str) -> tuple[PpmModel, str]:
        model = PpmModel.load(os.path.join(DATA_DIR, f"{language}.ppm") if path is None else path)
        return model.snapshot(), f"bundled:{language}" if path is None else str(path)

    return side(args.model_a, "arabic"), side(args.model_e, "english")


def _load_inputs(args):
    """(models, pairs) as _load_models and load_corpus give them. Errors win in this
    order: the options, before anything is read, then the models, then the corpus."""
    if args.jobs < 1:  # pool_size checks again for library callers
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.format == "aligned":
        if args.pairs is not None:
            raise ValueError("--pairs is read only with --format tsv")
        if None in (args.arabic, args.english):
            raise ValueError("aligned format needs --arabic and --english")
        return _load_models(args), load_corpus(args.arabic, "aligned", english_path=args.english)
    for option, value in (("--arabic", args.arabic), ("--english", args.english)):
        if value is not None:
            raise ValueError(f"{option} is read only with --format aligned")
    if args.pairs is None:
        raise ValueError("tsv format needs --pairs")
    return _load_models(args), load_corpus(args.pairs, "tsv")


def _score_corpus(args, thresholds: ThresholdConfig):
    """Load the models, then the corpus, named by `args`; return the scored pairs,
    each carrying its input pair."""
    ((model_a, _), (model_e, _)), pairs = _load_inputs(args)
    return score_pairs(pairs, model_a, model_e, thresholds, args.jobs)


def _labeled_scores(scored) -> tuple[list, list[PairScore]]:
    """(pairs, scores) of a labeled corpus, which must have no unscorable pair."""
    invalid = sum(s.score is None for s in scored)
    if invalid:
        raise CorpusFormatError(f"labeled corpus has {invalid} unscorable pairs")
    return [s.pair for s in scored], [s.score for s in scored]


def _open_output(path):
    """`path` opened for text output, created or truncated like a shell redirect. None
    gives a context yielding None, which print() takes as stdout."""
    return (contextlib.nullcontext() if path is None
            else open(path, "w", encoding="utf-8", newline="\n"))


def _pair_row(pair) -> str:
    cols = [pair.id, pair.text_a, pair.text_e]
    if pair.label or pair.category:
        cols.append(pair.label or "")
    if pair.category:
        cols.append(pair.category)
    return "\t".join(cols)


# -- commands -------------------------------------------------------------------


def cmd_train(args) -> int:
    """Train each line of --input as one text, history reset per line."""
    model = PpmModel(args.order)
    n_texts = model.train_many(apply_transform(line, args.transform)
                               for line in read_lines(args.input))
    model.save(args.out)
    total = model.stats(()).total  # the empty context counts every symbol once
    print(f"trained {n_texts} texts, {total} symbols; wrote {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    """Score the corpus to a per-pair TSV on --out, else stdout, and list each
    unscorable pair on stderr as an `id<TAB>reason` row. --out is opened (created or
    truncated, like a shell redirect) once the corpus is read, before any pair is
    scored, so it may name the input file."""
    thresholds = ThresholdConfig(args.theta_slr, args.theta_cr)
    ((model_a, _), (model_e, _)), pairs = _load_inputs(args)
    with _open_output(args.out) as out:
        scored = score_pairs(pairs, model_a, model_e, thresholds, args.jobs)
        print(PairScore.TSV_HEADER, file=out)
        for s in scored:
            if s.score:
                print(s.score.tsv_row(), file=out)
            else:
                print(f"{s.pair.id}\t{s.error}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    thresholds = ThresholdConfig(args.theta_slr, args.theta_cr)
    pairs, scores = _labeled_scores(_score_corpus(args, thresholds))
    report = evaluate(pairs, scores, thresholds, args.metric)
    print(f"satisfactory accuracy: {fmt_pct(report.sat_accuracy)}")
    print(f"unsatisfactory accuracy: {fmt_pct(report.unsat_accuracy)}")
    print(f"average accuracy: {fmt_pct(report.average)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    pairs, scores = _labeled_scores(_score_corpus(args, ThresholdConfig()))
    matrix = threshold_matrix(pairs, scores, grid, grid)
    # Layout: SLR thresholds across the top, CR thresholds down the side.
    print("CR\\SLR\t" + "\t".join(f"{v:g}" for v in grid))
    for theta_cr, row in zip(grid, matrix):
        print(f"{theta_cr:g}\t" + "\t".join(fmt_pct(cell) for cell in row))
    return EXIT_OK


def cmd_filter(args) -> int:
    """Partition the corpus into --out-dir, made after the corpus is read, before any scoring."""
    import json
    thresholds = ThresholdConfig(args.theta_slr, args.theta_cr)
    ((model_a, id_a), (model_e, id_e)), pairs = _load_inputs(args)
    os.makedirs(args.out_dir, exist_ok=True)
    parts = filter_corpus(pairs, model_a, model_e, thresholds, args.jobs)
    names = ("accepted", "rejected", "invalid")
    counts, per_category = {}, {}
    for name, part in zip(names, parts):
        counts[name] = len(part)
        with _open_output(os.path.join(args.out_dir, f"{name}.tsv")) as out:
            for item in part:
                category = item.pair.category or UNCATEGORIZED
                per_category.setdefault(category, dict.fromkeys(names, 0))[name] += 1
                print(_pair_row(item.pair) + (f"\t{item.error}" if item.error else ""), file=out)
    valid = counts["accepted"] + counts["rejected"]
    percentages = {name: 100.0 * counts[name] / valid if valid else 0.0 for name in names[:2]}
    report = {
        "thresholds": {"slr": thresholds.theta_slr, "cr": thresholds.theta_cr},
        "counts": {**counts, "total": len(pairs)},
        "percentages": percentages,
        "per_category": per_category,
        "invalid": [[item.pair.id, item.error] for item in parts[2]],
        "models": {
            "arabic": {"id": id_a, "hash": model_a.config_hash().hex()},
            "english": {"id": id_e, "hash": model_e.config_hash().hex()},
        },
        "transform": SIDE_TRANSFORMS,
    }
    with _open_output(os.path.join(args.out_dir, "report.json")) as out:
        print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False), file=out)
    print(
        f"accepted {counts['accepted']} ({fmt_pct(percentages['accepted'])}%), "
        f"rejected {counts['rejected']} ({fmt_pct(percentages['rejected'])}%), "
        f"invalid {counts['invalid']}; outputs in {args.out_dir}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    valid = [s for s in _score_corpus(args, ThresholdConfig()) if s.score]
    if not valid:
        raise CorpusFormatError("no scorable pairs")
    by_category: dict[str, list] = {}
    for s in valid:
        if s.pair.category == "overall":
            raise CorpusFormatError(f"pair {s.pair.id!r}: category 'overall' names the total row")
        by_category.setdefault(s.pair.category or UNCATEGORIZED, []).append(s.score)
    print("category\tpairs\tlen_a_greater_pct\tbits_a_greater_pct")
    for category, scores in [*sorted(by_category.items()), ("overall", [s.score for s in valid])]:
        len_pct, bits_pct = greater_stats(scores)
        print(f"{category}\t{len(scores)}\t{fmt_pct(len_pct)}\t{fmt_pct(bits_pct)}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitextverify",
        description="Score, evaluate and filter parallel Arabic-English corpora "
        "with sentence-length and compression code-length ratio metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="prime a model on a text file (one text per line)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--transform", choices=TRANSFORM_IDS, default=IDENTITY)
    p.set_defaults(func=cmd_train)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pairs", help="TSV corpus: id, arabic, english[, label[, category]]")
    shared.add_argument("--format", choices=("tsv", "aligned"), default="tsv")
    shared.add_argument("--arabic", help="Arabic side of a line-aligned pair of files")
    shared.add_argument("--english", help="English side of a line-aligned pair of files")
    shared.add_argument("--model-a", help="Arabic-side model file (default: bundled desk corpus)")
    shared.add_argument("--model-e", help="English-side model file (default: bundled desk corpus)")
    shared.add_argument("--jobs", type=int, default=1,
                        help="parallel scoring processes (results are order-stable)")
    thresholds, defaults = argparse.ArgumentParser(add_help=False), ThresholdConfig()
    thresholds.add_argument("--theta-slr", type=float, default=defaults.theta_slr)
    thresholds.add_argument("--theta-cr", type=float, default=defaults.theta_cr)

    p = sub.add_parser("score", parents=[shared, thresholds], help="score pairs to a per-pair TSV")
    p.add_argument("--out", help="output TSV (default: stdout)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", parents=[shared, thresholds],
                       help="accuracy against a labeled corpus")
    p.add_argument("--metric", choices=METRIC_MODES, default="both")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[shared], help="threshold grid of average accuracies")
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="start:stop:step or comma list (default 1.25:3.50:0.25)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("filter", parents=[shared, thresholds],
                       help="partition a corpus into accepted/rejected/invalid")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("stats", parents=[shared],
                       help="percentage of pairs with longer/costlier Arabic side")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CorpusFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except UnicodeEncodeError as exc:  # a ValueError, raised by writing an output
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
