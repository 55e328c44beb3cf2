"""Command-line surface: train models, score pairs, evaluate, sweep, filter, stats.

Exit codes: 0 success, 2 configuration error, 3 input-format error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
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
from .metrics import METRIC_MODES, PairScore, ThresholdConfig
from .ppm import DEFAULT_ALPHABET_SIZE, DEFAULT_MAX_ORDER, PpmModel
from .preprocess import ARABIC_NUMERIC, IDENTITY, TRANSFORM_IDS, apply_transform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_IO = 4

DEFAULT_GRID = "1.25:3.50:0.25"
# sweep evaluates len(grid)**2 threshold cells, each over the whole corpus
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
    finite parts, giving 1 to MAX_GRID strictly increasing values."""
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
        grid = [float(p) for p in spec.split(",") if p]
    if not grid or len(grid) > MAX_GRID or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be 1 to {MAX_GRID} strictly increasing values, got {spec!r}")
    return grid


# the bundled files sit next to this module: the package installs as a directory
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _load_models(args) -> tuple[tuple[PpmModel, str], tuple[PpmModel, str]]:
    """(snapshot, id) per side: the model file if one is given, else the shipped
    dump data/<language>.ppm. Scoring never primes; only `train` does."""
    if not args.model_a and args.transform != ARABIC_NUMERIC:
        raise ValueError(f"--transform {args.transform} needs --model-a: the bundled "
                         f"Arabic model is primed with --transform {ARABIC_NUMERIC}")

    def side(path, language: str) -> tuple[PpmModel, str]:
        model = PpmModel.load(path or os.path.join(DATA_DIR, f"{language}.ppm"))
        return model.snapshot(), str(path) if path else f"bundled:{language}"

    return side(args.model_a, "arabic"), side(args.model_e, "english")


def _load_pairs(args):
    if args.format == "aligned":
        if not (args.arabic and args.english):
            raise ValueError("aligned format needs --arabic and --english")
        return load_corpus(args.arabic, "aligned", english_path=args.english)
    if not args.pairs:
        raise ValueError("tsv format needs --pairs")
    return load_corpus(args.pairs, "tsv")


def _score_corpus(args, thresholds: ThresholdConfig):
    """Load the corpus and the models named by `args`; return (pairs, scored pairs)."""
    pairs = _load_pairs(args)
    (model_a, _), (model_e, _) = _load_models(args)
    return pairs, score_pairs(pairs, model_a, model_e, thresholds, args.jobs, args.transform)


def _labeled_scores(scored) -> list[PairScore]:
    """Scores of a labeled corpus, which must have no unscorable pair."""
    invalid = sum(s.score is None for s in scored)
    if invalid:
        raise CorpusFormatError(f"labeled corpus has {invalid} unscorable pairs")
    return [s.score for s in scored]


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


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
    model = PpmModel(args.order, args.alphabet)
    n_texts = n_symbols = 0
    for n_texts, line in enumerate(read_lines(args.input), 1):
        data = apply_transform(line, args.transform)
        try:
            model.train(data)
        except ValueError as exc:  # a byte outside --alphabet: the fault is in the input
            raise CorpusFormatError(f"{args.input}:{n_texts}: {exc}") from None
        n_symbols += len(data)
    model.save(args.out)
    print(
        f"trained {n_texts} texts, {n_symbols} symbols; "
        f"order-0 total {model.stats(()).total}; wrote {args.out}"
    )
    return EXIT_OK


def cmd_score(args) -> int:
    _, scored = _score_corpus(args, ThresholdConfig(args.theta_slr, args.theta_cr))
    scores = [s.score for s in scored if s.score]
    rows = [PairScore.TSV_HEADER] + [score.tsv_row() for score in scores]
    if args.out:
        _write_lines(args.out, rows)
    else:
        for row in rows:
            print(row)
    invalid = [f"{s.pair.id}\t{s.error}" for s in scored if s.score is None]
    if args.invalid_out:
        _write_lines(args.invalid_out, invalid)
    elif invalid:
        print(f"{len(invalid)} invalid pairs (use --invalid-out to capture):", file=sys.stderr)
        for line in invalid:
            print("  " + line, file=sys.stderr)
    if args.scatter:
        _write_lines(args.scatter, ["len_a\tlen_e\tbits_a\tbits_e\tverdict"] + [
            f"{s.len_a}\t{s.len_e}\t{s.bits_a:.4f}\t{s.bits_e:.4f}\t{s.verdict}" for s in scores
        ])
    return EXIT_OK


def cmd_evaluate(args) -> int:
    thresholds = ThresholdConfig(args.theta_slr, args.theta_cr)
    pairs, scored = _score_corpus(args, thresholds)
    report = evaluate(pairs, _labeled_scores(scored), thresholds, args.metric)
    print(f"satisfactory accuracy: {fmt_pct(report.sat_accuracy)}")
    print(f"unsatisfactory accuracy: {fmt_pct(report.unsat_accuracy)}")
    print(f"average accuracy: {fmt_pct(report.average)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    pairs, scored = _score_corpus(args, ThresholdConfig())
    matrix = threshold_matrix(pairs, _labeled_scores(scored), grid, grid)
    # Layout: SLR thresholds across the top, CR thresholds down the side.
    print("CR\\SLR\t" + "\t".join(f"{v:g}" for v in grid))
    for theta_cr, row in zip(grid, matrix):
        print(f"{theta_cr:g}\t" + "\t".join(fmt_pct(cell) for cell in row))
    return EXIT_OK


def cmd_filter(args) -> int:
    pairs = _load_pairs(args)
    (model_a, id_a), (model_e, id_e) = _load_models(args)
    thresholds = ThresholdConfig(args.theta_slr, args.theta_cr)
    parts = filter_corpus(pairs, model_a, model_e, thresholds, args.jobs, args.transform)
    os.makedirs(args.out_dir, exist_ok=True)
    names = ("accepted", "rejected", "invalid")
    counts, per_category = {}, {}
    for name, part in zip(names, parts):
        counts[name] = len(part)
        rows = []
        for item in part:
            category = item.pair.category or UNCATEGORIZED
            per_category.setdefault(category, dict.fromkeys(names, 0))[name] += 1
            rows.append(_pair_row(item.pair) + (f"\t{item.error}" if item.error else ""))
        _write_lines(os.path.join(args.out_dir, f"{name}.tsv"), rows)
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
        "transform": {"arabic": args.transform, "english": IDENTITY},
    }
    _write_lines(os.path.join(args.out_dir, "report.json"),
                 [json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)])
    print(
        f"accepted {counts['accepted']} ({fmt_pct(percentages['accepted'])}%), "
        f"rejected {counts['rejected']} ({fmt_pct(percentages['rejected'])}%), "
        f"invalid {counts['invalid']}; outputs in {args.out_dir}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    _, scored = _score_corpus(args, ThresholdConfig())
    valid = [s for s in scored if s.score]
    if not valid:
        raise CorpusFormatError("no scorable pairs")
    by_category: dict[str, list] = {}
    for s in valid:
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
    p.add_argument("--alphabet", type=int, default=DEFAULT_ALPHABET_SIZE)
    p.add_argument("--transform", choices=TRANSFORM_IDS, default=IDENTITY)
    p.set_defaults(func=cmd_train)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pairs", help="TSV corpus: id, arabic, english[, label[, category]]")
    shared.add_argument("--format", choices=("tsv", "aligned"), default="tsv")
    shared.add_argument("--arabic", help="Arabic side of a line-aligned pair of files")
    shared.add_argument("--english", help="English side of a line-aligned pair of files")
    shared.add_argument("--model-a", help="Arabic-side model file (default: bundled desk corpus)")
    shared.add_argument("--model-e", help="English-side model file (default: bundled desk corpus)")
    shared.add_argument("--transform", choices=TRANSFORM_IDS, default=ARABIC_NUMERIC,
                        help="Arabic-side transform (default arabic-numeric; "
                        "another needs --model-a)")
    shared.add_argument("--jobs", type=int, default=1,
                        help="parallel scoring processes (results are order-stable)")
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--theta-slr", type=float, default=2.5)
    thresholds.add_argument("--theta-cr", type=float, default=2.25)

    p = sub.add_parser("score", parents=[shared, thresholds], help="score pairs to a per-pair TSV")
    p.add_argument("--out", help="output TSV (default: stdout)")
    p.add_argument("--invalid-out", help="TSV listing unscorable pairs")
    p.add_argument("--scatter", help="also write (len_a, len_e, bits_a, bits_e, verdict) TSV")
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
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
