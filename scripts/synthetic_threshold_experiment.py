#!/usr/bin/env python3
"""Threshold-sweep experiment on a synthetic labeled bitext.

Generates a deterministic corpus of faithful and distorted sentence pairs,
primes one model per language on matching synthetic text, then compares the
best average accuracy reachable by each single metric against the hybrid
rule's full threshold grid.

Run: python scripts/synthetic_threshold_experiment.py [--sat N] [--unsat N] [--seed S]
"""

import argparse
import time

from bitextverify.cli import fmt_pct
from bitextverify.corpus import evaluate, score_pairs, threshold_matrix
from bitextverify.metrics import ThresholdConfig
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY, apply_transform
from bitextverify.synthetic import build_corpus

GRID = [1.25 + 0.25 * i for i in range(10)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sat", type=int, default=500)
    parser.add_argument("--unsat", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20250810)
    args = parser.parse_args()

    started = time.perf_counter()
    corpus = build_corpus(args.sat, args.unsat, seed=args.seed)

    model_a, model_e = PpmModel(), PpmModel()
    model_a.train_many(apply_transform(s, ARABIC_NUMERIC) for s in corpus.priming_a.splitlines())
    model_e.train_many(apply_transform(s, IDENTITY) for s in corpus.priming_e.splitlines())

    scored = score_pairs(corpus.pairs, model_a.snapshot(), model_e.snapshot())
    scores = [s.score for s in scored]
    print(f"scored {len(scores)} pairs ({args.sat} faithful, {args.unsat} distorted)")

    print("\nsingle-metric best average accuracy over the grid:")
    for mode in ("slr", "cr"):
        best = max(
            (evaluate(corpus.pairs, scores, ThresholdConfig(g, g), mode).average, g)
            for g in GRID
        )
        print(f"  {mode:4s}: {fmt_pct(best[0])}% at threshold {best[1]:.2f}")

    matrix = threshold_matrix(corpus.pairs, scores, GRID, GRID)
    best_cell = max(
        (cell, GRID[j], GRID[i])
        for i, row in enumerate(matrix)
        for j, cell in enumerate(row)
    )
    print(f"  both: {fmt_pct(best_cell[0])}% at slr {best_cell[1]:.2f}, cr {best_cell[2]:.2f}")

    print("\nhybrid average-accuracy matrix (slr across, cr down):")
    print("cr\\slr\t" + "\t".join(f"{g:g}" for g in GRID))
    for theta_cr, row in zip(GRID, matrix):
        print(f"{theta_cr:g}\t" + "\t".join(fmt_pct(cell) for cell in row))

    print(f"\nelapsed {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
