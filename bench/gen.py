"""Seeded inputs for the benchmark workloads, built on ``bitextverify.synthetic``.

The program under test only ever sees the files written from these values.
Every value is a pure function of (seed, size), so the same seed gives
byte-identical files; ``test_bench.py`` checks that.
"""

from __future__ import annotations

import random

from bitextverify.synthetic import BitextGenerator, build_corpus

EMPTY_SHARE = 0.02  # short pairs with one side empty: they take the invalid path
DISTORTED_SHARE = 0.15  # short pairs whose sides come from different sentences


def serial_rows(seed: int, n_pairs: int) -> list[tuple[str, ...]]:
    """Labelled, categorised rows (id, arabic, english, label, category), 9:1
    faithful:distorted.

    ``build_corpus`` emits all faithful pairs before the distorted ones; the
    rows are shuffled so distortions are spread over the file as in real data.
    """
    n_unsat = max(1, n_pairs // 10)
    pairs = build_corpus(n_pairs - n_unsat, n_unsat, seed=seed).pairs
    random.Random(seed).shuffle(pairs)
    return [(p.id, p.text_a, p.text_e, p.label, p.category) for p in pairs]


def short_rows(seed: int, n_pairs: int) -> list[tuple[str, str, str]]:
    """Short pairs (id, arabic, english) of 1-3 tokens per side; ids are the
    1-based line numbers that line-aligned input gets.

    A faithful pair keeps the first k words of both renderings of one
    sentence, which stay word-aligned. A distorted pair sets one Arabic word
    against three English words of another sentence. A few pairs have one side
    empty.
    """
    rng = random.Random(seed)
    gen = BitextGenerator(seed)
    sentences = [gen.satisfactory_pair(str(i)) for i in range(max(64, n_pairs // 8))]
    words = [(p.text_a[:-1].split(), p.text_e[:-1].split()) for p in sentences]
    rows = []
    for i in range(1, n_pairs + 1):
        roll = rng.random()
        if roll < DISTORTED_SHARE:
            ar = rng.choice(words)[0][:1]
            en = rng.choice(words)[1][:3]
        else:
            k = rng.randint(1, 3)
            ar, en = (side[:k] for side in rng.choice(words))
        ar, en = " ".join(ar), " ".join(en)
        if roll > 1 - EMPTY_SHARE:
            if rng.random() < 0.5:
                ar = ""
            else:
                en = ""
        rows.append((str(i), ar, en))
    return rows


def arabic_lines(seed: int, n_priming: int, n_sentences: int) -> tuple[list[str], list[str]]:
    """Arabic priming lines and held-out Arabic sentences from one generator."""
    gen = BitextGenerator(seed)
    priming, _ = gen.priming_text(n_priming)
    sentences = [gen.satisfactory_pair(str(i)).text_a for i in range(n_sentences)]
    return priming.split("\n"), sentences


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
