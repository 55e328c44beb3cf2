"""Deterministic synthetic bitext for experiments and stress tests.

Builds a toy language pair from one shared token stream: each abstract token
is rendered with a Latin-script word on the English side and an Arabic-script
word on the Arabic side, so a faithful pair carries the same information in
both renderings and its code lengths correlate. Unsatisfactory pairs are
derived by the distortions the filter is meant to catch:

- ``truncated``:   one side loses most of its words (length and bits both off)
- ``duplicated``:  one side repeated (length off, bits only mildly off)
- ``swapped``:     the translation replaced by two unrelated sentences
- ``padded``:      filler word repeated until the side is much longer while
                   adding almost no information (length ratio catches it,
                   code ratio does not)
- ``flattened``:   the side rewritten as one word repeated to the same length
                   (code ratio catches it, length ratio does not)

Everything is driven by a seeded RNG, so a given (seed, size) is bit-stable.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .corpus import SentencePair
from .metrics import SATISFACTORY, UNSATISFACTORY

_LATIN_ONSETS = "b c d f g h j k l m n p r s t v w z br st tr ch sh".split()
_LATIN_NUCLEI = "a e i o u ai ea ou".split()
_ARABIC_LETTERS = "ابتجحدرزسشصطعفقكلمنهوي"

DISTORTIONS = ("truncated", "duplicated", "swapped", "padded", "flattened")
VOCAB_SIZE = 240


class SyntheticCorpus(NamedTuple):
    pairs: list[SentencePair]
    priming_a: str  # newline-delimited priming text, Arabic side
    priming_e: str


def _latin_word(rng: random.Random) -> str:
    n = rng.randint(2, 4)
    return "".join(rng.choice(_LATIN_ONSETS) + rng.choice(_LATIN_NUCLEI) for _ in range(n))


def _arabic_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_ARABIC_LETTERS) for _ in range(max(2, length)))


def _build_vocab(rng: random.Random, size: int) -> tuple[list[str], list[str], list[float]]:
    en, ar, seen = [], [], set()
    while len(en) < size:
        w = _latin_word(rng)
        if w in seen:
            continue
        seen.add(w)
        en.append(w)
        # Arabic renderings run shorter than English, like real bitext
        ar.append(_arabic_word(rng, round(len(w) * 0.7)))
    weights = [1.0 / rank for rank in range(1, size + 1)]  # Zipf-ish usage
    return en, ar, weights


class BitextGenerator:
    """Renders shared token streams into sentence pairs, plus distortions."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._en, self._ar, self._weights = _build_vocab(self._rng, VOCAB_SIZE)

    def _tokens(self, n_words: int) -> list[int]:
        return self._rng.choices(range(len(self._en)), weights=self._weights, k=n_words)

    def _render(self, tokens: list[int]) -> tuple[str, str]:
        ar = " ".join(self._ar[t] for t in tokens) + "."
        en = " ".join(self._en[t] for t in tokens) + "."
        return ar, en

    def priming_text(self, n_sentences: int = 300) -> tuple[str, str]:
        lines_a, lines_e = [], []
        for _ in range(n_sentences):
            ar, en = self._render(self._tokens(self._rng.randint(6, 14)))
            lines_a.append(ar)
            lines_e.append(en)
        return "\n".join(lines_a), "\n".join(lines_e)

    def satisfactory_pair(self, pair_id: str) -> SentencePair:
        ar, en = self._render(self._tokens(self._rng.randint(6, 14)))
        return SentencePair(pair_id, ar, en, SATISFACTORY, "satisfactory")

    def unsatisfactory_pair(self, pair_id: str, kind: str) -> SentencePair:
        rng = self._rng
        # flattened pairs need room for the repetition to dominate the code length
        tokens = self._tokens(rng.randint(12, 18) if kind == "flattened" else rng.randint(8, 14))
        ar, en = self._render(tokens)
        if kind == "truncated":
            en = " ".join(en[:-1].split()[: max(1, len(tokens) // 3)]) + "."
        elif kind == "duplicated":
            ar = ar[:-1] + " " + ar
        elif kind == "swapped":
            _, other = self._render(self._tokens(rng.randint(8, 14)))
            _, other2 = self._render(self._tokens(rng.randint(8, 14)))
            en = other[:-1] + " " + other2
        elif kind == "padded":
            filler = self._en[tokens[0]]
            pad = " ".join([filler] * (max(4, round(1.8 * len(en) / (len(filler) + 1)))))
            en = en[:-1] + " " + pad + "."
        elif kind == "flattened":
            word = self._en[tokens[0]]
            repeated = (word + " ") * (len(en) // (len(word) + 1) + 1)
            en = repeated[: max(len(en), len(word) + 1)].rstrip() + "."
        else:
            raise ValueError(f"unknown distortion {kind!r}")
        return SentencePair(pair_id, ar, en, UNSATISFACTORY, kind)


def build_corpus(n_sat: int, n_unsat: int, seed: int = 0) -> SyntheticCorpus:
    """A labeled corpus with n_sat faithful pairs and n_unsat distorted ones,
    cycling through the distortion kinds, plus matching priming text."""
    gen = BitextGenerator(seed)
    priming_a, priming_e = gen.priming_text()
    pairs = [gen.satisfactory_pair(f"sat-{i}") for i in range(n_sat)]
    pairs += [
        gen.unsatisfactory_pair(f"unsat-{i}", DISTORTIONS[i % len(DISTORTIONS)])
        for i in range(n_unsat)
    ]
    return SyntheticCorpus(pairs, priming_a, priming_e)
