"""The benchmark workloads: their inputs, commands, reference results and checks.

Each workload writes two inputs: ``full``, the batch that throughput is timed
on, and ``unit``, the smallest input that takes the same code path, which
``setup_s`` is timed on. References are computed in this process, outside any
timed region, once per run.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

from bitextverify import cli
from bitextverify.corpus import SentencePair
from bitextverify.metrics import SATISFACTORY, InvalidPairError, score_pair
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY, apply_transform

import check
import gen

BENCH_DIR = Path(__file__).resolve().parent

# Batch sizes: each batch is 1.5 s of work on a 2-core Xeon, so a run of 35 s
# holds about 17 rounds.
SERIAL_PAIRS = 450
SHORT_PAIRS = 4000
PRIMING_LINES = 1300
CODEC_LINES = 200
REPLAY_CHARS = 8000  # per model, for the kernel replay loops of a traced run


def pool_jobs() -> int:
    """Worker processes for the pool workload: the usable cores, and at least
    2 so that the pool path runs."""
    return max(2, len(os.sched_getaffinity(0)))


def bundled_models() -> tuple[PpmModel, PpmModel]:
    """The models ``filter`` scores with by default, built by the CLI's own
    loader from the filter command's default arguments."""
    args = cli.build_parser().parse_args(["filter", "--out-dir", "unused"])
    (model_a, _), (model_e, _) = cli._load_models(args)
    return model_a, model_e


def command(step) -> list[str]:
    """The subprocess argv of one workload step, ("cli" | "codec", args)."""
    kind, args = step
    if kind == "cli":
        return [sys.executable, "-m", "bitextverify.cli", *args]
    return [sys.executable, str(BENCH_DIR / "codec_job.py"), *args]


class FilterWorkload:
    """``bitextverify filter`` on a TSV (serial) or line-aligned (pool) corpus."""

    def __init__(self, name: str, aligned: bool, jobs: int, n_pairs: int):
        self.name = name
        self.aligned = aligned
        self.jobs = jobs
        self.n_pairs = n_pairs
        self.rows: dict[str, list] = {}
        self.expected: dict[str, list[str]] = {}

    def prepare(self, work: Path, seed: int) -> None:
        make = gen.short_rows if self.aligned else gen.serial_rows
        # the unit input gives each pool worker one pair, so the pool starts
        sizes = {"full": self.n_pairs, "unit": self.jobs if self.jobs > 1 else 1}
        for size, n in sizes.items():
            rows = make(seed, n)
            if self.aligned:
                gen.write_lines(work / f"{size}.ar", (r[1] for r in rows))
                gen.write_lines(work / f"{size}.en", (r[2] for r in rows))
            else:
                gen.write_lines(work / f"{size}.tsv", ("\t".join(r) for r in rows))
            self.rows[size] = rows
        model_a, model_e = bundled_models()
        self.models = (model_a, model_e)
        self.expected["unit"], _ = self._reference(self.rows["unit"])
        self.expected["full"], self.scores_digest = self._reference(self.rows["full"])

    def _reference(self, rows) -> tuple[list[str], str]:
        """Placement of each row by in-process score_pair, and a digest of every
        score's exact floats, so pinned.json can hold SLR, CR and bits fixed."""
        placements, lines = [], []
        for row in rows:
            try:
                score = score_pair(SentencePair(*row), *self.models)
            except InvalidPairError as exc:
                placements.append("invalid")
                lines.append(f"{row[0]}\tinvalid\t{exc.reason}")
                continue
            placements.append("accepted" if score.verdict == SATISFACTORY else "rejected")
            lines.append(f"{row[0]}\t{score.bits_a!r}\t{score.bits_e!r}\t{score.slr!r}"
                         f"\t{score.cr!r}\t{score.verdict}")
        return placements, hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def steps(self, work: Path, size: str, out: Path, jobs: int | None = None) -> list:
        if self.aligned:
            corpus = ["--format", "aligned", "--arabic", str(work / f"{size}.ar"),
                      "--english", str(work / f"{size}.en")]
        else:
            corpus = ["--pairs", str(work / f"{size}.tsv")]
        return [("cli", ["filter", *corpus, "--out-dir", str(out), "--jobs", str(jobs or self.jobs)])]

    def replay_sets(self) -> list:
        """Both sides of the first full-input pairs, about REPLAY_CHARS per side."""
        sides: list[list[str]] = [[], []]
        chars = [0, 0]
        for row in self.rows["full"]:
            for side, text in enumerate(row[1:3]):
                if text and chars[side] < REPLAY_CHARS:
                    sides[side].append(text)
                    chars[side] += len(text)
        return [(self.models[0], sides[0], ARABIC_NUMERIC), (self.models[1], sides[1], IDENTITY)]

    def step_units(self, size: str) -> list[int]:
        """Work units of each step: characters of both sides of the input.
        The mean pair length of a corpus differs by up to 10% between seeds,
        and scoring time follows length."""
        return [sum(len(row[1]) + len(row[2]) for row in self.rows[size])]

    def items(self, size: str) -> int:
        return len(self.rows[size])

    def check(self, size: str, out: Path) -> list[str]:
        return check.check_filter(out, self.rows[size], self.expected[size])


class TrainCodecWorkload:
    """``bitextverify train`` on a priming file, then a coder round trip of
    held-out sentences with the trained model (``codec_job.py``)."""

    name = "train-codec"
    def __init__(self, n_priming: int, n_sentences: int):
        self.n_priming = n_priming
        self.n_sentences = n_sentences
        self.sentences: dict[str, list[str]] = {}
        self.texts: dict[str, list[bytes]] = {}
        self.symbols: dict[str, list[int]] = {}
        self.dumps: dict[str, bytes] = {}
        self.models: dict[str, PpmModel] = {}

    def prepare(self, work: Path, seed: int) -> None:
        for size, (n_priming, n_sentences) in (
            ("full", (self.n_priming, self.n_sentences)), ("unit", (1, 1)),
        ):
            priming, sentences = gen.arabic_lines(seed, n_priming, n_sentences)
            gen.write_lines(work / f"{size}.priming", priming)
            gen.write_lines(work / f"{size}.sentences", sentences)
            model = PpmModel()
            trained = 0
            for line in priming:
                data = apply_transform(line, ARABIC_NUMERIC)
                model.train(data)
                trained += len(data)
            texts = [apply_transform(s, ARABIC_NUMERIC) for s in sentences]
            self.sentences[size] = sentences
            self.texts[size] = texts
            self.symbols[size] = [trained, 2 * sum(map(len, texts))]
            self.dumps[size] = model.dumps()
            self.models[size] = model.snapshot()

    def steps(self, work: Path, size: str, out: Path, jobs: int | None = None) -> list:
        model = str(out / "model.ppm")
        return [
            ("cli", ["train", "--input", str(work / f"{size}.priming"), "--out", model,
                     "--transform", ARABIC_NUMERIC]),
            ("codec", [model, str(work / f"{size}.sentences"), str(out / "codec.bin")]),
        ]

    def replay_sets(self) -> list:
        return [(self.models["full"], self.sentences["full"], ARABIC_NUMERIC)]

    def step_units(self, size: str) -> list[int]:
        """Work units of each step: symbols trained; symbols encoded plus decoded."""
        return self.symbols[size]

    def items(self, size: str) -> int:
        """The trained model and each round-tripped sentence."""
        return 1 + len(self.texts[size])

    def check(self, size: str, out: Path) -> list[str]:
        failures = []
        if (out / "model.ppm").read_bytes() != self.dumps[size]:
            failures.append("model.ppm differs from the reference model")
        return failures + check.check_codec(out / "codec.bin", self.texts[size], self.models[size])


def make(name: str):
    if name == "filter-serial":
        return FilterWorkload(name, aligned=False, jobs=1, n_pairs=SERIAL_PAIRS)
    if name == "filter-pool-short":
        return FilterWorkload(name, aligned=True, jobs=pool_jobs(), n_pairs=SHORT_PAIRS)
    if name == "train-codec":
        return TrainCodecWorkload(PRIMING_LINES, CODEC_LINES)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("filter-serial", "filter-pool-short", "train-codec")
