"""Per-layer measurement: spans around public entry points, and replay loops.

Spans are recorded by wrapping entry points where their callers look them up
(``cli.load_corpus``, ``corpus.score_pair``, ``metrics.ideal_bits``, ...), so
the package source is not edited. One span per call, never one per symbol.
Kernels called once per symbol (``ModelOverlay.update``) or not called by the
CLI at all (``encode``/``decode``, ``loads``/``dumps``) are timed by replay
loops over the workload's own texts and models instead.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import bitextverify.cli as cli
import bitextverify.corpus as corpus
import bitextverify.metrics as metrics
from bitextverify.coder import decode, encode, ideal_bits
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import prepare

clock = time.perf_counter


class Tracer:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.captured: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, capture=None):
        """``count(args, result)`` gives the span's unit count (default 1);
        ``capture`` keeps the call's arguments and result under that key."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            if capture is not None:
                self.captured[capture] = (args, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed count, wall and self seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, start, end, count) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "count": 0, "wall_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["count"] += count
            t["wall_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out


def _len_arg(index):
    return lambda args, result: len(args[index])


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block."""
    patches = [
        (cli, "cmd_filter", "cli.filter", None, None),
        (cli, "cmd_train", "cli.train", None, None),
        (cli, "load_corpus", "corpus.load_corpus", lambda a, r: len(r), None),
        (cli, "filter_corpus", "corpus.filter_corpus", None, None),
        (corpus, "score_pairs", "corpus.score_pairs", _len_arg(0), "score_pairs"),
        (corpus, "score_pair", "metrics.score_pair", None, None),
        (metrics, "prepare", "preprocess.prepare", _len_arg(0), None),
        (metrics, "ideal_bits", "coder.ideal_bits", _len_arg(1), None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in patches]
    methods = {attr: PpmModel.__dict__[attr] for attr in ("train", "snapshot", "load")}
    try:
        for owner, attr, name, count, capture in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, capture))
        PpmModel.train = tracer.wrap("ppm.train", methods["train"], _len_arg(1))
        PpmModel.snapshot = tracer.wrap("ppm.snapshot", methods["snapshot"])
        PpmModel.load = classmethod(tracer.wrap("ppm.load", methods["load"].__func__))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        for attr, original in methods.items():
            setattr(PpmModel, attr, original)


# -- replay loops ----------------------------------------------------------------


def replay(model: PpmModel, strings: list[str], transform: str) -> dict[str, float]:
    """Time each kernel once over `strings` with a frozen `model`.

    Returns units and seconds per kernel, plus the largest payload overhead
    over the ideal code length. Rates are formed by the caller so several
    models' replays can be pooled.
    """
    out: dict[str, float] = {}
    t = clock()
    prepared = [prepare(s, transform) for s in strings]
    out["prepare_s"] = clock() - t
    out["chars"] = sum(p.char_length for p in prepared)
    texts = [p.data for p in prepared]
    out["symbols"] = sum(map(len, texts))

    for adapt, key in ((True, "adapt_s"), (False, "static_s")):
        t = clock()
        bits = [ideal_bits(model, text, adapt=adapt) for text in texts]
        out[key] = clock() - t
        if adapt:
            ideal = bits

    d = model.max_order
    t = clock()
    for text in texts:
        overlay = model.overlay()
        for i in range(len(text)):
            overlay.update(text[i - d if i > d else 0:i], text[i])
    out["overlay_s"] = clock() - t

    t = clock()
    blobs = [encode(model, text) for text in texts]
    out["encode_s"] = clock() - t
    t = clock()
    decoded = [decode(model, blob) for blob in blobs]
    out["decode_s"] = clock() - t
    out["roundtrip_failures"] = sum(d != t for d, t in zip(decoded, texts))
    out["overhead_bits_max"] = max(
        (b.payload_bits - i for b, i in zip(blobs, ideal)), default=0.0
    )
    return out


def model_io(model: PpmModel, repeats: int = 3) -> dict[str, float]:
    """Median seconds of dumps, loads and a full config hash, and the dump size."""
    dumps_s, loads_s, hash_s = [], [], []
    for _ in range(repeats):
        t = clock()
        data = model.dumps()
        dumps_s.append(clock() - t)
        t = clock()
        fresh = PpmModel.loads(data)
        loads_s.append(clock() - t)
        # a model straight from loads is not frozen, so this hashes the whole dump
        t = clock()
        fresh.config_hash()
        hash_s.append(clock() - t)
    return {
        "bytes": len(data),
        "contexts": len(model),
        "dumps_s": statistics.median(dumps_s),
        "loads_s": statistics.median(loads_s),
        "hash_s": statistics.median(hash_s),
    }
