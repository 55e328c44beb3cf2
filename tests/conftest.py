import struct
from itertools import chain

import pytest

from bitextverify.ppm import PpmModel

# step kinds of the reference escape-chain walk
SYMBOL = "symbol"
ESCAPE = "escape"
DETERMINISTIC_ESCAPE = "deterministic-escape"


def char_model(text: str, order: int, alphabet_size: int | None = None):
    """Train a character-alphabet model: chars map to ids in code-point order."""
    mapping = {ch: i for i, ch in enumerate(sorted(set(text)))}
    model = PpmModel(order, alphabet_size or max(2, len(mapping)))
    model.train([mapping[ch] for ch in text])
    return model, mapping


# The frozen reference escape-chain walk that the kernel oracle tests replay:
# one (order, kind, num, den, stats) per step, ending in exactly one SYMBOL.
def _ref_walk(lookup, history, symbol, max_order, alphabet_size):
    n = len(history)
    k = max_order if n > max_order else n
    while k >= 0:
        ctx = tuple(history[n - k:n])
        stats = lookup(ctx)
        if stats is None or stats.total == 0:
            yield (k, DETERMINISTIC_ESCAPE, 1, 1, None)
        else:
            c = stats.counts.get(symbol)
            if c is not None:
                yield (k, SYMBOL, 2 * c - 1, 2 * stats.total, stats)
                return
            yield (k, ESCAPE, len(stats.counts), 2 * stats.total, stats)
        k -= 1
    yield (-1, SYMBOL, 1, alphabet_size, None)


# The frozen PPMV1 reader that the table-of-lists PpmModel.loads replaced, kept
# in logic as it was: the same checks, in the same order. It returns
# (max_order, alphabet_size, [(context, total, [(symbol, count), ...])] in table
# order, whether loads keeps the dump's own hash) or raises ValueError.
def _ref_loads(data):
    if data[:5] != b"PPMV1":
        raise ValueError("not a PPMV1 model dump")
    entry = struct.Struct(">IQ")
    try:
        max_order, alphabet_size, n_contexts = struct.unpack_from(">BIQ", data, 5)
        pos = first = 5 + struct.calcsize(">BIQ")
        PpmModel(max_order, alphabet_size)  # the constructor's parameter checks
        key = bytes if alphabet_size <= 256 else tuple
        empty = (0, {})
        table = {key(()): empty}  # the constructor pre-inserts the empty context
        for _ in range(n_contexts):
            (ctx_len,) = struct.unpack_from(">B", data, pos)
            ctx = struct.unpack_from(f">{ctx_len}I", data, pos + 1)
            (n_entries,) = struct.unpack_from(">I", data, pos + 1 + 4 * ctx_len)
            pos += 5 + 4 * ctx_len
            end = pos + entry.size * n_entries
            if end > len(data):
                raise struct.error("entries run past the end")
            counts = dict(entry.iter_unpack(data[pos:end]))
            pos = end
            if ctx_len > max_order:
                raise ValueError(f"context {ctx} is longer than max_order {max_order}")
            if len(counts) != n_entries:
                raise ValueError(f"context {ctx} lists a symbol twice")
            if 0 in counts.values():
                raise ValueError(f"context {ctx} has a count below 1")
            table[key(ctx)] = (sum(counts.values()), counts)
    except struct.error as exc:
        raise ValueError("truncated PPMV1 model dump") from exc
    except ValueError as exc:
        raise ValueError(f"corrupt PPMV1 model dump: {exc}") from exc
    if pos != len(data):
        raise ValueError("trailing garbage after PPMV1 model dump")
    if len(table) != n_contexts + (table[key(())] is empty):
        raise ValueError("corrupt PPMV1 model dump: a context is listed twice")
    entry_symbols = chain.from_iterable(counts for _, counts in table.values())
    if max(chain(chain.from_iterable(table), entry_symbols), default=0) >= alphabet_size:
        raise ValueError(f"corrupt PPMV1 model dump: a symbol outside alphabet {alphabet_size}")
    contexts = [(tuple(ctx), total, list(counts.items())) for ctx, (total, counts) in table.items()]
    return max_order, alphabet_size, contexts, bool(n_contexts and data[first] == 0)


@pytest.fixture(scope="session")
def bundled_models():
    """Snapshots of the default desk-corpus models, loaded once per session by
    the CLI's own loader from the filter command's default arguments (the shipped dumps)."""
    from bitextverify import cli

    args = cli.build_parser().parse_args(["filter", "--out-dir", "unused"])
    return tuple(model for model, _ in cli._load_models(args))
