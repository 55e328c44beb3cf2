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


@pytest.fixture(scope="session")
def bundled_models():
    """Snapshots of the default desk-corpus models, trained once per session by
    the CLI's own priming path."""
    from bitextverify.cli import _bundled_model
    from bitextverify.ppm import DEFAULT_ALPHABET_SIZE, DEFAULT_MAX_ORDER
    from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY

    return tuple(
        _bundled_model(lang, transform, DEFAULT_MAX_ORDER, DEFAULT_ALPHABET_SIZE).snapshot()
        for lang, transform in (("arabic", ARABIC_NUMERIC), ("english", IDENTITY))
    )
