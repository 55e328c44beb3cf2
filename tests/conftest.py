import pytest

from bitextverify.ppm import PpmModel


def char_model(text: str, order: int, alphabet_size: int | None = None):
    """Train a character-alphabet model: chars map to ids in code-point order."""
    mapping = {ch: i for i, ch in enumerate(sorted(set(text)))}
    model = PpmModel(order, alphabet_size or max(2, len(mapping)))
    model.train([mapping[ch] for ch in text])
    return model, mapping


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
