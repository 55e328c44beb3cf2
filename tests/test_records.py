"""The package's records are NamedTuples: immutable, equal to the plain tuple
of their fields, and rebuilt with ``_replace``."""

import pickle
from fractions import Fraction

import pytest

from bitextverify.coder import EncodedBlob
from bitextverify.corpus import EvalReport, ScoredPair, SentencePair
from bitextverify.metrics import PairScore, ThresholdConfig
from bitextverify.ppm import ContextStats
from bitextverify.preprocess import prepare
from bitextverify.synthetic import SyntheticCorpus

PAIR = SentencePair("1", "نص", "text", "Satisfactory", "news")
RECORDS = [
    PAIR,
    ScoredPair(PAIR, None, "empty arabic side"),
    EvalReport(Fraction(50), Fraction(75)),
    PairScore("1", 2, 4, 8.0, 12.0, 4.0, 3.0, 2.0, 1.5, "Satisfactory"),
    ThresholdConfig(),
    prepare("text"),
    EncodedBlob(bytes(8), 2, b"\x01"),
    ContextStats({1: 2, 3: 1}, 3),
    SyntheticCorpus([PAIR], "نص", "text"),
]
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_to_its_fields_and_replaceable(record):
    assert record == tuple(getattr(record, name) for name in record._fields)
    first = record._fields[0]
    changed = record._replace(**{first: getattr(record, first)})
    assert changed == record and type(changed) is type(record)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_threshold_replace_validates():
    assert ThresholdConfig()._replace(theta_cr=3.0) == ThresholdConfig(2.5, 3.0)
    for bad in (0, -1.0, float("inf"), float("nan"), "2"):
        with pytest.raises(ValueError, match="theta_cr"):
            ThresholdConfig()._replace(theta_cr=bad)
        with pytest.raises(ValueError, match="theta_slr"):
            ThresholdConfig(bad)
