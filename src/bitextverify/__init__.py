"""Verify parallel Arabic-English corpora with two distance metrics:
a compression code-length ratio and a sentence-length ratio."""

from .coder import CodecError, EncodedBlob, decode, encode, ideal_bits
from .corpus import (
    CorpusFormatError,
    EvalReport,
    ScoredPair,
    SentencePair,
    evaluate,
    filter_corpus,
    greater_stats,
    load_corpus,
    score_pairs,
    threshold_matrix,
)
from .metrics import (
    SATISFACTORY,
    UNSATISFACTORY,
    InvalidPairError,
    PairScore,
    ThresholdConfig,
    code_ratio,
    cr,
    cross_entropy,
    score_pair,
    slr,
    verdict,
)
from .ppm import (
    ContextStats,
    FrozenModelError,
    ModelOverlay,
    PpmModel,
    escape_probability,
    symbol_probability,
)
from .preprocess import (
    ARABIC_NUMERIC,
    IDENTITY,
    PreparedText,
    TransformError,
    arabic_to_numeric,
    char_length,
    numeric_to_arabic,
    prepare,
)

__version__ = "0.1.0"
