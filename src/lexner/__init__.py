"""Lexical-similarity NER toolkit.

Builds a joint word/entity-type embedding space from a distantly annotated
corpus, derives per-word type-similarity feature vectors from it, and feeds
them (frozen) into a BiLSTM-CRF sequence tagger.
"""

__version__ = "0.1.0"

from .corpus import (
    CapClass,
    Mention,
    Sentence,
    TagScheme,
    Token,
    TypeInventory,
    build_dual_corpus,
    capitalization_class,
    convert_scheme,
    mentions_to_tags,
    tags_to_mentions,
)
from .embed import (  # noqa: F401
    EmbedConfig,
    EmbeddingTable,
    load_embeddings,
    save_embeddings,
    train_skipgram,
)
from .errors import DataError, LexnerError, NumericalError, ParseError, SchemeError
from .evaluation import EvalReport, evaluate, evaluate_by_group
from .lexsim import (
    LSTable,
    build_ls_table,
    load_ls_table,
    ls_raw,
    minmax_scale,
    save_ls_table,
    top_k_types,
)

__all__ = [
    "CapClass",
    "DataError",
    "EmbedConfig",
    "EmbeddingTable",
    "EvalReport",
    "LexnerError",
    "LSTable",
    "Mention",
    "NumericalError",
    "ParseError",
    "SchemeError",
    "Sentence",
    "TagScheme",
    "Token",
    "TypeInventory",
    "build_dual_corpus",
    "build_ls_table",
    "capitalization_class",
    "convert_scheme",
    "evaluate",
    "evaluate_by_group",
    "load_embeddings",
    "load_ls_table",
    "ls_raw",
    "mentions_to_tags",
    "minmax_scale",
    "save_embeddings",
    "save_ls_table",
    "tags_to_mentions",
    "top_k_types",
    "train_skipgram",
]
