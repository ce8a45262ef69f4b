"""Pluggable document retrieval: local BM25 index or an external service."""

from .bm25 import (
    CorpusIndex,
    build_index,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from .corpus import load_corpus
from .external import retrieve_external

__all__ = [
    "CorpusIndex",
    "build_index",
    "load_corpus",
    "load_index",
    "retrieve",
    "retrieve_external",
    "save_index",
    "tokenize",
]
