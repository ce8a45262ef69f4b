"""Pluggable document retrieval: local BM25 index or an external service.

The BM25 names are imported on first access (PEP 562), because ``bm25``
loads numpy: a command that never touches a local index, such as ``run``
against an external retriever, never loads it.  The BM25 parameter
defaults live here, so that the CLI can show them without that import.
"""

import importlib

from .corpus import load_corpus
from .external import retrieve_external

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

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


def __getattr__(name: str):
    if name == "bm25" or name in __all__:
        bm25 = importlib.import_module(".bm25", __name__)
        return bm25 if name == "bm25" else getattr(bm25, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
