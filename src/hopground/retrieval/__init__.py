"""Pluggable document retrieval: local BM25 index or an external service.

A service is queried through ``external.ExternalRetriever``, which
``RetrievalConfig.retriever`` builds from the ``retrieval`` config section.

The BM25 names are imported on first access (PEP 562), because ``bm25``
loads numpy: a command that never touches a local index, such as ``run``
against an external retriever, never loads it.
"""

import importlib

from .corpus import load_corpus

__all__ = [
    "CorpusIndex",
    "build_index",
    "load_corpus",
    "load_index",
    "retrieve",
    "save_index",
    "tokenize",
]


def __getattr__(name: str):
    if name == "bm25" or name in __all__:
        bm25 = importlib.import_module(".bm25", __name__)
        return bm25 if name == "bm25" else getattr(bm25, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
