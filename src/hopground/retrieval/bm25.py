"""Okapi BM25 inverted index over a local corpus.

The index is one flat CSR (compressed sparse row) layout, in memory and in
its cache file.  Row ``t`` holds term ``terms[t]``: its postings are
``doc_idx[offsets[t]:offsets[t + 1]]``, ascending document indices, with the
matching term frequencies at the same positions of ``tfs``.

Documents are indexed over ``title + body`` and stored sorted by id, which
makes retrieval results independent of corpus input order.  Repeated query
terms contribute once per occurrence.

Each posting's BM25 contribution is computed once, by the constructor, into
``impact``, a ``float64`` array aligned with ``doc_idx``: 8 bytes per
posting of memory, derived on load rather than stored in the cache.  A
query's scores are one ``np.bincount`` of its terms' postings weighted by
their contributions.  ``bincount`` adds in input order, so every document
sums its terms in query order and the scores are bit-identical to a
per-term scatter-add of the BM25 formula.

:func:`save_index` writes the layout as an uncompressed ``.npz``; documents
and terms go in as UTF-8 byte blobs, so :func:`load_index` never
deserializes Python objects and rejects any malformed file with
``ValueError``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import zipfile
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core import Document
from ..errors import DuplicateDocId, EmptyCorpus, EmptyQuery

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+")  # Unicode alphanumeric runs


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def _doc_text(doc: Document) -> str:
    return f"{doc.title} {doc.body}" if doc.title else doc.body


def _check_postings(n_docs: int, n_terms: int, offsets: np.ndarray,
                    doc_idx: np.ndarray, tfs: np.ndarray,
                    doc_lengths: np.ndarray) -> None:
    """Raise ``ValueError`` unless the arrays form a consistent CSR index."""
    if (offsets.shape != (n_terms + 1,) or offsets[0] != 0
            or offsets[-1] != doc_idx.size):
        raise ValueError("term offsets must run from 0 to the posting count")
    if not (np.diff(offsets) > 0).all():
        raise ValueError("term offsets must be strictly increasing")
    if tfs.shape != doc_idx.shape or not (tfs >= 1).all():
        raise ValueError("every posting needs a term frequency >= 1")
    if doc_idx.size and not (doc_idx.min() >= 0 and doc_idx.max() < n_docs):
        raise ValueError("posting document index out of range")
    steps = np.diff(doc_idx)
    steps[offsets[1:-1] - 1] = 1  # a new term may restart at any document
    if not (steps > 0).all():
        raise ValueError("document indices must ascend within each term")
    if (doc_lengths.shape != (n_docs,) or not np.array_equal(
            np.bincount(doc_idx, weights=tfs, minlength=n_docs), doc_lengths)):
        raise ValueError("document lengths must equal their summed term frequencies")


class CorpusIndex:
    """Immutable CSR inverted index; concurrent retrieval is safe.

    Both :func:`build_index` and :func:`load_index` end here: the
    constructor checks the layout and derives idf, length normalization and
    each posting's contribution.
    """

    def __init__(self, documents: Sequence[Document], terms: Sequence[str],
                 offsets: np.ndarray, doc_idx: np.ndarray, tfs: np.ndarray,
                 doc_lengths: np.ndarray, k1: float, b: float):
        if not 0 < k1 < math.inf:
            raise ValueError("k1 must be a finite number > 0")
        if not 0 <= b <= 1:
            raise ValueError("b must be in [0, 1]")
        if not documents:
            raise ValueError("an index needs at least one document")
        doc_ids = tuple(d.id for d in documents)
        if any(a >= z for a, z in zip(doc_ids, doc_ids[1:])):
            raise ValueError("document ids must be unique and sorted")
        rows = {term: row for row, term in enumerate(terms)}
        if len(rows) != len(terms):
            raise ValueError("duplicate term")
        _check_postings(len(documents), len(terms), offsets, doc_idx, tfs,
                        doc_lengths)

        self.k1 = k1
        self.b = b
        self.documents: tuple[Document, ...] = tuple(documents)
        self.doc_ids: tuple[str, ...] = doc_ids
        self.terms: tuple[str, ...] = tuple(terms)
        self._rows = rows
        self.offsets = offsets
        self.doc_idx = doc_idx
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.avg_doc_length = float(doc_lengths.mean())
        # k1*(1 - b + b*len/avg) precomputed once; scoring only adds tf.
        # A corpus with no tokens at all has no postings either, so the
        # normalization divisor only needs to be finite.
        divisor = self.avg_doc_length if self.avg_doc_length > 0 else 1.0
        self._denom = k1 * (1.0 - b + b * doc_lengths / divisor)
        n_docs = len(self.documents)
        dfs = np.diff(offsets)
        self.idf = np.array(
            [math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
             for df in dfs.tolist()], dtype=np.float64)
        # idf * tf * (k1 + 1) / (tf + denom) per posting, in that order so
        # it rounds as the per-term expression does; in place, one temporary
        self.impact = np.repeat(self.idf, dfs)
        self.impact *= tfs
        self.impact *= k1 + 1.0
        posting_denom = self._denom[doc_idx]
        posting_denom += tfs
        self.impact /= posting_denom

    def __len__(self) -> int:
        return len(self.documents)

    def scores(self, query: str) -> np.ndarray:
        """BM25 score of every document for ``query`` (0 for no overlap)."""
        terms = tokenize(query)
        if not terms:
            raise EmptyQuery(f"query tokenizes to zero terms: {query!r}")
        rows, weights = [], []
        for term, qtf in Counter(terms).items():
            row = self._rows.get(term)
            if row is None:
                continue
            span = slice(self.offsets[row], self.offsets[row + 1])
            doc_idx = self.doc_idx[span]
            rows.append(doc_idx)
            if qtf == 1:
                weights.append(self.impact[span])
            else:
                # idf * qtf * ... rounds differently from qtf * impact
                tfs = self.tfs[span]
                weights.append(self.idf[row] * qtf * tfs * (self.k1 + 1.0)
                               / (tfs + self._denom[doc_idx]))
        n_docs = len(self.documents)
        if not rows:
            return np.zeros(n_docs, dtype=np.float64)
        # bincount adds weights in input order, so each document's score
        # sums its terms in query order, as a per-term scatter-add would
        return np.bincount(np.concatenate(rows), weights=np.concatenate(weights),
                           minlength=n_docs)


def build_index(corpus: Sequence[Document], k1: float = DEFAULT_K1,
                b: float = DEFAULT_B) -> CorpusIndex:
    """Index a corpus; ids must be unique and the corpus non-empty."""
    if not corpus:
        raise EmptyCorpus("cannot index an empty corpus")
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise DuplicateDocId(doc.id)
        seen.add(doc.id)
    # id-sorted storage keeps scoring and tie-breaks permutation-invariant
    documents = sorted(corpus, key=lambda d: d.id)

    # term ids in first-seen order, held as C ints rather than per-token objects
    vocabulary: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    token_ids = array("i")
    lengths = array("q")
    for doc in documents:
        tokens = tokenize(_doc_text(doc))
        lengths.append(len(tokens))
        token_ids.extend(map(vocabulary.__getitem__, tokens))

    # one sort of (term, doc) keys yields term-major postings, docs ascending
    n_docs = len(documents)
    doc_of_token = np.repeat(np.arange(n_docs, dtype=np.int64),
                             np.frombuffer(lengths, dtype=np.int64))
    keys = np.frombuffer(token_ids, dtype=np.intc).astype(np.int64) * n_docs
    keys, tfs = np.unique(keys + doc_of_token, return_counts=True)
    term_of = keys // n_docs
    offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(vocabulary)), out=offsets[1:])
    return CorpusIndex(documents, list(vocabulary), offsets,
                       (keys - term_of * n_docs).astype(np.int32),
                       tfs.astype(np.float64),
                       np.frombuffer(lengths, dtype=np.int64).astype(np.float64),
                       k1=k1, b=b)


def retrieve(index: CorpusIndex, query: str, top_k: int = 10) -> list[Document]:
    """Top ``top_k`` documents by descending score, ranks set from 1.

    Zero-score documents are excluded; ties break by ascending doc id.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    scores = index.scores(query)
    candidates = np.flatnonzero(scores > 0.0)
    if candidates.size == 0:
        return []
    candidate_scores = scores[candidates]
    if candidates.size > top_k:
        # keep every candidate scoring at least the k-th best score: all
        # documents tied at the cut survive, so the tie-break below still
        # sees them; many ties cost at most what a full sort costs
        cut = candidates.size - top_k
        head = candidate_scores >= np.partition(candidate_scores, cut)[cut]
        candidates, candidate_scores = candidates[head], candidate_scores[head]
    # candidates are in ascending-id order; a stable sort on -score
    # therefore breaks ties by ascending id
    ranked = candidates[np.argsort(-candidate_scores, kind="stable")][:top_k]
    return [index.documents[i].with_rank(rank)
            for rank, i in enumerate(ranked, start=1)]


_CACHE_MAGIC = "hopground-bm25-csr-v2"
_ZIP_MAGIC = b"PK\x03\x04"
# RuntimeError covers zipfile's unsupported or encrypted members and json's
# RecursionError on deeply nested documents; MemoryError a member header
# that declares an array larger than memory
_MALFORMED = (zipfile.BadZipFile, EOFError, KeyError, MemoryError, OSError,
              RuntimeError, ValueError)


def _blob(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as an uncompressed ``.npz`` at exactly ``path``."""
    documents = json.dumps([[d.id, d.title, d.body] for d in index.documents])
    arrays = {
        "magic": _blob(_CACHE_MAGIC),
        "params": np.array([index.k1, index.b], dtype=np.float64),
        "documents": _blob(documents),
        "terms": _blob("\n".join(index.terms)),
        "offsets": index.offsets,
        "doc_idx": index.doc_idx,
        "tfs": index.tfs,
        "doc_lengths": index.doc_lengths,
    }
    with open(path, "wb") as f:  # a file object keeps numpy from adding .npz
        np.savez(f, **arrays)


def _member(npz, name: str, dtype: type) -> np.ndarray:
    array_ = npz[name]
    if array_.dtype != np.dtype(dtype) or array_.ndim != 1:
        raise ValueError(f"member {name!r} is {array_.dtype}{array_.shape}, "
                         f"expected a 1-d {np.dtype(dtype)} array")
    return array_


def _text(npz, name: str) -> str:
    return _member(npz, name, np.uint8).tobytes().decode("utf-8")


def _documents(text: str) -> list[Document]:
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == 3 for row in rows)):
        raise ValueError("documents must be [id, title, body] triples")
    # Document rejects a field that is not a string with InvalidRecord,
    # a ValueError
    return [Document(id=i, title=t, body=body) for i, t, body in rows]


def load_index(path: str | Path) -> CorpusIndex:
    """Load a cache written by :func:`save_index`.

    Any malformed file raises ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as f:
        if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ValueError(f"{path}: not a hopground index cache; caches "
                             "written by older versions must be rebuilt with "
                             "`hopground index`")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as npz:
                if _text(npz, "magic") != _CACHE_MAGIC:
                    raise ValueError("unsupported cache version; rebuild it "
                                     "with `hopground index`")
                k1, b = _member(npz, "params", np.float64).tolist()
                terms = _text(npz, "terms")
                return CorpusIndex(
                    _documents(_text(npz, "documents")),
                    terms.split("\n") if terms else [],
                    _member(npz, "offsets", np.int64),
                    _member(npz, "doc_idx", np.int32),
                    _member(npz, "tfs", np.float64),
                    _member(npz, "doc_lengths", np.float64), k1=k1, b=b)
        except _MALFORMED as exc:
            raise ValueError(f"{path}: malformed index cache: {exc}") from exc
