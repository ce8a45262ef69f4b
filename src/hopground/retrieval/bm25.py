"""Okapi BM25 inverted index over a local corpus.

The index is one flat CSR (compressed sparse row) layout, in memory and in
its cache file.  Row ``t`` holds term ``terms[t]``: its postings are
``doc_idx[offsets[t]:offsets[t + 1]]``, ascending ``int32`` document
indices, with the matching term frequencies at the same positions of
``tfs``.  A term frequency is a count, so ``tfs`` uses the smallest
unsigned integer type that holds the largest one (``uint8`` for any
ordinary corpus); widening an integer to ``float64`` is exact, so scores do
not depend on that type.  Scores never depend on a term's row, so a
cache's rows may come in any order.

Text is lowercased and split into runs of Unicode letters and digits
(:func:`tokenize`).  ASCII text, nearly every document of an English
corpus, goes through a 256-byte table that lowers ``A-Z``, keeps ``a-z``
and ``0-9`` and turns every other byte into a space, then ``split``; for
ASCII the regex's runs are exactly ``[A-Za-z0-9]+``, so both routes yield
the same tokens.  Other text goes through the regex.

Documents are indexed over ``title + body`` and numbered by id, which
makes retrieval results independent of corpus input order.  Their text is one
UTF-8 byte blob, ``doc_text``, of three fields per document (id, title,
body); document ``i`` in id order starts at ``doc_starts[i]`` and its fields
end at the ``int64`` ``doc_ends[i]``; the index holds no list of ids.
:meth:`CorpusIndex.document` decodes a :class:`Document` only for a ranked
hit.

:func:`build_index` reads its documents once, as a stream (single-pass
in-memory inversion): each document's fields go into one growing buffer and
its token ids into one array as it arrives, so a caller that streams
:func:`~hopground.retrieval.load_corpus` into it never holds a document
list.  At the end, the blob stays in arrival order and only the bounds are
put in id order, and the terms are numbered in sorted order, so the
postings, the rankings and the cache are the same for any input order.  The
arrays are consistent by construction; only :func:`load_index`, which reads
a file from outside, checks them, and the :class:`CorpusIndex` constructor
just derives from them.

Per-posting temporaries are made one chunk of ``_CHUNK`` postings at a
time, never for the whole array, and the build keeps its postings in one
buffer.  Token ids are collected as ``int64``, and each chunk of them is
overwritten with its (term, doc) keys; the keys are sorted in place, and
chunk by chunk each run of equal keys becomes one posting, written over
the front of the keys as ``doc | run_length << 32``.  The run lengths are
then read out into ``tfs``, the documents packed as ``int32`` over the
front of the buffer, and the buffer shrunk to hold just them: that is
``doc_idx``.  :func:`load_index` reads each cache member straight into its
array and checks the postings chunk by chunk (summing the document
lengths in chunks of at least one posting per document).  A load
therefore peaks at about what the index holds, and the build never holds
a second copy of the document text or of the postings.

Every index scores with Robertson and Zaragoza's parameters, the module
constants ``K1`` (1.2) and ``B`` (0.75); they are not settable.

A posting's BM25 contribution is computed the first time a query uses its
term, by :meth:`CorpusIndex.contributions`, and kept for later queries; it
is derived rather than stored in the cache.  A posting therefore costs 5
bytes of memory, 4 of ``doc_idx`` and 1 of ``uint8`` ``tfs``, plus 8 of
``float64`` contribution once its term has been queried.  A term that a
query repeats ``qtf`` times weighs in once per occurrence, as ``idf * qtf *
tf ...``: that rounds differently from ``qtf`` times the kept contribution,
so the same method computes it afresh for that query and keeps nothing.  A
query's scores are one ``np.bincount`` of its terms' postings weighted by
their contributions.  ``bincount`` adds in input order, so every document sums
its terms in query order and the scores are bit-identical to a per-term
scatter-add of the BM25 formula.

:func:`retrieve` selects the top ``k`` above a sampled score floor: the
``k``-th best score among every ``_SAMPLE_STRIDE``-th document, and at
least the smallest positive float.  A sample's ``k``-th best never exceeds
the whole vector's, so every document at or above the true cut, ties
included, is kept, and only those few are partitioned and stably sorted.  A
sample of fewer than ``k`` scoring documents gives the smallest positive
float as the floor, which keeps every document that scores above zero.

:func:`save_index` writes the cache (format ``hopground-bm25-csr-v3``)
byte for byte as ``np.savez`` would write the id-order arrays into an
uncompressed ``.npz``, with the documents in id order and cut by one
``doc_offsets`` array, and ``params`` always ``[K1, B]``.  It writes each
member itself, a ``numpy.lib.format`` header and then the array's own
buffer, so it copies no array; ``doc_text`` goes out as the blob's runs in
id order.  The bytes go to a temporary file beside the cache, which then
replaces it, so a save that fails or is killed leaves the old cache as it
was.  A loaded index keeps the cache's id-order blob, and its bounds are
views of ``doc_offsets``.  :func:`load_index` never deserializes Python
objects and rejects any malformed file with ``ValueError``, as it does a
cache whose ``params`` are not ``[K1, B]``.  Caches of earlier formats are
rejected, not converted.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import zipfile
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib import format as npy_format

from ..core import Document
from ..errors import DuplicateDocId, EmptyCorpus

K1 = 1.2  # term-frequency saturation
B = 0.75  # document-length normalization

_TOKEN_RE = re.compile(r"[^\W_]+")  # Unicode alphanumeric runs
# each byte -> itself lowercased if an ASCII letter or digit, else a space
_ASCII_FOLD = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32
                    for b in bytes(range(256)).lower())
_FIELDS = 3  # id, title, body: the doc_ends (and doc_offsets) per document
# postings (or keys) per temporary in the build and the load checks.  Small
# on purpose: freed temporaries of several MB can stay resident in glibc's
# heap, and on a 100k-document corpus chunks of 2**20 peaked 19 MB higher
# than chunks of 2**16.
_CHUNK = 1 << 16
# documents whose bounds the load's document check holds as Python ints at
# once: a few hundred KB, where the whole list took 12 MB at 100k documents
_DOC_BLOCK = 1 << 12
# retrieve's score floor is the k-th best of every _SAMPLE_STRIDE-th
# document, and never below _MIN_SCORE, so ``scores >= floor`` implies > 0
_SAMPLE_STRIDE = 64
_MIN_SCORE = np.nextafter(0.0, 1.0)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs.

    ASCII text goes through the byte table ``_ASCII_FOLD`` and ``split``,
    which yields the regex's tokens: in ASCII, ``[^\\W_]+`` matches exactly
    ``[A-Za-z0-9]+``.  Other text goes through the regex.
    """
    if text.isascii():  # O(1): CPython keeps the flag on the string
        return text.encode().translate(_ASCII_FOLD).decode().split()
    return _TOKEN_RE.findall(text.lower())


def _doc_text(doc: Document) -> str:
    return f"{doc.title} {doc.body}" if doc.title else doc.body


def _check_documents(doc_text: np.ndarray, doc_offsets: np.ndarray) -> None:
    """Decode every field once; raise ``ValueError`` unless the blob holds
    one or more documents with UTF-8 fields, a non-blank body and ids
    ascending without repeats."""
    if doc_offsets.size < _FIELDS + 1 or (doc_offsets.size - 1) % _FIELDS:
        raise ValueError("an index needs at least one document, with "
                         f"{_FIELDS} offsets each")
    if doc_offsets[0] != 0 or doc_offsets[-1] != doc_text.size:
        raise ValueError("document offsets must run from 0 to the text size")
    if not (doc_offsets[1:] >= doc_offsets[:-1]).all():
        raise ValueError("document offsets must ascend")
    text = memoryview(doc_text)
    previous = None
    # a strict decode of each field also rejects a cut inside a character.
    # The bounds become Python ints one block of documents at a time, each
    # block with the next one's first bound; ``previous`` spans the blocks.
    for lo, hi in _chunks(doc_offsets.size // _FIELDS, _DOC_BLOCK):
        bounds = doc_offsets[lo * _FIELDS:hi * _FIELDS + 1].tolist()
        for d in range(0, len(bounds) - 1, _FIELDS):
            start, title, body, end = bounds[d:d + _FIELDS + 1]
            doc_id = str(text[start:title], "utf-8")
            str(text[title:body], "utf-8")
            if not str(text[body:end], "utf-8").strip():
                raise ValueError(f"document {doc_id!r} has a blank body")
            if previous is not None and previous >= doc_id:
                raise ValueError("document ids must be unique and sorted")
            previous = doc_id


def _check_postings(n_docs: int, n_terms: int, offsets: np.ndarray,
                    doc_idx: np.ndarray, tfs: np.ndarray,
                    doc_lengths: np.ndarray) -> None:
    """Raise ``ValueError`` unless the arrays form a consistent CSR index."""
    if (offsets.shape != (n_terms + 1,) or offsets[0] != 0
            or offsets[-1] != doc_idx.size):
        raise ValueError("term offsets must run from 0 to the posting count")
    if not (np.diff(offsets) > 0).all():
        raise ValueError("term offsets must be strictly increasing")
    if tfs.shape != doc_idx.shape or tfs.min(initial=1) < 1:
        raise ValueError("every posting needs a term frequency >= 1")
    if doc_idx.size and not (doc_idx.min() >= 0 and doc_idx.max() < n_docs):
        raise ValueError("posting document index out of range")
    # each chunk compares its postings with their successors, the next
    # chunk's first one included; a new term may restart at any document
    for start, stop in _chunks(doc_idx.size - 1):
        ascends = doc_idx[start + 1:stop + 1] > doc_idx[start:stop]
        first, last = np.searchsorted(offsets, (start + 1, stop + 1))
        ascends[offsets[first:last] - 1 - start] = True
        if not ascends.all():
            raise ValueError("document indices must ascend within each term")
    if (doc_lengths.shape != (n_docs,) or not np.array_equal(
            _summed_tfs(n_docs, doc_idx, tfs), doc_lengths)):
        raise ValueError("document lengths must equal their summed term frequencies")


def _summed_tfs(n_docs: int, doc_idx: np.ndarray,
                tfs: np.ndarray) -> np.ndarray:
    """Each document's summed term frequencies, as ``float64``: one
    ``bincount`` per chunk, added up.  The sums are integers, so they are
    exact in any order.  A chunk's ``bincount`` costs ``n_docs``, so chunks
    are at least that long and the whole sum stays linear."""
    sums = np.zeros(n_docs)
    for start, stop in _chunks(doc_idx.size, max(_CHUNK, n_docs)):
        sums += np.bincount(doc_idx[start:stop], weights=tfs[start:stop],
                            minlength=n_docs)
    return sums


def _chunks(n: int, size: int = 0) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of consecutive chunks of ``size`` (by default
    ``_CHUNK``) covering ``range(n)``."""
    size = size or _CHUNK
    return ((start, min(start + size, n)) for start in range(0, n, size))


class CorpusIndex:
    """CSR inverted index; concurrent retrieval is safe.

    The constructor trusts its arrays and only derives idf and length
    normalization from them: :func:`build_index` makes them consistent by
    construction, and :func:`load_index` checks a cache's arrays before it
    calls this.  The arrays are never changed; the only state that changes
    is the memo of each queried term's contributions, which
    :meth:`contributions` fills on a term's first use.
    """

    def __init__(self, doc_text: np.ndarray, doc_starts: np.ndarray,
                 doc_ends: np.ndarray, terms: Sequence[str],
                 offsets: np.ndarray, doc_idx: np.ndarray, tfs: np.ndarray,
                 doc_lengths: np.ndarray):
        self.doc_text = doc_text
        self.doc_starts = doc_starts
        self.doc_ends = doc_ends
        self.terms: tuple[str, ...] = tuple(terms)
        self._rows = {term: row for row, term in enumerate(self.terms)}
        self.offsets = offsets
        self.doc_idx = doc_idx
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.avg_doc_length = float(doc_lengths.mean())
        # k1*(1 - b + b*len/avg) precomputed once; scoring only adds tf.
        # A corpus with no tokens at all has no postings either, so the
        # normalization divisor only needs to be finite.
        divisor = self.avg_doc_length if self.avg_doc_length > 0 else 1.0
        self._denom = K1 * (1.0 - B + B * doc_lengths / divisor)
        n_docs = len(doc_starts)
        # math.log once per distinct df: many terms share a df, and numpy's
        # log may differ from math.log in the last bit
        dfs, term_df = np.unique(np.diff(offsets), return_inverse=True)
        self.idf = np.array(
            [math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
             for df in dfs.tolist()], dtype=np.float64)[term_df]
        self._contributions: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.doc_starts)

    def document(self, i: int, rank: int) -> Document:
        """Document ``i`` in id order, decoded from the blob, at ``rank``."""
        start = int(self.doc_starts[i])
        title, body, end = self.doc_ends[i].tolist()
        text = memoryview(self.doc_text)
        return Document(str(text[start:title], "utf-8"),
                        str(text[title:body], "utf-8"),
                        str(text[body:end], "utf-8"), rank)

    def contributions(self, row: int, qtf: int = 1) -> np.ndarray:
        """The BM25 contribution of each posting of row ``row`` to a query
        that holds its term ``qtf`` times: ``idf * qtf * tf * (K1 + 1) /
        (denom + tf)``, in that order, so it rounds as the per-term
        expression does.  Only the ``qtf`` 1 arrays are kept, computed on
        the row's first use; threads that race on one row compute identical
        arrays, so either may be kept."""
        weights = self._contributions.get(row) if qtf == 1 else None
        if weights is None:
            span = slice(self.offsets[row], self.offsets[row + 1])
            tfs = self.tfs[span]
            weights = self.idf[row] * qtf * tfs
            weights *= K1 + 1.0
            weights /= self._denom[self.doc_idx[span]] + tfs
            if qtf == 1:
                self._contributions[row] = weights
        return weights

    def scores(self, query: str) -> np.ndarray:
        """BM25 score of every document for ``query``: 0 for no overlap, so
        all zeros for a query with no term in the vocabulary, or none."""
        rows, weights = [], []
        for term, qtf in Counter(tokenize(query)).items():
            row = self._rows.get(term)
            if row is None:
                continue
            rows.append(self.doc_idx[self.offsets[row]:self.offsets[row + 1]])
            weights.append(self.contributions(row, qtf))
        n_docs = len(self)
        if not rows:
            return np.zeros(n_docs, dtype=np.float64)
        # bincount adds weights in input order, so each document's score
        # sums its terms in query order, as a per-term scatter-add would
        return np.bincount(np.concatenate(rows), weights=np.concatenate(weights),
                           minlength=n_docs)


def build_index(corpus: Iterable[Document]) -> CorpusIndex:
    """Index a corpus; ids must be unique and the corpus non-empty.

    ``corpus`` is read once, in order, so it may be a generator such as
    :func:`load_corpus`: each document is encoded and tokenized as it
    arrives and is not kept, and a repeated id raises ``DuplicateDocId``
    at its first repeat, and one stored without its body raises
    ``InvalidRecord``.  The postings, the rankings and the saved cache
    are the same for any input order; only the blob keeps the input order.
    """
    # term ids in first-seen input order, held as C integers wide enough to
    # be overwritten by their (term, doc) keys; the fields of every
    # document in one buffer
    vocabulary: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    token_ids = array("q")
    lengths = array("q")
    text = bytearray()
    field_ends = array("q")
    positions: dict[str, int] = {}  # id -> input position
    for doc in corpus:
        doc.require_body()
        if doc.id in positions:
            raise DuplicateDocId(doc.id)
        positions[doc.id] = len(positions)
        for field in (doc.id, doc.title, doc.body):
            text += field.encode("utf-8")
            field_ends.append(len(text))
        tokens = tokenize(_doc_text(doc))
        lengths.append(len(tokens))
        token_ids.extend(map(vocabulary.__getitem__, tokens))
    if not positions:
        raise EmptyCorpus("cannot index an empty corpus")

    # numbering by id keeps scoring and tie-breaks permutation-invariant:
    # rank[d] is input document d's place in id order, order its inverse
    order = np.fromiter(map(positions.__getitem__, sorted(positions)),
                        dtype=np.intp, count=len(positions))
    del positions
    n_docs = order.size
    rank = np.empty(n_docs, dtype=np.int32)
    rank[order] = np.arange(n_docs, dtype=np.int32)
    # the blob stays in input order; only its bounds are put in id order
    ends = np.frombuffer(field_ends, dtype=np.int64).reshape(n_docs, _FIELDS)
    starts = np.zeros(n_docs, dtype=np.int64)
    starts[1:] = ends[:-1, -1]
    doc_starts, doc_ends = starts[order], ends[order]
    del starts, ends, field_ends
    doc_lengths = np.frombuffer(lengths, dtype=np.int64)

    # terms numbered in sorted order, which no input order can change
    in_order = list(vocabulary)
    by_term = sorted(range(len(in_order)), key=in_order.__getitem__)
    terms = [in_order[t] for t in by_term]
    del vocabulary, in_order
    term_keys = np.empty(len(terms), dtype=np.int64)
    term_keys[by_term] = np.arange(len(terms)) * n_docs

    # each chunk of token ids is overwritten with its (term, doc) keys: the
    # input documents first to last that hold the chunk's tokens repeat
    # their rank once per token in the chunk.  One in-place sort then
    # yields term-major postings with ascending documents, each run of
    # equal keys one posting
    keys = np.frombuffer(token_ids, dtype=np.int64)
    token_ends = np.cumsum(doc_lengths)
    token_starts = token_ends - doc_lengths
    for start, stop in _chunks(keys.size):
        first, last = np.searchsorted(token_ends, (start, stop - 1),
                                      side="right").tolist()
        in_chunk = (np.minimum(token_ends[first:last + 1], stop)
                    - np.maximum(token_starts[first:last + 1], start))
        np.add(term_keys[keys[start:stop]],
               np.repeat(rank[first:last + 1], in_chunk), out=keys[start:stop])
    del token_ends, token_starts
    keys.sort()
    offsets, tfs = _postings(keys, n_docs, len(terms))
    # doc_idx is left at the front of the buffer, which shrinks to it once
    # no view of it remains
    del keys
    del token_ids[(tfs.size + 1) // 2:]
    doc_idx = np.frombuffer(token_ids, dtype=np.int32, count=tfs.size)
    return CorpusIndex(np.frombuffer(text, dtype=np.uint8), doc_starts,
                       doc_ends, terms, offsets, doc_idx, tfs,
                       doc_lengths[order].astype(np.float64))


def _heads(values: np.ndarray, before: int) -> np.ndarray:
    """The positions in ``values`` where a run of equal values starts,
    ``before`` being the value that precedes ``values[0]``."""
    head = np.empty(values.size, dtype=bool)
    head[:1] = values[:1] != before
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return np.flatnonzero(head)


def _postings(keys: np.ndarray, n_docs: int,
              n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """``offsets`` and ``tfs`` of sorted ``term * n_docs + doc`` keys, each
    run of equal keys one posting, every term present; the postings'
    ``int32`` documents are left over the front of ``keys``.

    The keys are read chunk by chunk, and each chunk's postings are written
    over the front of ``keys`` as ``doc | run_length << 32``; a chunk holds
    at least as many keys as runs, so the write position never passes the
    read position.  Then, chunk by chunk, the run lengths are read out into
    ``tfs`` and the documents packed as ``int32`` over the front: ``int32``
    position ``i`` overlaps posting ``i // 2``, which has been read by
    then.  No temporary is larger than a chunk."""
    offsets = np.empty(n_terms + 1, dtype=np.int64)
    at, last_key, last_term = 0, -1, -1
    for start, stop in _chunks(keys.size):
        chunk = keys[start:stop]
        heads = _heads(chunk, last_key)
        term, doc = np.divmod(chunk[heads], n_docs)
        new_terms = _heads(term, last_term)
        offsets[term[new_terms]] = at + new_terms
        last_key, last_term = chunk[-1], term[-1] if term.size else last_term
        if at:  # the keys before the first head extend the last run
            keys[at - 1] += (heads[0] if heads.size else chunk.size) << 32
        keys[at:at + heads.size] = np.diff(heads, append=chunk.size) << 32 | doc
        at += heads.size
    offsets[-1] = n_postings = at
    postings = keys[:n_postings]
    tfs = np.empty(n_postings, dtype=np.min_scalar_type(max(
        (int((postings[start:stop] >> 32).max())
         for start, stop in _chunks(n_postings)), default=1)))
    doc_idx = keys.view(np.int32)
    for start, stop in _chunks(n_postings):
        tfs[start:stop] = postings[start:stop] >> 32
        doc_idx[start:stop] = postings[start:stop] & 0xFFFFFFFF
    return offsets, tfs


def retrieve(index: CorpusIndex, query: str, top_k: int = 10) -> list[Document]:
    """Top ``top_k`` documents by descending score, ranks set from 1.

    Zero-score documents are excluded, so a query that matches no
    document, or that has no term at all, yields ``[]``; ties break by
    ascending doc id.

    Selection first takes a floor: the ``top_k``-th best score among every
    ``_SAMPLE_STRIDE``-th document, raised to the smallest positive float.
    A sample's k-th best never exceeds the whole vector's, so every
    document at or above the true cut, ties included, scores at least the
    floor, and only those are partitioned and sorted.  When the sample
    holds fewer than ``top_k`` documents, or fewer positive scores, the
    floor is the smallest positive float and every scoring document is a
    candidate.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    scores = index.scores(query)
    sample = scores[::_SAMPLE_STRIDE]
    floor = _MIN_SCORE
    if sample.size >= top_k:
        floor = max(floor, np.partition(sample, -top_k)[-top_k])
    candidates = np.flatnonzero(scores >= floor)
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
    return [index.document(i, rank)
            for rank, i in enumerate(ranked.tolist(), start=1)]


_CACHE_MAGIC = "hopground-bm25-csr-v3"
_CACHE_MEMBERS = frozenset({"magic", "params", "doc_text", "doc_offsets",
                            "terms", "offsets", "doc_idx", "tfs",
                            "doc_lengths"})
_TFS_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
_ZIP_MAGIC = b"PK\x03\x04"
_READ = 1 << 16  # bytes per read of a cache member's data
# RuntimeError covers zipfile's unsupported or encrypted members;
# MemoryError a member header that declares an array larger than memory
_MALFORMED = (zipfile.BadZipFile, EOFError, KeyError, MemoryError, OSError,
              RuntimeError, ValueError)


def _blob(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as an uncompressed ``.npz`` at exactly ``path``: the
    bytes ``np.savez`` writes of the id-order arrays, written from the
    index's own buffers.

    Two saves of one index write the same bytes: every member is stamped
    with the zip format's fixed 1980-01-01 default, not the clock.  The
    bytes go to ``<path>.tmp``, which then replaces ``path``; on any
    exception it is removed and ``path`` is left as it was."""
    doc_offsets, run_starts, run_ends = _id_order_layout(index.doc_starts,
                                                         index.doc_ends)
    members = {
        "magic": _blob(_CACHE_MAGIC),
        "params": np.array([K1, B], dtype=np.float64),
        "doc_text": index.doc_text,
        "doc_offsets": doc_offsets,
        "terms": _blob("\n".join(index.terms)),
        "offsets": index.offsets,
        "doc_idx": index.doc_idx,
        "tfs": index.tfs,
        "doc_lengths": index.doc_lengths,
    }
    partial = Path(f"{path}.tmp")
    try:
        with open(partial, "wb") as f, zipfile.ZipFile(f, "w") as archive:
            for name, array in members.items():
                # stored, not compressed, with zip64 extras, as np.savez writes
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    npy_format.write_array_header_1_0(
                        member, npy_format.header_data_from_array_1_0(array))
                    if name == "doc_text":
                        _write_runs(member, memoryview(array), run_starts,
                                    run_ends)
                    else:
                        member.write(array)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _id_order_layout(starts: np.ndarray, ends: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``doc_offsets`` of the documents bounded by ``starts`` and ``ends``
    laid out one after another in that order, and the starts and ends of
    the runs of the blob that make that layout: documents adjacent in both
    the blob and the layout share one run."""
    sizes = ends[:, -1] - starts
    doc_offsets = np.zeros(ends.size + 1, dtype=np.int64)
    np.add(ends, (np.cumsum(sizes) - sizes - starts)[:, None],
           out=doc_offsets[1:].reshape(ends.shape))
    breaks = np.flatnonzero(starts[1:] != ends[:-1, -1]) + 1
    return (doc_offsets, starts[np.append(0, breaks)],
            ends[np.append(breaks - 1, starts.size - 1), -1])


def _write_runs(out, text: memoryview, starts: np.ndarray,
                ends: np.ndarray) -> None:
    """Write ``text[starts[r]:ends[r]]`` for every run ``r`` in turn."""
    for lo, hi in _chunks(starts.size):
        for start, end in zip(starts[lo:hi].tolist(), ends[lo:hi].tolist()):
            out.write(text[start:end])


def _member(archive: zipfile.ZipFile, name: str, *dtypes: type) -> np.ndarray:
    """Member ``name``, which must be a 1-d array of one of ``dtypes``.

    The ``.npy`` header is checked before the array is allocated, and the
    data is read straight into the array, ``_READ`` bytes at a time:
    ``np.load`` reads a member in 256 KiB pieces and holds two at once,
    which on a small index is a large part of the load's peak."""
    with archive.open(f"{name}.npy") as member:
        version = npy_format.read_magic(member)
        if version != (1, 0):
            raise ValueError(f"member {name!r} has .npy format {version}, "
                             "expected (1, 0)")
        shape, _, dtype = npy_format.read_array_header_1_0(member)
        if dtype not in [np.dtype(t) for t in dtypes] or len(shape) != 1:
            expected = " or ".join(str(np.dtype(t)) for t in dtypes)
            raise ValueError(f"member {name!r} is {dtype}{shape}, "
                             f"expected a 1-d {expected} array")
        array_ = np.empty(shape, dtype=dtype)
        data = memoryview(array_).cast("B")
        for start, stop in _chunks(data.nbytes, _READ):
            piece = member.read(stop - start)
            if len(piece) != stop - start:
                raise ValueError(f"member {name!r} ends inside its data")
            data[start:stop] = piece
    return array_


def _text(archive: zipfile.ZipFile, name: str) -> str:
    return _member(archive, name, np.uint8).tobytes().decode("utf-8")


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
            with zipfile.ZipFile(f) as archive:
                if _text(archive, "magic") != _CACHE_MAGIC:
                    raise ValueError("unsupported cache version; rebuild it "
                                     "with `hopground index`")
                names = [n.removesuffix(".npy") for n in archive.namelist()]
                if set(names) != _CACHE_MEMBERS:
                    raise ValueError(f"members {sorted(names)}, expected "
                                     f"{sorted(_CACHE_MEMBERS)}")
                params = _member(archive, "params", np.float64).tolist()
                if params != [K1, B]:
                    raise ValueError(f"params {params}, expected [{K1}, {B}]; "
                                     "rebuild it with `hopground index`")
                text = _text(archive, "terms")
                terms = text.split("\n") if text else []
                doc_text = _member(archive, "doc_text", np.uint8)
                doc_offsets = _member(archive, "doc_offsets", np.int64)
                arrays = (_member(archive, "offsets", np.int64),
                          _member(archive, "doc_idx", np.int32),
                          _member(archive, "tfs", *_TFS_DTYPES),
                          _member(archive, "doc_lengths", np.float64))
                _check_documents(doc_text, doc_offsets)
                if len(set(terms)) != len(terms):
                    raise ValueError("duplicate term")
                doc_ends = doc_offsets[1:].reshape(-1, _FIELDS)
                _check_postings(len(doc_ends), len(terms), *arrays)
                return CorpusIndex(doc_text, doc_offsets[:-1:_FIELDS],
                                   doc_ends, terms, *arrays)
        except _MALFORMED as exc:
            raise ValueError(f"{path}: malformed index cache: {exc}") from exc
