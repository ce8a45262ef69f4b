import gc
import io
import itertools
import math
import os
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc
import weakref
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from hopground.core import Document
from hopground.errors import (DuplicateDocId, EmptyCorpus, InvalidRecord,
                              MalformedDataset, MalformedResponse,
                              TransportError)
from hopground.retrieval import (build_index, load_corpus, load_index,
                                 retrieve, retrieve_external, save_index,
                                 tokenize)
from hopground.retrieval import bm25

import oracles
from helpers import (BAD_DOCUMENTS, OPTIONAL_TITLE_DOCUMENTS, StubServer,
                     write_jsonl)

QUERIES = [
    "longest river in the world",
    "annual film festival held in France",
    "capital city of Egypt near the Nile",
    "Nobel Prize physics",
    "carbon dioxide oxygen water",
]

# rankings frozen from the exhaustive-scoring oracle over corpus20.jsonl
EXPECTED_RANKINGS = {
    QUERIES[0]: ["d03", "d01", "d15", "d02", "d19", "d13", "d12", "d04", "d06", "d05"],
    QUERIES[1]: ["d05", "d04", "d14", "d06", "d01", "d03", "d12", "d15", "d13", "d19"],
    QUERIES[2]: ["d15", "d03", "d13", "d14", "d17", "d12", "d11", "d20", "d18", "d05"],
    QUERIES[3]: ["d12", "d10"],
    QUERIES[4]: ["d08", "d07", "d09", "d02"],
}


@pytest.fixture(scope="module")
def corpus(fixtures_dir):
    return list(load_corpus(fixtures_dir / "corpus20.jsonl"))


@pytest.fixture(scope="module")
def index(corpus):
    return build_index(corpus)


def _doc_ids(index):
    """Every document id of ``index``, in id order."""
    return [doc.id for doc in _all_documents(index)]


# characters that send text down the regex path, each a trap for a tokenizer
# that handles only ASCII: a lowercase that changes length (İ) or depends on
# context (Σ), letters without ASCII case (ß), combining marks, superscript
# and full-width digits, and Unicode spaces
NON_ASCII = ["ß", "İ", "Σ", "\u0301", "\u0308", "²", "０", "９",
             "\u00a0", "\u2028"]
ASCII_CHARS = st.characters(min_codepoint=0, max_codepoint=127)


class TestTokenize:
    def test_splits_on_non_alphanumeric_runs(self):
        assert tokenize("Hello, world! x2") == ["hello", "world", "x2"]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode_text(self):
        assert tokenize("Dvořák's œuvre") == ["dvořák", "s", "œuvre"]

    @pytest.mark.parametrize("text, tokens", [
        ("A_b-C\x00d\x7fE9", ["a", "b", "c", "d", "e9"]),
        ("\x1c\x1f", []),  # whitespace to str.split, not to the regex
        ("", []),
    ])
    def test_fixed_cases(self, text, tokens):
        assert tokenize(text) == tokens == oracles.tokens_alnum(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(ASCII_CHARS, max_size=60))
    def test_ascii_matches_oracle(self, text):
        assert text.isascii()
        assert tokenize(text) == oracles.tokens_alnum(text)

    # "_" is a word character to \w but separates tokens
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([*NON_ASCII, "_", "Ab", "z9"]),
                              ASCII_CHARS), max_size=30)
           .map("".join).filter(lambda text: not text.isascii()))
    def test_non_ascii_matches_oracle(self, text):
        assert tokenize(text) == oracles.tokens_alnum(text)


class TestBuildIndex:
    def test_avg_doc_length(self):
        index = build_index([Document(id="1", title="", body="a b"),
                             Document(id="2", title="", body="b c")])
        assert index.avg_doc_length == 2.0

    def test_duplicate_ids(self):
        docs = [Document(id="1", title="", body="a"),
                Document(id="1", title="", body="b")]
        with pytest.raises(DuplicateDocId):
            build_index(docs)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_index([])

    def test_document_without_its_body(self):
        docs = [Document(id="1", title="", body="a"),
                Document(id="2", title="none", body=None, rank=4)]
        with pytest.raises(InvalidRecord, match="body must be"):
            build_index(docs)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_postings_match_term_count_oracle(self, data):
        # ASCII-only and non-ASCII documents share terms, in any case, so
        # one term's postings come from both tokenizer paths
        ascii_words = ["river", "River", "NILE", "x2", "Paris", "a"]
        words = st.sampled_from([*ascii_words, "straße", "İstanbul", "ΣΟΦΙΑ",
                                 "cafe\u0301", "x²", "Ｘ２"])
        separators = st.sampled_from([" ", "-", "_", ", ", "\u00a0", "\u2028"])

        def draw_text(word_list):
            return data.draw(st.lists(st.tuples(word_list, separators),
                                      min_size=1, max_size=6).map(
                lambda pairs: "".join(w + sep for w, sep in pairs)))

        n_docs = data.draw(st.integers(2, 8), label="documents")
        corpus = []
        for d in range(n_docs):
            ascii_only = d % 2 == 0
            if ascii_only:
                title = data.draw(st.sampled_from(["", "River"]))
                body = draw_text(st.sampled_from(ascii_words))
            else:
                title = data.draw(st.sampled_from(["", "River", "Σ"]))
                body = draw_text(words) + "ß"
            corpus.append(Document(id=f"d{d:02d}", title=title, body=body))
        corpus = data.draw(st.permutations(corpus), label="corpus")
        index = build_index(corpus)

        expected: dict[str, dict[str, int]] = {}
        for doc in corpus:
            text = f"{doc.title} {doc.body}" if doc.title else doc.body
            for term, count in oracles.term_counts(text).items():
                expected.setdefault(term, {})[doc.id] = count
        actual: dict[str, dict[str, int]] = {}
        for row, term in enumerate(index.terms):
            span = slice(index.offsets[row], index.offsets[row + 1])
            actual[term] = {index.document(i, 1).id: int(tf)
                            for i, tf in zip(index.doc_idx[span], index.tfs[span])}
        assert actual == expected
        assert _doc_ids(index) == sorted(doc.id for doc in corpus)

    def test_validates_parameters(self, corpus):
        with pytest.raises(ValueError):
            build_index(corpus, k1=0)
        with pytest.raises(ValueError):
            build_index(corpus, b=1.5)

    def test_index_keeps_no_input_document(self):
        docs = [Document(id=f"d{i}", title="t", body=f"body {i}")
                for i in range(5)]
        refs = [weakref.ref(doc) for doc in docs]
        index = build_index(docs)
        del docs
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5
        assert retrieve(index, "body 3", top_k=1) == [
            Document(id="d3", title="t", body="body 3", rank=1)]

    @pytest.mark.parametrize("count, dtype", [(9, np.uint8), (255, np.uint8),
                                              (256, np.uint16)])
    def test_tfs_take_the_smallest_unsigned_type(self, tmp_path, count, dtype):
        docs = [Document(id="many", title="", body=" ".join(["oak"] * count)),
                Document(id="few", title="", body="oak elm")]
        index = build_index(docs)
        assert index.tfs.dtype == dtype
        assert int(index.tfs.max()) == count
        _assert_scores_match_reference(index, ["oak", "oak oak elm"],
                                       tmp_path / "index.bin")
        assert load_index(tmp_path / "index.bin").tfs.dtype == dtype

    def test_tokenless_corpus_builds_and_retrieves_nothing(self):
        # bodies that tokenize to zero terms must not poison the index
        index = build_index([Document(id="a", title="", body="!!!"),
                             Document(id="b", title="", body="---")])
        assert retrieve(index, "anything", top_k=5) == []


# a non-ASCII document and one with zero tokens among ASCII ones, in no
# particular id order
STREAMED = [
    Document(id="m", title="Dvořák", body="Antonín Dvořák wrote a symphony"),
    Document(id="b", title="", body="!!! ---"),
    Document(id="z", title="River", body="the longest river, the Nile"),
    Document(id="物", title="物理", body="物理 Nobel Prize physics river"),
    Document(id="a", title="Café", body="naïve café by the river"),
]


def _member_bytes(index, path):
    """The bytes of every member of ``index``'s saved cache: the whole file
    but for the zip headers' timestamps."""
    save_index(index, path)
    with zipfile.ZipFile(path) as z:
        return {name: z.read(name) for name in z.namelist()}


class TestStreamingBuild:
    @pytest.mark.parametrize("name", ["fixture", "streamed"])
    def test_cache_does_not_depend_on_input_form_or_order(self, corpus,
                                                          tmp_path, name):
        docs = {"fixture": corpus, "streamed": STREAMED}[name]
        shuffled = list(docs)
        random.Random(3).shuffle(shuffled)
        index = build_index(docs)
        expected = _member_bytes(index, tmp_path / "list.cache")
        for i, stream in enumerate([(d for d in docs), (d for d in shuffled),
                                    reversed(docs)]):
            assert _member_bytes(build_index(stream),
                                 tmp_path / f"{i}.cache") == expected
        # terms are numbered in sorted order
        assert index.terms == tuple(sorted(
            {t for d in docs for t in tokenize(f"{d.title} {d.body}")}))

    def test_reads_a_generator_once_in_order(self):
        read = []

        def stream():
            for doc in STREAMED:
                read.append(doc.id)
                yield doc

        index = build_index(stream())
        assert read == [d.id for d in STREAMED]
        assert _doc_ids(index) == sorted(read)

    def test_blob_stays_in_input_order(self):
        shuffled = list(STREAMED)
        random.Random(5).shuffle(shuffled)
        index = build_index(iter(shuffled))
        assert index.doc_text.tobytes() == "".join(
            d.id + d.title + d.body for d in shuffled).encode("utf-8")
        assert _all_documents(index) == _ranked(STREAMED)

    def test_duplicate_names_the_first_repeat_in_input_order(self):
        docs = [Document(id=i, title="", body="x") for i in "bcaacb"]
        with pytest.raises(DuplicateDocId) as err:
            build_index(iter(docs))
        assert err.value.doc_id == "a"

    def test_empty_generator(self):
        with pytest.raises(EmptyCorpus):
            build_index(d for d in [])

    @pytest.mark.parametrize("bad_line", [1, 3, 5])
    def test_malformed_line_raises_when_reached(self, tmp_path, bad_line):
        path = tmp_path / "corpus.jsonl"
        lines = [f'{{"id": "d{i}", "body": "river {i}"}}' for i in range(5)]
        lines[bad_line - 1] = '{"id": "bad"}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # the file closes without a ResourceWarning, which fails the test
        with pytest.raises(MalformedDataset) as err:
            build_index(load_corpus(path))
        assert err.value.line == bad_line
        gc.collect()

    def test_duplicate_before_a_malformed_line_is_a_duplicate(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "body": "x"}\n{"id": "a", "body": "y"}\n'
                        "not json\n", encoding="utf-8")
        with pytest.raises(DuplicateDocId):
            build_index(load_corpus(path))
        gc.collect()


class TestRetrieve:
    def test_no_term_overlap_returns_empty(self, index):
        assert retrieve(index, "zyzzyva quux", top_k=5) == []

    def test_single_doc_corpus(self):
        doc = Document(id="only", title="", body="the quick brown fox")
        index = build_index([doc])
        results = retrieve(index, "the quick brown fox", top_k=3)
        assert [d.id for d in results] == ["only"]
        assert results[0].rank == 1

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_exhaustive_oracle(self, corpus, index, query):
        got = [d.id for d in retrieve(index, query, top_k=10)]
        assert got == oracles.bm25_rank(corpus, query, 10)
        assert got == EXPECTED_RANKINGS[query]

    def test_zero_score_docs_never_appear(self, corpus, index):
        for query in QUERIES:
            returned = {d.id for d in retrieve(index, query, top_k=20)}
            query_terms = set(tokenize(query))
            for doc in corpus:
                text = f"{doc.title} {doc.body}"
                if not query_terms & set(tokenize(text)):
                    assert doc.id not in returned

    def test_ranks_are_positional(self, index):
        results = retrieve(index, "carbon dioxide oxygen water", top_k=10)
        assert [d.rank for d in results] == list(range(1, len(results) + 1))

    def test_scores_descend_with_rank(self, index):
        for query in QUERIES:
            scores = index.scores(query)
            by_id = dict(zip(_doc_ids(index), scores))
            results = retrieve(index, query, top_k=10)
            for first, second in zip(results, results[1:]):
                assert by_id[first.id] >= by_id[second.id]

    def test_tie_break_ascending_id(self):
        # identical documents score identically; ids decide the order
        docs = [Document(id=name, title="", body="same words here")
                for name in ("zeta", "alpha", "mid")]
        index = build_index(docs)
        got = [d.id for d in retrieve(index, "same words", top_k=3)]
        assert got == ["alpha", "mid", "zeta"]

    def test_top_k_truncates(self, index):
        assert len(retrieve(index, "the", top_k=3)) == 3

    def test_permutation_invariance(self, corpus):
        shuffled = list(corpus)
        random.Random(7).shuffle(shuffled)
        base = build_index(corpus)
        permuted = build_index(shuffled)
        for query in QUERIES:
            assert ([d.id for d in retrieve(base, query, 10)]
                    == [d.id for d in retrieve(permuted, query, 10)])

    def test_retrieval_is_deterministic(self, index):
        runs = [[d.id for d in retrieve(index, "river africa", 10)]
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_empty_query(self, index):
        # no term at all is the zero-overlap case: nothing scores
        assert retrieve(index, "!!! ---", top_k=5) == []
        assert np.array_equal(index.scores("!!! ---"), np.zeros(len(index)))

    def test_rejects_bad_top_k(self, index):
        with pytest.raises(ValueError):
            retrieve(index, "river", top_k=0)

    def test_ties_straddling_the_cut_break_by_id(self):
        # one clear winner, then five identical documents for two slots
        docs = [Document(id="best", title="", body="oak oak"),
                *(Document(id=f"tie-{c}", title="", body="oak birch")
                  for c in "ecadb"),
                Document(id="other", title="", body="elm fir")]
        index = build_index(docs)
        got = [d.id for d in retrieve(index, "oak", top_k=3)]
        assert got == ["best", "tie-a", "tie-b"]
        assert got == oracles.bm25_rank(docs, "oak", 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tied_cuts_match_oracle_at_every_top_k(self, data):
        _assert_oracle_at_every_top_k(*_draw_tied_corpus(data))

    def test_repeated_query_terms_add_weight(self):
        docs = [Document(id="r", title="", body="river river bank"),
                Document(id="b", title="", body="bank bank river")]
        index = build_index(docs)
        single = index.scores("river bank")
        doubled = index.scores("river river bank")
        r = _doc_ids(index).index("r")
        assert doubled[r] > single[r]


def _draw_tied_corpus(data):
    """Up to 12 documents sharing a few drawn bodies, and a query."""
    vocabulary = ["oak", "elm", "fir", "ash", "yew", "birch"][
        :data.draw(st.integers(4, 6), label="vocabulary size")]
    words = st.sampled_from(vocabulary)
    # few distinct bodies shared by many documents: the k-th score is
    # often tied, and ids are shuffled so tie order is not input order
    bodies = data.draw(st.lists(
        st.lists(words, min_size=1, max_size=5).map(" ".join),
        min_size=1, max_size=4), label="bodies")
    chosen = data.draw(st.lists(st.sampled_from(bodies), min_size=1,
                                max_size=12), label="documents")
    ids = data.draw(st.permutations([f"d{i:02d}"
                                     for i in range(len(chosen))]))
    docs = [Document(id=i, title="", body=body)
            for i, body in zip(ids, chosen)]
    # distinct query terms keep the oracle's summation order identical
    query = " ".join(data.draw(st.lists(words, min_size=1, max_size=3,
                                        unique=True), label="query"))
    return docs, query


def _assert_oracle_at_every_top_k(docs, query, top_ks=None):
    """``retrieve`` ranks ``docs`` as the oracle does at each of ``top_ks``
    (by default 1 to one more than the document count)."""
    index = build_index(docs)
    ranking = oracles.bm25_rank(docs, query, len(docs))
    for top_k in top_ks or range(1, len(docs) + 2):
        got = [d.id for d in retrieve(index, query, top_k)]
        assert got == ranking[:top_k], top_k


class TestScoreFloor:
    """``retrieve`` partitions only the documents scoring at least a floor,
    the ``top_k``-th best of every ``bm25._SAMPLE_STRIDE``-th document; no
    ranking may depend on the stride or on where the sample falls."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), st.integers(1, 3))
    def test_tied_cuts_match_oracle_at_every_stride(self, monkeypatch, data,
                                                    stride):
        # at most 12 documents: a small stride makes the sample reach
        # top_k, so the floor is a drawn score and often a tied one
        docs, query = _draw_tied_corpus(data)
        with monkeypatch.context() as patch:
            patch.setattr(bm25, "_SAMPLE_STRIDE", stride)
            _assert_oracle_at_every_top_k(docs, query)

    def test_scores_tied_at_the_floor_all_survive(self):
        # 1,200 documents over four bodies: each score is shared by about
        # 300 documents, so the sample's k-th best is a score tied far
        # beyond the cut, and documents scoring exactly the floor rank
        rng = random.Random(11)
        bodies = ["oak elm", "oak fir fir", "elm ash", "fir yew yew yew"]
        ids = [f"d{i:04d}" for i in range(1200)]
        rng.shuffle(ids)
        docs = [Document(id=i, title="", body=rng.choice(bodies))
                for i in ids]
        query = "oak fir"
        scores = build_index(docs).scores(query)
        sample = np.sort(scores[::bm25._SAMPLE_STRIDE])
        assert sample[-10] > 0  # the floor at top_k 10 is a positive score
        _assert_oracle_at_every_top_k(docs, query, (1, 2, 10, 20, 400, 1200))

    def test_too_few_sampled_scores_keep_every_positive_score(self):
        # 1,000 documents, 14 matching: 4 of them sampled (every 64th id),
        # 10 between samples, so the sample's 10th best is zero; at top_k
        # 16 the whole sample of 16 ranks, and still only 14 documents score
        matching = {64 * j for j in range(4)} | set(range(101, 200, 10))
        docs = [Document(id=f"d{i:04d}", title="",
                         body=f"oak {'elm ' * (i % 7)}" if i in matching
                         else "birch ash")
                for i in range(1000)]
        scores = build_index(docs).scores("oak elm")
        assert np.count_nonzero(scores[::bm25._SAMPLE_STRIDE]) == 4
        _assert_oracle_at_every_top_k(docs, "oak elm",
                                      (1, 4, 5, 10, 14, 16, 20))


EDGE_CORPORA = {
    "tokenless": [Document(id="a", title="", body="!!!"),
                  Document(id="b", title="", body="---")],
    "one-document": [Document(id="only", title="",
                              body="the longest river in the world")],
    "non-ascii": [Document(id="dv", title="Dvořák",
                           body="Antonín Dvořák wrote a symphony"),
                  Document(id="wu", title="物理",
                           body="物理 Nobel Prize physics")],
    # astral (4-byte) characters and combining marks, in every field
    "astral": [Document(id="🦀-crab", title="Cafe\u0301 🦀",
                        body="crab 🦀 e\u0301te\u0301 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 naïve"),
               Document(id="e\u0301", title="",
                        body="\U0001F600 smile 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 river")],
}


def _all_documents(index):
    """Every document of ``index`` in id order, ranked by that order."""
    return [index.document(i, i + 1) for i in range(len(index))]


def _ranked(docs):
    return [replace(d, rank=rank) for rank, d in
            enumerate(sorted(docs, key=lambda d: d.id), start=1)]


def _cache_members(index, tmp_path):
    """The arrays of a saved cache, as a name -> array dict."""
    path = tmp_path / "valid.cache"
    save_index(index, path)
    with np.load(path, allow_pickle=False) as npz:
        return dict(npz)


def _blob(text):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _with(array, position, value):
    changed = array.copy()
    changed[position] = value
    return changed


def _doc_members(*rows):
    """``doc_text`` and ``doc_offsets`` members holding ``rows`` of (id,
    title, body) fields, each a str or raw bytes."""
    fields = [f.encode("utf-8") if isinstance(f, str) else f
              for row in rows for f in row]
    return {"doc_text": np.frombuffer(b"".join(fields), dtype=np.uint8),
            "doc_offsets": np.cumsum([0, *map(len, fields)], dtype=np.int64)}


# each mutation turns the cache of SMALL_CORPUS into a malformed one
SMALL_CORPUS = [Document(id="d1", title="", body="alpha beta"),
                Document(id="d2", title="", body="alpha gamma"),
                Document(id="d3", title="", body="beta beta delta")]
CACHE_MUTATIONS = {
    "missing member": lambda m: m.pop("tfs"),
    "stray extra member": lambda m: m.update(extra=np.zeros(1)),
    "wrong magic": lambda m: m.update(magic=_blob("hopground-bm25-cache-v1")),
    "blob not uint8": lambda m: m.update(terms=m["terms"].astype(np.int16)),
    "object array": lambda m: m.update(
        terms=np.array(["alpha", "beta", "gamma", "delta"], dtype=object)),
    "offsets int32": lambda m: m.update(offsets=m["offsets"].astype(np.int32)),
    "doc_idx int64": lambda m: m.update(doc_idx=m["doc_idx"].astype(np.int64)),
    "tfs signed": lambda m: m.update(tfs=m["tfs"].astype(np.int16)),
    "tfs float": lambda m: m.update(tfs=m["tfs"].astype(np.float64)),
    "lengths 2-d": lambda m: m.update(doc_lengths=m["doc_lengths"][None, :]),
    "lengths short": lambda m: m.update(doc_lengths=m["doc_lengths"][:-1]),
    "lengths disagree": lambda m: m.update(
        doc_lengths=_with(m["doc_lengths"], 0, 7.0)),
    "offsets start at 1": lambda m: m.update(offsets=_with(m["offsets"], 0, 1)),
    "offsets repeat": lambda m: m.update(
        offsets=_with(m["offsets"], 2, m["offsets"][1])),
    "offsets end early": lambda m: m.update(
        offsets=_with(m["offsets"], -1, m["offsets"][-1] - 1)),
    "one term too few": lambda m: m.update(terms=_blob("alpha\nbeta\ngamma")),
    "doc index negative": lambda m: m.update(doc_idx=_with(m["doc_idx"], 0, -1)),
    "doc index past end": lambda m: m.update(doc_idx=_with(m["doc_idx"], 0, 3)),
    "doc indices descend": lambda m: m.update(
        doc_idx=_with(m["doc_idx"], slice(0, 2), m["doc_idx"][1::-1])),
    # "alpha" takes the postings d1, d2, d1: at chunks of two postings its
    # descent runs from the last posting of a chunk to the next one's first
    "doc indices descend across a chunk edge": lambda m: m.update(
        offsets=_with(m["offsets"], 1, 3)),
    "zero tf": lambda m: m.update(tfs=_with(m["tfs"], 0, 0)),
    "duplicate term": lambda m: m.update(terms=_blob("alpha\nbeta\ngamma\nbeta")),
    "unsorted doc ids": lambda m: m.update(_doc_members(
        ("d2", "", "alpha gamma"), ("d1", "", "alpha beta"),
        ("d3", "", "beta beta delta"))),
    "duplicate doc ids": lambda m: m.update(_doc_members(
        ("d1", "", "alpha beta"), ("d1", "", "alpha gamma"),
        ("d3", "", "beta beta delta"))),
    "no documents": lambda m: m.update(_doc_members()),
    "doc offsets not triples": lambda m: m.update(
        doc_offsets=np.append(m["doc_offsets"], m["doc_offsets"][-1])),
    "empty body": lambda m: m.update(_doc_members(
        ("d1", "", "alpha beta"), ("d2", "", " "), ("d3", "", "beta"))),
    "doc offsets start at 1": lambda m: m.update(
        doc_offsets=_with(m["doc_offsets"], 0, 1)),
    "doc offsets descend": lambda m: m.update(
        doc_offsets=_with(m["doc_offsets"], 1, m["doc_offsets"][2] + 1)),
    "doc offsets end early": lambda m: m.update(
        doc_offsets=_with(m["doc_offsets"], -1, m["doc_offsets"][-1] - 1)),
    "doc offsets past the end": lambda m: m.update(
        doc_offsets=_with(m["doc_offsets"], -1, m["doc_offsets"][-1] + 1)),
    "id not utf-8": lambda m: m.update(_doc_members(
        ("d1", "", "alpha beta"), (b"d\xff", "", "alpha gamma"),
        ("d3", "", "beta beta delta"))),
    "title not utf-8": lambda m: m.update(_doc_members(
        ("d1", b"T\xfe", "alpha beta"), ("d2", "", "alpha gamma"),
        ("d3", "", "beta beta delta"))),
    "body not utf-8": lambda m: m.update(_doc_members(
        ("d1", "", "alpha beta"), ("d2", "", b"alpha gamma\xed\xa0\x80"),
        ("d3", "", "beta beta delta"))),
    # the blob is valid UTF-8, but the title/body cut falls inside "\u00e9"
    "split multibyte character": lambda m: m.update(_doc_members(
        ("d1", b"\xc3", b"\xa9 alpha beta"), ("d2", "", "alpha gamma"),
        ("d3", "", "beta beta delta"))),
    "doc text not uint8": lambda m: m.update(
        doc_text=m["doc_text"].astype(np.int16)),
    "doc offsets int32": lambda m: m.update(
        doc_offsets=m["doc_offsets"].astype(np.int32)),
    "terms not utf-8": lambda m: m.update(
        terms=np.frombuffer(b"\xff", dtype=np.uint8)),
    "k1 zero": lambda m: m.update(params=np.array([0.0, 0.75])),
    "k1 nan": lambda m: m.update(params=np.array([np.nan, 0.75])),
    "b above 1": lambda m: m.update(params=np.array([1.2, 1.5])),
    "three params": lambda m: m.update(params=np.array([1.2, 0.75, 0.0])),
}


class _Planted:
    """Pickles to a call that creates ``marker`` when unpickled."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


_NAMES = itertools.count()


def _fresh(path):
    """``path`` renamed to a name no earlier call gave.  A test that writes
    a file per example writes each to a new name, since overwriting a file
    costs tens of milliseconds on a file system mounted with ``discard``,
    and writing a new one well under one."""
    return path.with_name(f"{next(_NAMES)}-{path.name}")


def _load_outcome(path, data):
    path = _fresh(path)
    path.write_bytes(data)
    try:
        load_index(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return "rejected"
    return "loaded"


def _scatter_add_scores(index, query):
    """Reference scores: one scatter-add per distinct query term of
    idf * qtf * tf * (k1 + 1) / (tf + denom), in first-occurrence order,
    with idf and length normalization derived here from the CSR arrays."""
    n_docs = len(index)
    avg = float(index.doc_lengths.mean())
    denom = index.k1 * (1.0 - index.b + index.b * index.doc_lengths
                        / (avg if avg > 0 else 1.0))
    rows = {term: row for row, term in enumerate(index.terms)}
    scores = np.zeros(n_docs, dtype=np.float64)
    counts: dict[str, int] = {}
    for term in tokenize(query):
        counts[term] = counts.get(term, 0) + 1
    for term, qtf in counts.items():
        if term not in rows:
            continue
        row = rows[term]
        start, end = int(index.offsets[row]), int(index.offsets[row + 1])
        idf = math.log((n_docs - (end - start) + 0.5) / (end - start + 0.5) + 1.0)
        doc_idx, tfs = index.doc_idx[start:end], index.tfs[start:end]
        scores[doc_idx] += idf * qtf * tfs * (index.k1 + 1.0) / (tfs + denom[doc_idx])
    return scores


def _assert_scores_match_reference(index, queries, cache):
    save_index(index, cache)
    reloaded = load_index(cache)
    for query in queries:
        expected = _scatter_add_scores(index, query)
        assert np.array_equal(index.scores(query), expected), query
        assert np.array_equal(reloaded.scores(query), expected), query


class TestScores:
    """``scores`` sums precomputed per-posting contributions; it must equal
    the per-term scatter-add bit for bit, fresh and reloaded."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["fixture", *EDGE_CORPORA])
    def test_equal_to_scatter_add(self, corpus, tmp_path, name):
        index = build_index(EDGE_CORPORA.get(name, corpus))
        queries = [*QUERIES, "Dvořák 物理 symphony", "river river river world",
                   "zyzzyva quux", "the the nile zyzzyva"]
        _assert_scores_match_reference(index, queries, tmp_path / "index.bin")

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_equal_to_scatter_add_on_drawn_corpora(self, tmp_path, data):
        vocabulary = ["oak", "elm", "fir", "ash", "yew", "birch"]
        words = st.sampled_from(vocabulary)
        # few distinct bodies, some tokenless, shared by many documents
        bodies = data.draw(st.lists(
            st.one_of(st.just("!!! ---"),
                      st.lists(words, min_size=1, max_size=6).map(" ".join)),
            min_size=1, max_size=4), label="bodies")
        chosen = data.draw(st.lists(st.sampled_from(bodies), min_size=1,
                                    max_size=12), label="documents")
        docs = [Document(id=f"d{i:02d}", title="", body=body)
                for i, body in enumerate(chosen)]
        k1 = data.draw(st.sampled_from([1.2, 0.9, 2.0]), label="k1")
        b = data.draw(st.sampled_from([0.75, 0.4, 0.0, 1.0]), label="b")
        # terms repeated up to three times, unknown terms among them
        repeats = data.draw(st.lists(
            st.tuples(st.sampled_from([*vocabulary, "pine", "zzz"]),
                      st.integers(1, 3)), min_size=1, max_size=5),
            label="query terms")
        query = " ".join(data.draw(st.permutations(
            [term for term, qtf in repeats for _ in range(qtf)]), label="query"))
        _assert_scores_match_reference(build_index(docs, k1=k1, b=b),
                                       [query, "pine zzz pine"],
                                       _fresh(tmp_path / "index.bin"))


def _eager_contributions(index):
    """Every posting's contribution in one pass, derived here from the CSR
    arrays: ``idf * tf * (k1 + 1) / (denom + tf)``, in that order."""
    n_docs = len(index)
    dfs = np.diff(index.offsets)
    idf = np.array([math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
                    for df in dfs.tolist()])
    avg = float(index.doc_lengths.mean())
    denom = index.k1 * (1.0 - index.b + index.b * index.doc_lengths
                        / (avg if avg > 0 else 1.0))
    return (np.repeat(idf, dfs) * index.tfs * (index.k1 + 1.0)
            / (denom[index.doc_idx] + index.tfs))


class TestContributions:
    """Each row's contributions are computed on its first use and kept."""

    @pytest.mark.parametrize("name, k1, b", [
        ("fixture", 1.2, 0.75), ("fixture", 0.9, 0.4), ("fixture", 2.0, 0.0),
        ("chunked", 1.2, 1.0), ("non-ascii", 1.2, 0.75),
        ("one-document", 1.2, 0.75)])
    def test_every_row_equals_the_eager_oracle(self, corpus, tmp_path, name,
                                               k1, b):
        docs = {**EDGE_CORPORA, "chunked": CHUNKED}.get(name, corpus)
        index = build_index(docs, k1=k1, b=b)
        save_index(index, tmp_path / "index.cache")
        for candidate in (index, load_index(tmp_path / "index.cache")):
            oracle = _eager_contributions(candidate)
            offsets = candidate.offsets.tolist()
            for row in range(len(candidate.terms)):
                assert (candidate.contributions(row).tobytes()
                        == oracle[offsets[row]:offsets[row + 1]].tobytes())

    def test_only_queried_rows_are_kept(self, corpus, tmp_path):
        save_index(build_index(corpus), tmp_path / "index.cache")
        query = "longest river in the world zyzzyva"
        for index in (build_index(corpus), load_index(tmp_path / "index.cache")):
            assert index._contributions == {}
            index.scores(query)
            assert set(index._contributions) == {
                index.terms.index(term) for term in tokenize(query)
                if term in index.terms}

    def test_threads_racing_on_an_unseen_term_get_the_serial_scores(self):
        # every document holds every term, so each first use is a long one
        docs = [Document(id=f"d{d:04d}", title="",
                         body=" ".join(["oak"] * (1 + d % 5) + ["elm", "fir"]))
                for d in range(5000)]
        serial = build_index(docs)
        index = build_index(docs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for query in ("oak", "elm", "fir"):
                expected = serial.scores(query).tobytes()
                barrier = threading.Barrier(8, timeout=10)
                results = [b""] * 8

                def worker(i):
                    barrier.wait()
                    results[i] = index.scores(query).tobytes()

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)
        assert len(index._contributions) == 3


class TestIndexCache:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, k1, b", [
        ("fixture", 1.2, 0.75), ("tokenless", 1.2, 0.75),
        ("one-document", 1.2, 0.75), ("non-ascii", 1.2, 0.75),
        ("astral", 1.2, 0.75), ("fixture", 0.9, 0.4)])
    def test_save_then_load_preserves_retrieval(self, corpus, tmp_path,
                                                name, k1, b):
        docs = EDGE_CORPORA.get(name, corpus)
        index = build_index(docs, k1=k1, b=b)
        cache = tmp_path / "index.bin"
        save_index(index, cache)
        assert os.listdir(tmp_path) == ["index.bin"]
        reloaded = load_index(cache)
        assert (reloaded.k1, reloaded.b) == (k1, b)
        assert _all_documents(reloaded) == _all_documents(index) == _ranked(docs)
        assert reloaded.terms == index.terms
        for query in [*QUERIES, "Dvořák 物理 symphony", "🦀 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 smile"]:
            assert np.array_equal(index.scores(query), reloaded.scores(query))
            assert ([d.id for d in retrieve(index, query, 10)]
                    == [d.id for d in retrieve(reloaded, query, 10)])

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.bin"
        import pickle
        path.write_bytes(pickle.dumps({"magic": "nope"}))
        with pytest.raises(ValueError):
            load_index(path)

    @pytest.mark.parametrize("mutation", CACHE_MUTATIONS.values(),
                             ids=CACHE_MUTATIONS.keys())
    def test_rejects_malformed_cache(self, tmp_path, mutation):
        members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
        assert members["offsets"][1] == 2  # "alpha" has two postings
        mutation(members)
        path = tmp_path / "mutated.npz"
        np.savez(path, **members)
        with pytest.raises(ValueError) as err:
            load_index(path)
        assert str(path) in str(err.value)

    def test_rejects_array_larger_than_memory(self, tmp_path):
        members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
        path = tmp_path / "huge.cache"
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in members.items():
                npy = io.BytesIO()
                np.save(npy, array)
                header = npy.getvalue()
                if name == "tfs":  # claims 2**60 entries, holds 6
                    header = re.sub(rb"'shape': \(\d+,\)",
                                    b"'shape': (1152921504606846976,)", header)
                archive.writestr(f"{name}.npy", header)
        with pytest.raises(ValueError, match="malformed index cache"):
            load_index(path)

    @pytest.mark.parametrize("member", ["raw bytes", "npy format 2.0"])
    def test_rejects_a_member_that_is_not_npy_1_0(self, tmp_path, member):
        members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
        path = tmp_path / "odd-member.cache"
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in members.items():
                npy = io.BytesIO()
                version = (2, 0) if member == "npy format 2.0" else None
                npy_format.write_array(npy, array, version=version)
                data = npy.getvalue()
                if name == "tfs" and member == "raw bytes":
                    data = array.tobytes()
                archive.writestr(f"{name}.npy", data)
        with pytest.raises(ValueError, match="malformed index cache"):
            load_index(path)

    def test_v2_cache_asks_for_a_rebuild(self, tmp_path):
        members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
        for name in ("doc_text", "doc_offsets"):
            del members[name]
        members["magic"] = _blob("hopground-bm25-csr-v2")
        members["documents"] = _blob('[["d1", "", "alpha beta"]]')
        path = tmp_path / "v2.cache"
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError, match="rebuild it with `hopground index`"):
            load_index(path)

    def test_terms_in_any_row_order_load_and_rank_alike(self, corpus,
                                                        tmp_path):
        # a v3 cache may hold its term rows in any order: earlier builds
        # numbered terms by first appearance
        index = build_index(corpus)
        members = _cache_members(index, tmp_path)
        rows = list(reversed(range(len(index.terms))))
        spans = [slice(index.offsets[r], index.offsets[r + 1]) for r in rows]
        members["terms"] = _blob("\n".join(index.terms[r] for r in rows))
        members["offsets"] = np.cumsum(
            [0, *(s.stop - s.start for s in spans)], dtype=np.int64)
        members["doc_idx"] = np.concatenate([index.doc_idx[s] for s in spans])
        members["tfs"] = np.concatenate([index.tfs[s] for s in spans])
        path = tmp_path / "rows.cache"
        with open(path, "wb") as f:
            np.savez(f, **members)
        reloaded = load_index(path)
        assert reloaded.terms != index.terms
        assert sorted(reloaded.terms) == list(index.terms)
        for query in QUERIES:
            assert np.array_equal(reloaded.scores(query), index.scores(query))
            assert retrieve(reloaded, query, 10) == retrieve(index, query, 10)

    def test_never_unpickles(self, tmp_path):
        marker = tmp_path / "planted"
        payload = pickle.dumps(_Planted(marker))
        pickle.loads(payload)  # the payload is live ...
        assert marker.exists()
        marker.rmdir()

        old_cache = tmp_path / "v1.cache"
        old_cache.write_bytes(payload)
        with pytest.raises(ValueError, match="hopground index"):
            load_index(old_cache)
        members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
        members["documents"] = np.array([_Planted(marker)], dtype=object)
        zipped = tmp_path / "object.npz"
        np.savez(zipped, **members)
        with pytest.raises(ValueError, match="members"):
            load_index(zipped)
        assert not marker.exists()  # ... but loading never runs it

    def test_every_truncation_is_rejected(self, tmp_path):
        valid = tmp_path / "valid.cache"
        save_index(build_index(SMALL_CORPUS), valid)
        data = valid.read_bytes()
        path = tmp_path / "truncated.cache"
        assert _load_outcome(path, data) == "loaded"
        for size in range(len(data)):
            assert _load_outcome(path, data[:size]) == "rejected", size

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=600), st.booleans())
    def test_arbitrary_bytes_load_or_raise_value_error(self, tmp_path, data,
                                                       zip_prefix):
        if zip_prefix:
            data = b"PK\x03\x04" + data
        _load_outcome(tmp_path / "fuzzed.cache", data)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_corrupted_bytes_load_or_raise_value_error(self, tmp_path, flips):
        valid = _fresh(tmp_path / "valid.cache")
        save_index(build_index(SMALL_CORPUS), valid)
        data = bytearray(valid.read_bytes())
        for position, value in flips:
            data[position % len(data)] = value
        _load_outcome(tmp_path / "corrupted.cache", bytes(data))

    def test_saves_on_different_days_write_the_same_bytes(self, tmp_path,
                                                          monkeypatch):
        index = build_index(SMALL_CORPUS)
        saved = []
        for day in (1.7e9, 1.7e9 + 86400):
            monkeypatch.setattr(time, "time", lambda day=day: day)
            path = tmp_path / f"{day}.cache"
            save_index(index, path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


def _savez_bytes(index, docs, path):
    """What ``np.savez`` writes of ``index``'s cache members, with
    ``doc_text`` and ``doc_offsets`` laid out in id order from ``docs``."""
    rows = [(d.id, d.title, d.body) for d in sorted(docs, key=lambda d: d.id)]
    members = {"magic": _blob("hopground-bm25-csr-v3"),
               "params": np.array([index.k1, index.b]),
               **_doc_members(*rows),
               "terms": _blob("\n".join(index.terms)),
               "offsets": index.offsets, "doc_idx": index.doc_idx,
               "tfs": index.tfs, "doc_lengths": index.doc_lengths}
    with open(path, "wb") as f:
        np.savez(f, **members)
    return path.read_bytes()


class TestCacheWriter:
    """``save_index`` writes each member itself, ``doc_text`` as runs of an
    input-order blob; its bytes must be those of ``np.savez``."""

    @pytest.mark.parametrize("case", ["list", "shuffled stream", "reloaded"])
    def test_bytes_equal_np_savez(self, corpus, tmp_path, case):
        shuffled = list(STREAMED)
        random.Random(11).shuffle(shuffled)
        if case == "list":
            docs, index = corpus, build_index(corpus)
        elif case == "shuffled stream":
            docs, index = shuffled, build_index(d for d in shuffled)
        else:
            docs = [*shuffled, *corpus]
            save_index(build_index(docs), tmp_path / "first")
            index = load_index(tmp_path / "first")
        path = tmp_path / "index.cache"
        save_index(index, path)
        assert path.read_bytes() == _savez_bytes(index, docs,
                                                 tmp_path / "savez.npz")


# runs of equal (term, doc) keys that span several chunks of one or two
# keys: terms repeated within a document, and terms in many documents
CHUNKED = [*STREAMED,
           Document(id="r", title="Oak", body="oak oak oak oak oak elm elm"),
           Document(id="s", title="", body="elm oak river river river")]


def _contribution_bytes(index):
    """The bytes of every row's contributions, in row order."""
    return b"".join(index.contributions(row).tobytes()
                    for row in range(len(index.terms)))


def _index_bytes(index, path):
    """The bytes of every member of ``index``'s saved cache and of its
    contributions."""
    return {**_member_bytes(index, path),
            "contributions": _contribution_bytes(index)}


class TestChunks:
    """The build and the load checks make their per-posting temporaries one
    chunk of ``bm25._CHUNK`` at a time; no result may depend on where the
    chunks end."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_index_does_not_depend_on_the_chunk_size(self, corpus, tmp_path,
                                                     monkeypatch, chunk):
        docs = [*corpus, *CHUNKED]
        expected = _index_bytes(build_index(docs), tmp_path / "default.cache")
        monkeypatch.setattr(bm25, "_CHUNK", chunk)
        assert _index_bytes(build_index(docs),
                            tmp_path / "chunked.cache") == expected
        assert (_contribution_bytes(load_index(tmp_path / "chunked.cache"))
                == expected["contributions"])

    @pytest.mark.parametrize("chunk", [1, 2, 3, None])
    def test_long_runs_survive_the_postings_pass(self, tmp_path, monkeypatch,
                                                 chunk):
        # term frequencies past uint8 and uint16, packed into the high half
        # of a key and read back out into a uint32 tfs
        docs = [Document(id="a", title="", body="oak " * 70_000 + "elm"),
                Document(id="b", title="", body="elm " * 300 + "oak fir"),
                Document(id="c", title="", body="fir oak")]
        if chunk:
            monkeypatch.setattr(bm25, "_CHUNK", chunk)
        index = build_index(docs)
        assert index.terms == ("elm", "fir", "oak")
        assert index.offsets.tolist() == [0, 2, 4, 7]
        assert index.doc_idx.tolist() == [0, 1, 1, 2, 0, 1, 2]
        assert index.tfs.dtype == np.uint32
        assert index.tfs.tolist() == [1, 300, 1, 1, 70_000, 1, 1]
        save_index(index, tmp_path / "index.cache")
        reloaded = load_index(tmp_path / "index.cache")
        assert reloaded.tfs.tolist() == index.tfs.tolist()
        assert _contribution_bytes(reloaded) == _contribution_bytes(index)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.sampled_from(["oak", "elm", "fir", "-"]),
                             max_size=8).map(lambda words: " ".join(words)
                                             or "-"),
                    min_size=1, max_size=8),
           st.integers(1, 5))
    def test_drawn_corpora_do_not_depend_on_the_chunk_size(
            self, tmp_path, monkeypatch, bodies, chunk):
        # few words, so keys repeat within and across documents; "-" alone
        # makes a tokenless document
        docs = [Document(id=f"d{i}", title="", body=body)
                for i, body in enumerate(bodies)]
        expected = _index_bytes(build_index(docs),
                                _fresh(tmp_path / "default.cache"))
        chunked = _fresh(tmp_path / "chunked.cache")
        with monkeypatch.context() as patch:
            patch.setattr(bm25, "_CHUNK", chunk)
            assert _index_bytes(build_index(docs), chunked) == expected
            assert (_contribution_bytes(load_index(chunked))
                    == expected["contributions"])

    @pytest.mark.parametrize("mutation", CACHE_MUTATIONS.values(),
                             ids=CACHE_MUTATIONS.keys())
    def test_chunks_of_two_reject_every_malformed_cache_alike(
            self, tmp_path, monkeypatch, mutation):
        # the document check goes one document at a time with the second,
        # so ids are compared across every block edge
        messages = []
        for chunk, block in ((bm25._CHUNK, bm25._DOC_BLOCK), (2, 1)):
            monkeypatch.setattr(bm25, "_CHUNK", chunk)
            monkeypatch.setattr(bm25, "_DOC_BLOCK", block)
            members = _cache_members(build_index(SMALL_CORPUS), tmp_path)
            mutation(members)
            path = tmp_path / "mutated.npz"
            np.savez(path, **members)
            with pytest.raises(ValueError) as err:
                load_index(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_load_peak_stays_near_what_the_index_holds(self, tmp_path,
                                                       monkeypatch):
        # 2000 documents of 20-80 Zipf-like words: about 94k postings, so
        # a whole-array int32 temporary alone would add 18% to the peak
        monkeypatch.setattr(bm25, "_CHUNK", 1024)
        rng = np.random.default_rng(5)
        lengths = rng.integers(20, 80, 2000)
        words = np.minimum(rng.exponential(300, lengths.sum()), 2999)
        bodies = np.split(words.astype(int), np.cumsum(lengths)[:-1])
        docs = [Document(id=f"d{d:04d}", title="",
                         body=" ".join(f"w{w}" for w in body.tolist()))
                for d, body in enumerate(bodies)]
        path = tmp_path / "index.cache"
        save_index(build_index(docs), path)
        tracemalloc.start()
        try:
            index = load_index(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.doc_idx.size > 50 * bm25._CHUNK
        assert peak <= 1.15 * held


class TestLoadCorpus:
    @pytest.mark.parametrize("record", BAD_DOCUMENTS)
    def test_bad_document_reports_its_line(self, tmp_path, record):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "ok", "title": "", "body": "fine"}, record])
        with pytest.raises(MalformedDataset) as err:
            list(load_corpus(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("record, expected", OPTIONAL_TITLE_DOCUMENTS)
    def test_optional_title_and_numeric_id(self, tmp_path, record, expected):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record])
        assert list(load_corpus(path)) == [expected]

    def test_reports_line_numbers(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "body": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedDataset) as err:
            list(load_corpus(path))
        assert err.value.line == 2

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "body": "x"}\n'
                         b'{"id": "b", "body": "caf\xe9"}\n')
        with pytest.raises(MalformedDataset) as err:
            list(load_corpus(path))
        assert err.value.line == 2

    def test_missing_body_is_malformed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "t"}\n', encoding="utf-8")
        with pytest.raises(MalformedDataset):
            list(load_corpus(path))


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


def _results(n):
    return {"results": [{"id": f"r{i}", "title": f"T{i}", "body": f"body {i}",
                         "score": 1.0 / (i + 1)} for i in range(n)]}


class TestExternalRetriever:
    def test_passthrough_ordering(self, stub):
        stub.queue(200, _results(3))
        docs = retrieve_external(stub.url, "anything", top_k=10)
        assert [d.id for d in docs] == ["r0", "r1", "r2"]
        assert [d.rank for d in docs] == [1, 2, 3]
        assert stub.requests[0] == {"query": "anything", "top_k": 10}

    def test_invalid_json(self, stub):
        stub.queue(200, "this is not json")
        with pytest.raises(MalformedResponse):
            retrieve_external(stub.url, "q", top_k=5)

    def test_deeply_nested_reply(self, stub):
        stub.queue(200, "[" * 100_000)
        with pytest.raises(MalformedResponse, match="nested too deeply"):
            retrieve_external(stub.url, "q", top_k=5)

    def test_missing_results_key(self, stub):
        stub.queue(200, {"docs": []})
        with pytest.raises(MalformedResponse):
            retrieve_external(stub.url, "q", top_k=5)

    def test_rejects_top_k_below_one_before_any_request(self, stub):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            retrieve_external(stub.url, "q", top_k=0)
        assert stub.requests == []

    def test_truncates_to_top_k(self, stub):
        stub.queue(200, _results(15))
        docs = retrieve_external(stub.url, "q", top_k=10)
        assert len(docs) == 10

    def test_http_error(self, stub):
        stub.queue(502, {"error": "bad gateway"})
        with pytest.raises(TransportError):
            retrieve_external(stub.url, "q", top_k=5)

    def test_unavailable_then_recovers(self, stub):
        stub.queue(503, {"error": "down"})
        stub.queue(200, _results(2))
        docs = retrieve_external(stub.url, "q", top_k=5)
        assert [d.id for d in docs] == ["r0", "r1"]
        assert len(stub.requests) == 2

    def test_transport_error_after_bounded_retries(self, stub):
        for _ in range(3):
            stub.queue(503, {"error": "down"})
        with pytest.raises(TransportError):
            retrieve_external(stub.url, "q", top_k=5)
        assert len(stub.requests) == 3

    def test_non_retryable_status_fails_fast(self, stub):
        stub.queue(404, {"error": "no such endpoint"})
        with pytest.raises(TransportError):
            retrieve_external(stub.url, "q", top_k=5)
        assert len(stub.requests) == 1

    def test_one_connection_per_thread(self):
        stub = StubServer(keep_alive=True)
        try:
            stub.queue(200, _results(1))
            stub.queue(200, _results(1))
            retrieve_external(stub.url, "first", top_k=5)
            retrieve_external(stub.url, "second", top_k=5)
        finally:
            stub.close()
        assert len(stub.peers) == 2
        assert stub.peers[0] == stub.peers[1]

    @pytest.mark.parametrize("result", BAD_DOCUMENTS)
    def test_unusable_result_is_malformed(self, stub, result):
        stub.queue(200, {"results": [result]})
        with pytest.raises(MalformedResponse):
            retrieve_external(stub.url, "q", top_k=5)

    @pytest.mark.parametrize("result, expected", OPTIONAL_TITLE_DOCUMENTS)
    def test_optional_title_and_numeric_id(self, stub, result, expected):
        stub.queue(200, {"results": [result]})
        assert retrieve_external(stub.url, "q", top_k=5) == [
            replace(expected, rank=1)]


def test_unknown_attribute_of_the_package_raises_attribute_error():
    import hopground.retrieval
    with pytest.raises(AttributeError, match="no_such_name"):
        hopground.retrieval.no_such_name
