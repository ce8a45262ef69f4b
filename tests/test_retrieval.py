import io
import json
import os
import pickle
import random
import re
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopground.core import Document
from hopground.errors import (DuplicateDocId, EmptyCorpus, EmptyQuery,
                              MalformedDataset, MalformedResponse,
                              TransportError)
from hopground.retrieval import (build_index, load_corpus, load_index,
                                 retrieve, retrieve_external, save_index,
                                 tokenize)
from hopground.retrieval import bm25

import oracles
from helpers import StubServer

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
    return load_corpus(fixtures_dir / "corpus20.jsonl")


@pytest.fixture(scope="module")
def index(corpus):
    return build_index(corpus)


class TestTokenize:
    def test_splits_on_non_alphanumeric_runs(self):
        assert tokenize("Hello, world! x2") == ["hello", "world", "x2"]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode_text(self):
        assert tokenize("Dvořák's œuvre") == ["dvořák", "s", "œuvre"]


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

    def test_postings_match_term_count_oracle(self, corpus, index):
        by_id = {doc.id: doc for doc in corpus}
        expected: dict[str, dict[str, int]] = {}
        for doc in corpus:
            text = f"{doc.title} {doc.body}" if doc.title else doc.body
            for term, count in oracles.term_counts(text).items():
                expected.setdefault(term, {})[doc.id] = count
        actual: dict[str, dict[str, int]] = {}
        for row, term in enumerate(index.terms):
            span = slice(index.offsets[row], index.offsets[row + 1])
            actual[term] = {index.doc_ids[i]: int(tf)
                            for i, tf in zip(index.doc_idx[span], index.tfs[span])}
        assert actual == expected
        assert by_id.keys() == set(index.doc_ids)

    def test_validates_parameters(self, corpus):
        with pytest.raises(ValueError):
            build_index(corpus, k1=0)
        with pytest.raises(ValueError):
            build_index(corpus, b=1.5)

    def test_tokenless_corpus_builds_and_retrieves_nothing(self):
        # bodies that tokenize to zero terms must not poison the index
        index = build_index([Document(id="a", title="", body="!!!"),
                             Document(id="b", title="", body="---")])
        assert retrieve(index, "anything", top_k=5) == []


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
            by_id = {doc_id: scores[i] for i, doc_id in enumerate(index.doc_ids)}
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
        with pytest.raises(EmptyQuery):
            retrieve(index, "!!! ---", top_k=5)

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
        index = build_index(docs)
        for top_k in range(1, len(docs) + 2):
            got = [d.id for d in retrieve(index, query, top_k)]
            assert got == oracles.bm25_rank(docs, query, top_k), top_k

    def test_repeated_query_terms_add_weight(self):
        docs = [Document(id="r", title="", body="river river bank"),
                Document(id="b", title="", body="bank bank river")]
        index = build_index(docs)
        single = index.scores("river bank")
        doubled = index.scores("river river bank")
        r = index.doc_ids.index("r")
        assert doubled[r] > single[r]


EDGE_CORPORA = {
    "tokenless": [Document(id="a", title="", body="!!!"),
                  Document(id="b", title="", body="---")],
    "one-document": [Document(id="only", title="",
                              body="the longest river in the world")],
    "non-ascii": [Document(id="dv", title="Dvořák",
                           body="Antonín Dvořák wrote a symphony"),
                  Document(id="wu", title="物理",
                           body="物理 Nobel Prize physics")],
}


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


def _documents(*rows):
    return _blob(json.dumps([list(row) for row in rows]))


# each mutation turns the cache of SMALL_CORPUS into a malformed one
SMALL_CORPUS = [Document(id="d1", title="", body="alpha beta"),
                Document(id="d2", title="", body="alpha gamma"),
                Document(id="d3", title="", body="beta beta delta")]
CACHE_MUTATIONS = {
    "missing member": lambda m: m.pop("tfs"),
    "wrong magic": lambda m: m.update(magic=_blob("hopground-bm25-cache-v1")),
    "blob not uint8": lambda m: m.update(terms=m["terms"].astype(np.int16)),
    "object array": lambda m: m.update(
        terms=np.array(["alpha", "beta", "gamma", "delta"], dtype=object)),
    "offsets int32": lambda m: m.update(offsets=m["offsets"].astype(np.int32)),
    "doc_idx int64": lambda m: m.update(doc_idx=m["doc_idx"].astype(np.int64)),
    "tfs float32": lambda m: m.update(tfs=m["tfs"].astype(np.float32)),
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
    "zero tf": lambda m: m.update(tfs=_with(m["tfs"], 0, 0.0)),
    "duplicate term": lambda m: m.update(terms=_blob("alpha\nbeta\ngamma\nbeta")),
    "unsorted doc ids": lambda m: m.update(documents=_documents(
        ("d2", "", "alpha gamma"), ("d1", "", "alpha beta"),
        ("d3", "", "beta beta delta"))),
    "duplicate doc ids": lambda m: m.update(documents=_documents(
        ("d1", "", "alpha beta"), ("d1", "", "alpha gamma"),
        ("d3", "", "beta beta delta"))),
    "no documents": lambda m: m.update(documents=_documents()),
    "documents not triples": lambda m: m.update(documents=_blob('{"d1": 1}')),
    "empty body": lambda m: m.update(documents=_documents(
        ("d1", "", "alpha beta"), ("d2", "", " "), ("d3", "", "beta"))),
    "documents not json": lambda m: m.update(documents=_blob("[[")),
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


def _load_outcome(path, data):
    path.write_bytes(data)
    try:
        load_index(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return "rejected"
    return "loaded"


class TestIndexCache:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, k1, b", [
        ("fixture", 1.2, 0.75), ("tokenless", 1.2, 0.75),
        ("one-document", 1.2, 0.75), ("non-ascii", 1.2, 0.75),
        ("fixture", 0.9, 0.4)])
    def test_save_then_load_preserves_retrieval(self, corpus, tmp_path,
                                                name, k1, b):
        index = build_index(EDGE_CORPORA.get(name, corpus), k1=k1, b=b)
        cache = tmp_path / "index.bin"
        save_index(index, cache)
        assert os.listdir(tmp_path) == ["index.bin"]
        reloaded = load_index(cache)
        assert (reloaded.k1, reloaded.b) == (k1, b)
        assert reloaded.documents == index.documents
        assert reloaded.terms == index.terms
        for query in [*QUERIES, "Dvořák 物理 symphony"]:
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
                if name == "tfs":  # claims 2**60 float64s, holds 6
                    header = re.sub(rb"'shape': \(\d+,\)",
                                    b"'shape': (1152921504606846976,)", header)
                archive.writestr(f"{name}.npy", header)
        with pytest.raises(ValueError, match="malformed index cache"):
            load_index(path)

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
        with pytest.raises(ValueError):
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
        valid = tmp_path / "valid.cache"
        save_index(build_index(SMALL_CORPUS), valid)
        data = bytearray(valid.read_bytes())
        for position, value in flips:
            data[position % len(data)] = value
        _load_outcome(tmp_path / "corrupted.cache", bytes(data))


class TestLoadCorpus:
    def test_reports_line_numbers(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "body": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedDataset) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "body": "x"}\n'
                         b'{"id": "b", "body": "caf\xe9"}\n')
        with pytest.raises(MalformedDataset) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_missing_body_is_malformed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "t"}\n', encoding="utf-8")
        with pytest.raises(MalformedDataset):
            load_corpus(path)


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

    def test_missing_results_key(self, stub):
        stub.queue(200, {"docs": []})
        with pytest.raises(MalformedResponse):
            retrieve_external(stub.url, "q", top_k=5)

    def test_truncates_to_top_k(self, stub):
        stub.queue(200, _results(15))
        docs = retrieve_external(stub.url, "q", top_k=10)
        assert len(docs) == 10

    def test_http_error(self, stub):
        stub.queue(502, {"error": "bad gateway"})
        with pytest.raises(TransportError):
            retrieve_external(stub.url, "q", top_k=5)
