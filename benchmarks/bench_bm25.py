#!/usr/bin/env python3
"""Benchmark the BM25 index: build, cache save/load, and query time.

Builds an index over a synthetic corpus, round-trips it through the cache
file, checks the reloaded index ranks every query identically, checks every
ranking against an untimed full sort of the positive scores (a mismatch
exits non-zero), and reports timings and the cache size.  Query time is
split into scoring (``CorpusIndex.scores``) and selection (the rest of
``retrieve``: top-k selection and the ranked copies), so the script
measures any version of the package through its public API alone.
``score_ms``, ``select_ms`` and ``query_ms`` time the first pass over the
query set, on a fresh index, so work an index defers to a term's first
query shows in them; ``warm_query_ms`` times a second pass over the same
queries.

Memory comes from one extra, untimed ``build_index`` and ``load_index``
each under ``tracemalloc``, which numpy reports its arrays to:
``build_peak_mb`` and ``load_peak_mb`` are the peak of what each call
allocated, ``index_mb`` is what the loaded index still holds, and
``queried_mb`` what a loaded index holds once it has answered the query
set.  The corpus is also written to a temporary JSONL file, and
``file_build_peak_mb`` is the peak of ``build_index(load_corpus(path))``,
the path the CLI takes: parsing included, with no document list held by
the caller.

    python benchmarks/bench_bm25.py --docs 20000 --queries 200 \
        --json benchmarks/BENCH_bm25.json --label change

``--json`` adds the run's record to the ``runs`` list of that file, in
place of an earlier record with the same label, docs, queries, top-k and
seed.
"""

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from hopground.core import Document
from hopground.retrieval import (build_index, load_corpus, load_index,
                                 retrieve, save_index)

WORD_STEMS = [
    "river", "festival", "capital", "mountain", "reef", "desert", "prize",
    "butterfly", "respiration", "journal", "documentary", "museum", "essay",
    "物理", "histoire", "carbon", "oxygen", "monarch", "city", "island",
]


def synthetic_corpus(n_docs: int, seed: int) -> list[Document]:
    rng = random.Random(seed)
    vocabulary = [f"{stem}{i}" for stem in WORD_STEMS for i in range(60)]
    docs = []
    for d in range(n_docs):
        length = rng.randint(20, 120)
        # Zipf-ish skew: low indices picked far more often
        words = [vocabulary[min(int(rng.expovariate(1 / 80)), len(vocabulary) - 1)]
                 for _ in range(length)]
        docs.append(Document(id=f"doc{d:06d}", title=f"Synthetic {d}",
                             body=" ".join(words)))
    return docs


def synthetic_queries(n_queries: int, seed: int) -> list[str]:
    rng = random.Random(seed + 1)
    vocabulary = [f"{stem}{i}" for stem in WORD_STEMS for i in range(30)]
    return [" ".join(rng.choices(vocabulary, k=rng.randint(2, 6)))
            for _ in range(n_queries)]


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _traced_mb(fn, *args):
    """``fn(*args)`` under tracemalloc: the MB it allocated at its peak and
    the MB its result still holds (MB = 2**20 bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20, held / 2**20


def _write_corpus(corpus, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus:
            f.write(json.dumps({"id": doc.id, "title": doc.title,
                                "body": doc.body}, ensure_ascii=False) + "\n")


def _query_times(index, queries, top_k):
    """Rankings plus total scoring and total ``retrieve`` seconds.

    Scoring is timed inside each timed ``retrieve`` call, by wrapping
    ``CorpusIndex.scores`` for the loop, so both totals come from the same
    calls and the scoring total never exceeds the query total.
    """
    cls = type(index)
    scores = cls.scores
    score_s = 0.0

    def timed_scores(self, query):
        nonlocal score_s
        result, elapsed = _timed(scores, self, query)
        score_s += elapsed
        return result

    rankings, query_s = [], 0.0
    cls.scores = timed_scores
    try:
        for q in queries:
            ranked, elapsed = _timed(retrieve, index, q, top_k)
            query_s += elapsed
            rankings.append([d.id for d in ranked])
    finally:
        cls.scores = scores
    return rankings, score_s, query_s


def _load_and_query(path, queries, top_k):
    """The index loaded from ``path`` after it has answered ``queries``."""
    index = load_index(path)
    for q in queries:
        retrieve(index, q, top_k)
    return index


def _sorted_rankings(index, queries, top_k):
    """Each query's top ``top_k`` ids from a full ``np.lexsort`` of its
    positive scores, by descending score and then ascending index: a
    reference for ``retrieve``'s selection that shares only scoring."""
    rankings = []
    for q in queries:
        scores = index.scores(q)
        positive = np.flatnonzero(scores > 0.0)
        order = positive[np.lexsort((positive, -scores[positive]))]
        rankings.append([index.document(i, rank).id for rank, i in
                         enumerate(order[:top_k].tolist(), start=1)])
    return rankings


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {"cpu": _cpu_model(), "cpus": os.cpu_count(),
            "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def write_record(path: str, record: dict,
                 key=("label", "docs", "queries", "top_k", "seed")) -> None:
    """Add ``record`` to the ``runs`` of the JSON file at ``path``, in place
    of an earlier record with the same values of ``key``."""
    try:
        with open(path, encoding="utf-8") as f:
            runs = json.load(f)["runs"]
    except FileNotFoundError:
        runs = []
    runs = [r for r in runs if [r[k] for k in key] != [record[k] for k in key]]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"runs": runs}, f, indent=2, ensure_ascii=False)
        f.write("\n")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=20000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--json", metavar="PATH",
                        help="add this run's record to a JSON file")
    parser.add_argument("--label", default="current",
                        help="name of the measured code, kept in the record")
    args = parser.parse_args(argv)

    print(f"building index over {args.docs} synthetic documents ...")
    corpus = synthetic_corpus(args.docs, args.seed)
    queries = synthetic_queries(args.queries, args.seed)
    index, build_s = _timed(build_index, corpus)
    print(f"  build  {build_s:8.3f} s   ({len(index.terms)} terms)")
    build_peak_mb, _ = _traced_mb(build_index, corpus)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.jsonl")
        _write_corpus(corpus, corpus_path)
        file_build_peak_mb, _ = _traced_mb(
            lambda path: build_index(load_corpus(path)), corpus_path)
        cache = os.path.join(tmp, "index.cache")
        _, save_s = _timed(save_index, index, cache)
        cache_bytes = os.path.getsize(cache)
        reloaded, load_s = _timed(load_index, cache)
        load_peak_mb, index_mb = _traced_mb(load_index, cache)
        _, queried_mb = _traced_mb(_load_and_query, cache, queries,
                                   args.top_k)
    print(f"  save   {save_s:8.3f} s   ({cache_bytes} bytes)")
    print(f"  load   {load_s:8.3f} s")
    print(f"  memory {build_peak_mb:8.1f} MB build peak, "
          f"{file_build_peak_mb:.1f} MB file build peak, "
          f"{load_peak_mb:.1f} MB load peak, {index_mb:.1f} MB index, "
          f"{queried_mb:.1f} MB queried index")

    rankings, score_s, query_s = _query_times(index, queries, args.top_k)
    _, _, warm_s = _query_times(index, queries, args.top_k)
    per_query = 1000.0 / len(queries)
    print(f"  score  {per_query * score_s:8.3f} ms/query")
    print(f"  select {per_query * (query_s - score_s):8.3f} ms/query")
    print(f"  query  {per_query * query_s:8.3f} ms/query")
    print(f"  warm   {per_query * warm_s:8.3f} ms/query")
    if rankings != [[d.id for d in retrieve(reloaded, q, args.top_k)]
                    for q in queries]:
        raise SystemExit("reloaded index ranks differently")
    if rankings != _sorted_rankings(index, queries, args.top_k):
        raise SystemExit("retrieve ranks differently from a full sort")

    record = {
        "label": args.label,
        "command": " ".join(["python", "benchmarks/bench_bm25.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": machine(),
        "docs": args.docs, "queries": args.queries, "top_k": args.top_k,
        "seed": args.seed, "terms": len(index.terms),
        "build_s": build_s, "save_s": save_s, "load_s": load_s,
        "cache_bytes": cache_bytes, "build_peak_mb": build_peak_mb,
        "file_build_peak_mb": file_build_peak_mb,
        "load_peak_mb": load_peak_mb, "index_mb": index_mb,
        "queried_mb": queried_mb,
        "score_ms": per_query * score_s,
        "select_ms": per_query * (query_s - score_s),
        "query_ms": per_query * query_s,
        "warm_query_ms": per_query * warm_s,
    }
    if args.json:
        write_record(args.json, record)
    return record


if __name__ == "__main__":
    main()
