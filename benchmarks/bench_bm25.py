#!/usr/bin/env python3
"""Benchmark the BM25 index: build, cache save/load, and query time.

Builds an index over a synthetic corpus, round-trips it through the cache
file, checks the reloaded index ranks every query identically, and reports
timings and the cache size.

    python benchmarks/bench_bm25.py --docs 20000 --queries 200
"""

import argparse
import os
import random
import tempfile
import time

from hopground.core import Document
from hopground.retrieval import build_index, load_index, retrieve, save_index

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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=20000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    print(f"building index over {args.docs} synthetic documents ...")
    corpus = synthetic_corpus(args.docs, args.seed)
    index, build_s = _timed(build_index, corpus)
    print(f"  build  {build_s:8.3f} s   ({len(index.terms)} terms)")
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "index.cache")
        _, save_s = _timed(save_index, index, cache)
        cache_bytes = os.path.getsize(cache)
        reloaded, load_s = _timed(load_index, cache)
    print(f"  save   {save_s:8.3f} s   ({cache_bytes} bytes)")
    print(f"  load   {load_s:8.3f} s")

    queries = synthetic_queries(args.queries, args.seed)
    rankings, query_s = _timed(
        lambda: [[d.id for d in retrieve(index, q, args.top_k)] for q in queries])
    print(f"  query  {1000.0 * query_s / len(queries):8.3f} ms/query")
    if rankings != [[d.id for d in retrieve(reloaded, q, args.top_k)]
                    for q in queries]:
        raise SystemExit("reloaded index ranks differently")


if __name__ == "__main__":
    main()
