"""Inputs and the brute-force BM25 oracle of the large-corpus workload.

The background corpus comes from ``benchmarks/bench_bm25.py``.  Each
executed hop plants one gold document and a number of decoys that carry the
hop's rare entity term more often, so the gold document's real BM25 rank is
1 + the number of decoys: ranks 1-10 put it in a grounding window, ten
decoys push it out of the top 10.  Every sub-question also carries two
common Zipf terms, so each query scores tens of thousands of documents and
background documents fill the top 10 below the planted ones.
The oracle recomputes every ranking from the generator's own token counts
and the generator refuses a plan whose gold ranks it does not confirm.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from plan import (TOP_K, Names, first_titles, make_questions)

BACKGROUND_DOCS = 100_000
PER_GROUP = 10      # 40 questions per block, each block with the full mix
BLOCKS = 10
K1, B = 1.2, 0.75
_TOKEN_RE = re.compile(r"[^\W_]+")


def _bench_bm25(root: Path):
    sys.path.insert(0, str(root / "benchmarks"))
    try:
        import bench_bm25
    finally:
        sys.path.pop(0)
    return bench_bm25


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def decoy_title(hop: dict, k: int) -> str:
    return f"{hop['subject']} note {k}"


def planted_documents(q: dict) -> list[dict]:
    docs = []
    for j, hop in enumerate(q["hops"]):
        if hop["deduce"] == "fail":
            break
        s = hop["subject"]
        docs.append({"id": f"zg-{q['id']}-h{j}", "title": f"{s} registry",
                     "body": f"{s} {hop['answer']} registry entry"})
        n_decoys = hop["gold_rank"] - 1 if hop["gold_rank"] else TOP_K
        docs.extend({"id": f"zd-{q['id']}-h{j}-{k}",
                     "title": decoy_title(hop, k),
                     "body": f"{s} {s} {s} {s} note"}
                    for k in range(n_decoys))
    return docs


class Oracle:
    """Okapi BM25 computed by brute force from the generated documents.

    Only the terms that occur in some query are counted, which is all that
    ranking those queries needs; every document's length is counted in full.
    """

    def __init__(self, docs: list[dict], query_terms: set[str]):
        docs = sorted(docs, key=lambda d: d["id"])
        self.ids = [d["id"] for d in docs]
        self.titles = [d["title"] for d in docs]
        lengths = np.empty(len(docs))
        hits: dict[str, tuple[list[int], list[int]]] = {}
        vocabulary: set[str] = set()
        for i, d in enumerate(docs):
            tokens = tokenize(f"{d['title']} {d['body']}" if d["title"]
                              else d["body"])
            lengths[i] = len(tokens)
            vocabulary.update(tokens)
            for term, tf in Counter(t for t in tokens
                                    if t in query_terms).items():
                idx, tfs = hits.setdefault(term, ([], []))
                idx.append(i)
                tfs.append(tf)
        self.n_terms = len(vocabulary)
        n = len(docs)
        self.norm = K1 * (1 - B + B * lengths / lengths.mean())
        self.postings = {t: (np.array(i), np.array(f, dtype=float))
                         for t, (i, f) in hits.items()}
        self.idf = {t: math.log((n - len(i) + 0.5) / (len(i) + 0.5) + 1)
                    for t, (i, _) in hits.items()}

    def top(self, query: str, k: int = TOP_K) -> tuple[list[int], np.ndarray]:
        """Indices of the top ``k`` documents (ties by ascending id) and the
        full score vector."""
        scores = np.zeros(len(self.ids))
        for term, qtf in Counter(tokenize(query)).items():
            if term in self.postings:
                idx, tf = self.postings[term]
                scores[idx] += self.idf[term] * qtf * tf * (K1 + 1) \
                    / (tf + self.norm[idx])
        candidates = np.flatnonzero(scores > 0)
        if candidates.size > k:   # keep every document tied with the k-th
            kth = np.partition(scores[candidates], -k)[-k]
            candidates = candidates[scores[candidates] >= kth]
        order = candidates[np.lexsort((candidates, -scores[candidates]))]
        return [int(i) for i in order[:k]], scores


def common_terms(bench_bm25, seed: int) -> list[str]:
    """Terms of ``synthetic_queries`` from the two most frequent stems of
    the Zipf vocabulary: each occurs in roughly a quarter to a half of the
    background documents."""
    stems = tuple(bench_bm25.WORD_STEMS[:2])
    words = {w for q in bench_bm25.synthetic_queries(400, seed)
             for w in q.split() if w.startswith(stems)}
    return sorted(words)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, ensure_ascii=False) + "\n")


def generate(root: Path, seed: int, work: Path) -> dict:
    """Write corpus, dataset and plan under ``work``; return the plan with
    each hop's oracle top-10 attached."""
    bench_bm25 = _bench_bm25(root)
    rng = random.Random(f"bigcorpus:{seed}")
    names = Names(rng)
    commons = common_terms(bench_bm25, seed)

    def suffix(r: random.Random) -> str:
        c1, c2 = r.sample(commons, 2)
        return f"among {c1} and {c2}"

    questions = []
    for block in range(BLOCKS):
        questions += make_questions(rng, names, PER_GROUP, f"bc{block}q",
                                    sub_question_suffix=suffix)
    planted = []
    for q in questions:
        first_titles(q, decoy_title)
        planted += planted_documents(q)

    background = [d.to_dict() for d in
                  bench_bm25.synthetic_corpus(BACKGROUND_DOCS, seed)]
    for d in background:
        del d["rank"]
    write_jsonl(work / "corpus.jsonl", background + planted)
    write_jsonl(work / "dataset.jsonl", (
        {"id": q["id"], "question": q["text"], "answers": [q["answer"]]}
        for q in questions))
    with open(work / "plan.json", "w", encoding="utf-8") as f:
        json.dump({"questions": questions}, f)

    hops = [hop for q in questions for hop in q["hops"]
            if hop["deduce"] != "fail"]
    terms = {t for hop in hops for t in tokenize(hop["sub_question"])}
    oracle = Oracle(background + planted, terms)
    del background
    candidates = []
    for hop in hops:
        top, scores = oracle.top(hop["sub_question"])
        titles = [oracle.titles[i] for i in top]
        rank = (titles.index(hop["gold_title"]) + 1
                if hop["gold_title"] in titles else None)
        if rank != hop["gold_rank"]:
            raise RuntimeError(
                f"plan error: gold rank {rank} != planned "
                f"{hop['gold_rank']} for {hop['sub_question']!r}")
        hop["oracle_top"] = [oracle.ids[i] for i in top]
        hop["oracle_scores"] = [float(scores[i]) for i in top]
        candidates.append(int(np.count_nonzero(scores)))
    return {"questions": questions, "n_terms": oracle.n_terms,
            "min_candidates": min(candidates), "commons": len(commons)}
