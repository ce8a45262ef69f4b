"""Independent brute-force oracles used to cross-check the implementations.

Everything here deliberately takes a different route from the library code:
character-loop tokenization, exhaustive per-document scoring, token-list
article filtering, dict-based multiset overlap, naive window enumeration.
"""

import math
import re
import string

from hopground.retrieval import bm25

ARTICLES = ("a", "an", "the")
PUNCT = set(string.punctuation)


def tokens_alnum(text: str) -> list[str]:
    """Lowercased alphanumeric runs via an explicit character loop."""
    out, current = [], []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def bm25_rank(docs, query: str, top_k: int) -> list[str]:
    """Exhaustively score every document with the Okapi formula, with the
    library's parameters ``bm25.K1`` and ``bm25.B``.

    ``docs`` are core Documents; ranking ties break by ascending id and
    zero-score documents are dropped.  Returns ranked doc ids.
    """
    texts = {d.id: tokens_alnum(f"{d.title} {d.body}" if d.title else d.body)
             for d in docs}
    n_docs = len(docs)
    avgdl = sum(len(t) for t in texts.values()) / n_docs
    k1, b = bm25.K1, bm25.B
    query_tokens = tokens_alnum(query)
    df = {term: sum(1 for t in texts.values() if term in t)
          for term in set(query_tokens)}

    scored = []
    for d in docs:
        doc_tokens = texts[d.id]
        dl = len(doc_tokens)
        score = 0.0
        for term in query_tokens:  # repeated query terms count per occurrence
            tf = doc_tokens.count(term)
            if tf == 0:
                continue
            idf = math.log((n_docs - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        scored.append((score, d.id))
    ranked = [doc_id for score, doc_id in
              sorted(scored, key=lambda pair: (-pair[0], pair[1])) if score > 0.0]
    return ranked[:top_k]


def term_counts(text: str) -> dict[str, int]:
    """Per-term frequency by explicit counting."""
    counts: dict[str, int] = {}
    for token in tokens_alnum(text):
        counts[token] = counts.get(token, 0) + 1
    return counts


def normalize_tokens(text: str) -> list[str]:
    """Normalization via character filtering and token-level article drop."""
    lowered = "".join(ch for ch in text.lower() if ch not in PUNCT)
    return [tok for tok in lowered.split() if tok not in ARTICLES]


def cover_em(prediction: str, gold_answers) -> int:
    pred = normalize_tokens(prediction)
    for gold in gold_answers:
        needle = normalize_tokens(gold)
        if not needle:  # a gold of no tokens matches nothing
            continue
        for i in range(len(pred) - len(needle) + 1):
            if pred[i:i + len(needle)] == needle:
                return 1
    return 0


def token_f1(prediction: str, gold_answers) -> float:
    """HotpotQA's ``f1_score`` over each gold, the best kept: on the
    normalized strings, a prediction or gold in ['yes', 'no', 'noanswer']
    that differs from the other scores 0, and a gold of no tokens shares
    none, so it scores 0 too."""
    pred = normalize_tokens(prediction)
    normalized_prediction = " ".join(pred)
    best = 0.0
    for gold in gold_answers:
        gold_tokens = normalize_tokens(gold)
        normalized_ground_truth = " ".join(gold_tokens)
        if normalized_prediction != normalized_ground_truth and (
                normalized_prediction in ["yes", "no", "noanswer"]
                or normalized_ground_truth in ["yes", "no", "noanswer"]):
            continue
        shared = 0
        remaining = list(gold_tokens)
        for token in pred:
            if token in remaining:
                remaining.remove(token)
                shared += 1
        if shared == 0:
            continue
        precision = shared / len(pred)
        recall = shared / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def batch_windows(n_docs: int, batch_size: int) -> list[tuple[int, int]]:
    """All (start, end) windows, 1-based inclusive, by direct enumeration."""
    windows = []
    start = 1
    while start <= n_docs:
        windows.append((start, min(start + batch_size - 1, n_docs)))
        start += batch_size
    return windows


def corpus_stats(examples) -> dict[str, float]:
    """Recount the three training-corpus statistics from scratch."""
    n = len(examples)
    instruction_total = 0
    target_total = 0
    for e in examples:
        instruction_total += len(e.instruction.split())
        target_total += len(e.target.split())
    return {
        "count": n,
        "avg_instruction_len": round(instruction_total / n, 2),
        "avg_target_len": round(target_total / n, 2),
    }


def _tag_span(text: str, tag: str) -> str | None:
    """Content of the first <tag>..</tag> pair, by a lazy regex."""
    match = re.search(f"<{tag}>(.*?)</{tag}>", text, re.DOTALL)
    return match.group(1) if match else None


def synthesis_drop_reason(target: str, gold_answer: str) -> str | None:
    """The distillation filter as standalone checks on the tag spans: the
    drop reason for a teacher output, or None when it is kept.

    Evidence: the first ref span, stripped, must be non-blank and not
    "empty" in any case.  Revision: the first revise span, stripped of
    whitespace and periods, must be non-blank and cover the gold answer.
    """
    ref = _tag_span(target, "ref")
    if ref is None or not ref.strip() or ref.strip().lower() == "empty":
        return "empty_evidence"
    revise = _tag_span(target, "revise")
    answer = None if revise is None else revise.strip(string.whitespace + ".")
    if not answer:
        return "missing_revision"
    if not cover_em(answer, [gold_answer]):
        return "misaligned"
    return None
