"""Per-layer metrics computed from the spans of one traced pass."""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

DROP_REASONS = ("empty_evidence", "missing_revision", "misaligned",
                "llm_error")

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "bm25.build_s": "s", "bm25.save_s": "s", "bm25.load_s": "s",
    "bm25.cache_bytes": "bytes", "bm25.terms": "count",
    "bm25.score_ms": "ms", "bm25.topk_ms": "ms",
    "bm25.candidates_per_query": "docs", "bm25.queries": "count",
    "external.call_ms": "ms", "external.calls": "count",
    "corpus.load_s": "s",
    "llm.calls": "count", "llm.call_ms_p50": "ms", "llm.call_ms_p95": "ms",
    "llm.service_ms": "ms", "llm.overhead_ms": "ms",
    "llm.inflight_max": "count",
    "deduction.calls": "count", "deduction.parse_errors": "count",
    "deduction.parse_ms": "ms",
    "grounding.windows_per_hop": "windows",
    "grounding.cited_hop_frac": "ratio",
    "grounding.cite_per_window": "ratio",
    "grounding.malformed_retries": "count", "grounding.ms_per_hop": "ms",
    "prompts.render_ms": "ms", "prompts.deduction_chars": "chars",
    "prompts.grounding_chars": "chars", "prompts.synthesis_chars": "chars",
    "pipeline.hops_per_q": "hops", "pipeline.self_ms_per_q": "ms",
    "pipeline.write_ms": "ms",
    "evaluation.eval_s": "s",
    "distill.example_ms": "ms", "distill.filter_ms": "ms",
    **{f"distill.drops.{r}": "count" for r in DROP_REASONS},
    "trace.qps_untraced": "1/s", "trace.qps_traced": "1/s",
    "trace.overhead_frac": "ratio",
}


def p95(values) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _max_overlap(spans) -> int:
    events = sorted([(s[3], 1) for s in spans] + [(s[4], -1) for s in spans])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(spans: list, *, service_ms: list | None,
                  inflight_max: int | None, qps_untraced: float,
                  qps_traced: float, cache_bytes: int = 0,
                  terms: int = 0) -> dict[str, float]:
    """``service_ms`` and ``inflight_max`` come from the loopback service;
    with the in-process model they are None, service time is zero and
    in-flight calls are counted from the client spans."""
    by_name: dict[str, list] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s[2]].append(s)
        child_time[s[1]] += s[4] - s[3]

    def count(name):
        return len(by_name[name])

    def durations_ms(name):
        return [1000 * (s[4] - s[3]) for s in by_name[name]]

    def total_s(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def self_ms(name):
        return _mean([1000 * (s[4] - s[3] - child_time[s[0]])
                      for s in by_name[name]])

    def values(name):
        return [s[7] for s in by_name[name] if s[7] is not None]

    llm_ms = durations_ms("llm.complete")
    service = _mean(service_ms or [])
    grounds = values("ground")
    cited = sum(1 for is_cited, _ in grounds if is_cited)
    windows = count("render.grounding")
    renders = [d for n in ("render.deduction", "render.grounding",
                           "render.synthesis") for d in durations_ms(n)]
    drops = Counter(values("synth.example"))
    return {
        "bm25.build_s": total_s("bm25.build"),
        "bm25.save_s": total_s("bm25.save"),
        "bm25.load_s": total_s("bm25.load"),
        "bm25.cache_bytes": cache_bytes,
        "bm25.terms": terms,
        "bm25.score_ms": _mean(durations_ms("bm25.scores")),
        "bm25.topk_ms": self_ms("bm25.retrieve"),
        "bm25.candidates_per_query": _mean(values("bm25.scores")),
        "bm25.queries": count("bm25.retrieve"),
        "external.call_ms": _mean(durations_ms("retriever.external")),
        "external.calls": count("retriever.external"),
        "corpus.load_s": total_s("corpus.load"),
        "llm.calls": len(llm_ms),
        "llm.call_ms_p50": statistics.median(llm_ms) if llm_ms else 0.0,
        "llm.call_ms_p95": p95(llm_ms) if llm_ms else 0.0,
        "llm.service_ms": service,
        "llm.overhead_ms": _mean(llm_ms) - service if llm_ms else 0.0,
        "llm.inflight_max": (inflight_max if inflight_max is not None
                             else _max_overlap(by_name["llm.complete"])),
        "deduction.calls": count("deduce"),
        "deduction.parse_errors": sum(1 for s in by_name["parse.deduction"]
                                      if s[6] is not None),
        "deduction.parse_ms": _mean(durations_ms("parse.deduction")),
        "grounding.windows_per_hop": _ratio(windows, len(grounds)),
        "grounding.cited_hop_frac": _ratio(cited, len(grounds)),
        "grounding.cite_per_window": _ratio(cited, windows),
        "grounding.malformed_retries": count("parse.grounding") - windows,
        "grounding.ms_per_hop": _mean(durations_ms("ground")),
        "prompts.render_ms": _mean(renders),
        "prompts.deduction_chars": _mean(values("render.deduction")),
        "prompts.grounding_chars": _mean(values("render.grounding")),
        "prompts.synthesis_chars": _mean(values("render.synthesis")),
        "pipeline.hops_per_q": _ratio(len(grounds), count("question")),
        "pipeline.self_ms_per_q": self_ms("question"),
        "pipeline.write_ms": 1000 * total_s("pipeline.write"),
        "evaluation.eval_s": total_s("eval"),
        "distill.example_ms": _mean(durations_ms("synth.example")),
        "distill.filter_ms": _mean(durations_ms("synth.filter")),
        **{f"distill.drops.{r}": drops.get(r, 0) for r in DROP_REASONS},
        "trace.qps_untraced": qps_untraced,
        "trace.qps_traced": qps_traced,
        "trace.overhead_frac": 1 - _ratio(qps_traced, qps_untraced),
    }
