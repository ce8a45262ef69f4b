"""Spans around the program's layer boundaries, recorded from outside.

``install`` replaces module and class attributes of hopground with timing
wrappers; the program's code is unchanged.  Each span records its name,
start, end, parent span, question id, the exception type it raised (if
any) and one optional measured value.  Spans stay in memory until ``dump``.
A boundary that no longer exists is skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, value=None, item=None):
        """Wrap ``fn`` in a span.  ``value(args, result)`` measures one
        number after the span ends; ``item(args)`` names the question the
        span and its children belong to."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            outer_item = getattr(self._local, "item", None)
            if item is not None:
                self._local.item = item(args)
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                measured = value(args, result) \
                    if value is not None and error is None else None
                self.spans.append((span_id, parent, name, start, end,
                                   getattr(self._local, "item", None),
                                   error, measured))
                self._local.item = outer_item

        return wrapper

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **kwargs))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def _chars(args, messages) -> int:
    return sum(len(m.content) for m in messages)


def install(tracer: Tracer, llm_classes=()) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    from hopground import cli, deduction, distill, grounding, llm, pipeline
    from hopground import retrieval
    from hopground.retrieval import bm25

    p = tracer.patch
    p(pipeline, "answer_question", "question", item=lambda a: a[0].id)
    p(pipeline, "deduce", "deduce")
    p(pipeline, "ground", "ground",
      value=lambda a, r: [r[1].kind.value == "cited", r[2]])
    p(pipeline, "write_trajectories", "pipeline.write")
    p(deduction, "render_deduction", "render.deduction", value=_chars)
    p(deduction, "parse_deduction", "parse.deduction")
    p(grounding, "render_grounding", "render.grounding", value=_chars)
    p(grounding, "parse_grounding", "parse.grounding")
    p(distill, "synthesize_example", "synth.example",
      item=lambda a: a[0].question.id,
      value=lambda a, r: r.verdict.reason)
    p(distill, "apply_filters", "synth.filter")
    p(distill, "render_synthesis_teacher", "render.synthesis", value=_chars)
    p(bm25.CorpusIndex, "scores", "bm25.scores",
      value=lambda a, r: int((r > 0).sum()))
    p(bm25, "retrieve", "bm25.retrieve")
    p(pipeline.BM25Retriever, "retrieve", "retriever.bm25")
    p(pipeline.ExternalRetriever, "retrieve", "retriever.external")
    for cls in (llm.OpenAIChatClient, *llm_classes):
        p(cls, "complete", "llm.complete")
    p(retrieval, "load_corpus", "corpus.load")
    p(retrieval, "build_index", "bm25.build")
    p(retrieval, "save_index", "bm25.save")
    p(retrieval, "load_index", "bm25.load")
    p(cli, "cmd_eval", "eval")
