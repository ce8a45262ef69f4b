"""Answer revision against retrieved documents, batch window by window.

Documents are grounded in rank-order windows of ``batch_size``.  The first
window that yields a citation ends the phase; if every window comes back
Empty (or there are no documents), the immediate answer is kept verbatim.
"""

from __future__ import annotations

import string
from typing import Sequence

from .core import (DecodingParams, Document, GroundingKind, GroundingOutcome,
                   Question)
from .errors import MalformedGrounding, MissingRevision
from .llm import LlmClient, retry_parse
from .prompts import TemplateLibrary, render_grounding

EMPTY_KEYWORD = "empty"

REF_OPEN, REF_CLOSE = "<ref>", "</ref>"
REVISE_OPEN, REVISE_CLOSE = "<revise>", "</revise>"

_ANSWER_TRIM = string.whitespace + "."


def first_tag_span(text: str, open_tag: str, close_tag: str) -> str | None:
    """Content of the first ``open_tag``..``close_tag`` pair, else None."""
    start = text.find(open_tag)
    if start == -1:
        return None
    end = text.find(close_tag, start + len(open_tag))
    if end == -1:
        return None
    return text[start + len(open_tag):end]


def parse_grounding(text: str) -> tuple[GroundingOutcome, str | None]:
    """Parse one grounding output into ``(outcome, revised_answer)``.

    The first ``<ref>..</ref>`` pair wins; a span equal to "Empty"
    (case-insensitive) is the no-evidence signal: Empty, and None.  Cited
    additionally needs a non-empty ``<revise>..</revise>`` span, whose text
    trimmed of surrounding whitespace and periods only is the revision.

    Raises ``MissingRevision`` when a citation has no usable revise span and
    ``MalformedGrounding`` for anything else.
    """
    ref_span = first_tag_span(text, REF_OPEN, REF_CLOSE)
    if ref_span is None:
        raise MalformedGrounding(f"no ref span in: {text[:120]!r}", text)
    citation = ref_span.strip()
    if citation.lower() == EMPTY_KEYWORD:
        return GroundingOutcome.empty(raw_text=text), None
    if not citation:
        raise MalformedGrounding("ref span is blank", text)

    revise_span = first_tag_span(text, REVISE_OPEN, REVISE_CLOSE)
    if revise_span is None:
        raise MissingRevision(f"no revise span in: {text[:120]!r}", text)
    revised = revise_span.strip(_ANSWER_TRIM)
    if not revised:
        raise MissingRevision("revise span is blank", text)
    return GroundingOutcome(kind=GroundingKind.CITED, raw_text=text,
                            citation=citation), revised


def ground(llm: LlmClient, library: TemplateLibrary, question: Question,
           sub_question: str, immediate_answer: str, docs: Sequence[Document],
           batch_size: int, params: DecodingParams = DecodingParams()
           ) -> tuple[str, GroundingOutcome, int]:
    """Revise ``immediate_answer`` against ``docs`` using windowed grounding.

    Windows are visited strictly in order and iteration stops at the first
    Cited window, whose citation and revised answer are taken as the model
    gives them.  A malformed reply is retried once and then treated as
    Empty for that window.

    Returns ``(revised_answer, outcome, batches_consumed)``; the outcome
    holds no revision, and ``batches_consumed`` counts windows sent to the
    model (a retry does not increment it).  When no window cites, the
    immediate answer is returned byte-for-byte unchanged, with the last
    window's Empty outcome (a bare Empty when there are no documents).
    """
    consumed = 0
    outcome = GroundingOutcome.empty()
    for start in range(0, len(docs), batch_size):
        batch = docs[start:start + batch_size]
        messages = render_grounding(library, question, sub_question,
                                    immediate_answer, batch)
        try:
            outcome, revised = retry_parse(
                lambda: parse_grounding(llm.complete(messages, params).text))
        except MalformedGrounding as exc:
            outcome, revised = GroundingOutcome.empty(raw_text=exc.text), None
        consumed += 1
        if revised is not None:
            return revised, outcome, consumed
    return immediate_answer, outcome, consumed
