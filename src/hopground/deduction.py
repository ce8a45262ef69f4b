"""One answer-deduction step: prompt the model, parse its reply.

A reply either advances the reasoning ("Question i: ... / Answer i: ...")
or terminates it ("###Finish[final answer]").  Parsing is total: every
string yields a step, a finish, or one of the parse errors.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Sequence

from .core import DecodingParams, HopRecord, Question
from .errors import DeductionParseError, UnclosedFinish
from .llm import LlmClient
from .prompts import TemplateLibrary, render_deduction

FINISH_MARKER = "###Finish["

_QUESTION_LINE = re.compile(r"^\s*question\s*\d*\s*:\s*(.*\S)\s*$",
                            re.IGNORECASE | re.MULTILINE)
_ANSWER_LINE = re.compile(r"^\s*answer\s*\d*\s*:\s*(.*\S)\s*$",
                          re.IGNORECASE | re.MULTILINE)


class DeductionKind(str, enum.Enum):
    STEP = "step"
    FINISH = "finish"


@dataclass(frozen=True)
class DeductionResult:
    """Either a (sub_question, immediate_answer) step or a final answer;
    ``parse_deduction`` sets exactly its kind's fields, each non-empty."""

    kind: DeductionKind
    raw_text: str
    sub_question: str = ""
    immediate_answer: str = ""
    final_answer: str = ""


def parse_deduction(text: str) -> DeductionResult:
    """Classify one deduction output.

    A finish marker anywhere takes precedence over step lines; the first
    marker wins and its bracketed span (up to the first closing bracket) is
    the final answer.  A step needs one "Question i:" and one "Answer i:"
    line, index-insensitive, first of each.  Extracted spans are trimmed.

    Raises ``UnclosedFinish`` when the marker's bracket never closes and
    ``DeductionParseError`` when neither pattern matches or a span is empty.
    """
    marker = text.find(FINISH_MARKER)
    if marker != -1:
        start = marker + len(FINISH_MARKER)
        end = text.find("]", start)
        if end == -1:
            raise UnclosedFinish(
                f"finish marker never closes: {text[marker:marker + 80]!r}", text)
        final = text[start:end].strip()
        if not final:
            raise DeductionParseError("finish marker with an empty answer", text)
        return DeductionResult(kind=DeductionKind.FINISH, raw_text=text,
                               final_answer=final)

    question = _QUESTION_LINE.search(text)
    answer = _ANSWER_LINE.search(text)
    if not question or not answer:
        raise DeductionParseError(
            f"neither step nor finish pattern found in: {text[:120]!r}", text)
    return DeductionResult(
        kind=DeductionKind.STEP,
        raw_text=text,
        sub_question=question.group(1).strip(),
        immediate_answer=answer.group(1).strip(),
    )


def deduce(llm: LlmClient, library: TemplateLibrary, question: Question,
           hops: Sequence[HopRecord],
           params: DecodingParams = DecodingParams()) -> DeductionResult:
    """Run one deduction call and parse it.

    Parse errors propagate; the pipeline owns the retry policy.
    """
    messages = render_deduction(library, question, hops)
    return parse_deduction(llm.complete(messages, params).text)
