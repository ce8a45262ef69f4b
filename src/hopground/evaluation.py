"""Answer-accuracy metrics, the LLM judge, and benchmark dataset loading.

Metrics use SQuAD-style normalization (lowercase, strip ASCII punctuation,
drop the articles a/an/the, split on whitespace).  Accuracy is cover-EM:
1 when some gold answer's token sequence appears contiguously in the
prediction's tokens.  F1 is the token-multiset harmonic mean, maximized
over gold answers; as in HotpotQA's scorer, it is 0 when the prediction or
the gold normalizes to yes, no or noanswer and the other does not
normalize to the same.
"""

from __future__ import annotations

import csv
import logging
import re
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .core import (DecodingParams, Question, expect_type, loads_utf8,
                   read_jsonl, scalar_text)
from .errors import (EmptyRecords, LlmError, MalformedDataset, MissingGold,
                     UnparseableVerdict)
from .llm import LlmClient, retry_parse
from .prompts import TemplateLibrary, render_judge

log = logging.getLogger(__name__)

DATASET_FORMATS = ("hotpotqa", "musique", "2wiki", "strategyqa", "generic")

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
# answers that F1 scores all or nothing (HotpotQA's hotpot_evaluate_v1.py)
_CLOSED_ANSWERS = (["yes"], ["no"], ["noanswer"])


def normalize(text: str) -> list[str]:
    """Normalize to comparison tokens: case, punctuation, articles."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES_RE.sub(" ", text)
    return text.split()


def _contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i:i + n] == needle
               for i in range(len(haystack) - n + 1))


def cover_em(prediction: str, gold_answers: Sequence[str]) -> int:
    """1 iff some normalized gold answer occurs contiguously in the
    normalized prediction."""
    if not gold_answers:
        raise MissingGold("cover_em needs at least one gold answer")
    pred_tokens = normalize(prediction)
    return int(any(_contains_subsequence(pred_tokens, normalize(g))
                   for g in gold_answers))


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if pred_tokens == gold_tokens:
        return 1.0
    if pred_tokens in _CLOSED_ANSWERS or gold_tokens in _CLOSED_ANSWERS:
        return 0.0
    shared = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if shared == 0:
        return 0.0
    precision = shared / len(pred_tokens)
    recall = shared / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(prediction: str, gold_answers: Sequence[str]) -> float:
    """Best token-level F1 of the prediction over the gold answers."""
    if not gold_answers:
        raise MissingGold("token_f1 needs at least one gold answer")
    pred_tokens = normalize(prediction)
    return max(_f1_single(pred_tokens, normalize(g)) for g in gold_answers)


@dataclass(frozen=True)
class EvalRecord:
    question_id: str
    acc: int
    f1: float
    acc_judge: str | None = None  # "yes" / "no" when judged


def judge(llm: LlmClient, library: TemplateLibrary, question: str,
          prediction: str, gold_answer: str) -> str | None:
    """Ask the judge model whether the prediction implies the gold answer.

    The reply's first token decides: yes-prefix -> "yes", no-prefix -> "no".
    Anything else is retried once and then recorded as "no" with a warning.
    A call that fails (``LlmError``) is logged and judges nothing: None.
    A blank prediction implies nothing, so it is "no" without a call.
    """
    if not prediction.strip():
        return "no"
    messages = render_judge(library, question, prediction, gold_answer)
    try:
        return retry_parse(lambda: _parse_verdict(
            llm.complete(messages, DecodingParams()).text))
    except UnparseableVerdict as exc:
        log.warning("judge verdict unparseable, recording no: %r",
                    exc.text[:80])
        return "no"
    except LlmError as exc:
        log.warning("judge call failed, leaving the record unjudged: %s", exc)
        return None


def _parse_verdict(text: str) -> str:
    head = text.split(None, 1)
    first = head[0].lower() if head else ""
    if first.startswith("yes"):
        return "yes"
    if first.startswith("no"):
        return "no"
    raise UnparseableVerdict(
        f"verdict starts with neither yes nor no: {text[:80]!r}", text)


def score_prediction(question: Question, prediction: str) -> EvalRecord:
    """Metric-only record for one prediction against its question's golds."""
    golds = question.gold_answers
    return EvalRecord(
        question_id=question.id,
        acc=cover_em(prediction, golds),
        f1=token_f1(prediction, golds),
    )


def aggregate(records: Sequence[EvalRecord]) -> dict[str, float | None]:
    """Percentage means to two decimals; judge mean over judged records."""
    if not records:
        raise EmptyRecords("nothing to aggregate")
    acc = round(100.0 * sum(r.acc for r in records) / len(records), 2)
    f1 = round(100.0 * sum(r.f1 for r in records) / len(records), 2)
    judged = [r for r in records if r.acc_judge is not None]
    acc_judge = (round(100.0 * sum(r.acc_judge == "yes" for r in judged)
                       / len(judged), 2) if judged else None)
    return {"acc": acc, "f1": f1, "acc_judge": acc_judge}


# --- dataset loading ---

def _gold_list(record: dict) -> list[str]:
    answer = record.get("answer")
    aliases = expect_type(record.get("answer_aliases", []), list,
                          "answer_aliases")
    golds = [] if answer is None else [scalar_text(answer, "answer")]
    golds.extend(scalar_text(a, "answer_aliases item") for a in aliases)
    golds = [g for g in golds if g.strip()]
    if not golds:
        raise ValueError("record has no answer")
    return golds


def _question_id(record: Any, format: str, line_no: int) -> str:
    """A generic record's ``id``, or the first of a named format's id keys
    that is present and not null, read as text; a named format falls back
    to the line number."""
    expect_type(record, dict, "record")
    if format == "generic":
        return scalar_text(record["id"], "id")
    for key in ("qid", "id") if format == "strategyqa" else ("_id", "id"):
        if record.get(key) is not None:
            return scalar_text(record[key], key)
    return str(line_no)


def load_dataset(path: str | Path, format: str = "generic") -> list[Question]:
    """Load a benchmark file into questions with gold answers.

    generic is JSONL ``{id, question, answers: [...]}``; the named formats
    accept the public release layouts (JSON array or JSONL) and map
    StrategyQA's boolean labels to yes/no.  Records without an id take
    their line number (array position for a JSON array).  A repeated id
    makes its line bad.
    """
    if format not in DATASET_FORMATS:
        raise ValueError(f"format must be one of {DATASET_FORMATS}")
    seen: set[str] = set()

    def to_question(record: Any, line_no: int) -> Question:
        qid = _question_id(record, format, line_no)
        if qid in seen:
            raise ValueError(f"repeated question id {qid!r}")
        seen.add(qid)
        if format == "generic":
            golds = record["answers"]
            if not isinstance(golds, list) or not golds:
                raise KeyError("answers")
            return Question(id=qid, text=record["question"],
                            gold_answers=tuple(scalar_text(g, "answers item")
                                               for g in golds))
        if format == "strategyqa":
            label = record["answer"]
            if not isinstance(label, bool):
                raise ValueError("strategyqa answer must be boolean")
            return Question(id=qid, text=record["question"],
                            gold_answers=("yes" if label else "no",))
        # hotpotqa / musique / 2wiki
        return Question(id=qid, text=record["question"],
                        gold_answers=_gold_list(record))

    with open(path, "rb") as f:  # the first byte that is not whitespace
        first = next(filter(None, map(bytes.lstrip, f)), b"")[:1]
    if first != b"[":
        return list(read_jsonl(path, to_question))
    try:
        records = loads_utf8(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or a lone surrogate
        raise MalformedDataset(f"{path}: {exc}") from exc
    questions = []
    for i, record in enumerate(records, start=1):
        try:
            questions.append(to_question(record, i))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDataset(f"{path}: {exc}", line=i) from exc
    return questions


# --- report files ---

def write_records_csv(records: Iterable[EvalRecord], path: str | Path) -> None:
    """Write a header and one row per record, each flushed to the file once
    written, as ``core.write_jsonl`` does."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["question_id", "acc", "f1", "acc_judge"])
        for r in records:
            writer.writerow([r.question_id, r.acc, f"{r.f1:.4f}",
                             r.acc_judge if r.acc_judge is not None else ""])
            f.flush()
