import enum
import json
from dataclasses import fields, is_dataclass, replace
from typing import get_origin, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hopground.cli  # noqa: F401  (defines every config record)
from hopground.core import (DecodingParams, Document, GroundingKind,
                            GroundingOutcome, HopRecord, Question, Record,
                            Termination, TokenCounts, TokenUsage, Trajectory)
from hopground.distill import TrainingExample, Verdict
from hopground.errors import InvalidRecord
from hopground.llm import ChatMessage, Completion

text_st = st.text(min_size=1).filter(lambda s: s.strip())
ids_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1)


def make_hop(index=1, revised="Paris", immediate="Paris", kind=GroundingKind.CITED):
    if kind is GroundingKind.CITED:
        outcome = GroundingOutcome(kind=kind, raw_text="raw",
                                   citation="Paris is the capital",
                                   revised_answer=revised)
    else:
        outcome = GroundingOutcome.empty("raw")
        revised = immediate
    return HopRecord(
        index=index,
        sub_question="What is the capital of France?",
        immediate_answer=immediate,
        retrieved=(Document(id="doc1", title="France", body="Paris is the capital"),),
        grounding=outcome,
        revised_answer=revised,
        batches_consumed=1,
        deduction_raw="Question 1: ...\nAnswer 1: ...",
    )


class TestQuestion:
    def test_rejects_blank_text(self):
        with pytest.raises(InvalidRecord):
            Question(id="q1", text="   \n\t ")

    def test_accepts_unicode_and_metadata(self):
        q = Question(id="q1", text="Où est né Dvořák ?", gold_answers=("Praha",),
                     metadata={"source": "dev"})
        assert q.gold_answers == ("Praha",)

    def test_rejects_blank_gold_answer(self):
        with pytest.raises(InvalidRecord):
            Question(id="q1", text="ok", gold_answers=("",))


class TestDocument:
    def test_rejects_empty_body(self):
        with pytest.raises(InvalidRecord):
            Document(id="d", title="t", body="  ")

    def test_rejects_zero_rank(self):
        with pytest.raises(InvalidRecord):
            Document(id="d", title="t", body="x", rank=0)

    def test_with_rank(self):
        doc = Document(id="d", title="", body="x")
        assert doc.with_rank(3).rank == 3
        assert doc.rank is None


class TestGroundingOutcome:
    def test_empty_cannot_carry_citation(self):
        with pytest.raises(InvalidRecord):
            GroundingOutcome(kind=GroundingKind.EMPTY, raw_text="",
                             citation="evidence")

    def test_cited_requires_both_spans(self):
        with pytest.raises(InvalidRecord):
            GroundingOutcome(kind=GroundingKind.CITED, raw_text="",
                             citation="evidence", revised_answer=None)


class TestHopRecord:
    def test_empty_grounding_must_keep_immediate_answer(self):
        outcome = GroundingOutcome.empty("raw")
        with pytest.raises(InvalidRecord):
            HopRecord(index=1, sub_question="q?", immediate_answer="a",
                      retrieved=(), grounding=outcome, revised_answer="b",
                      batches_consumed=0)

    def test_rejects_empty_sub_question(self):
        with pytest.raises(InvalidRecord):
            HopRecord(index=1, sub_question=" ", immediate_answer="a",
                      retrieved=(), grounding=GroundingOutcome.empty(),
                      revised_answer="a", batches_consumed=0)


class TestTrajectory:
    def test_hop_indices_must_be_consecutive(self):
        with pytest.raises(InvalidRecord):
            Trajectory(question=Question(id="q", text="t?"),
                       hops=(make_hop(index=2),), final_answer="x",
                       termination=Termination.FINISH_SIGNAL)

    def test_finish_needs_final_answer(self):
        with pytest.raises(InvalidRecord):
            Trajectory(question=Question(id="q", text="t?"), hops=(),
                       final_answer=" ", termination=Termination.FINISH_SIGNAL)

    def test_immediate_finish_has_no_hops(self):
        traj = Trajectory(question=Question(id="q", text="t?"), hops=(),
                          final_answer="42",
                          termination=Termination.FINISH_SIGNAL)
        assert len(traj.hops) == 0


WRONG_TYPED_FIELDS = {
    "question id": (("question", "id"), 7),
    "question text": (("question", "text"), 5),
    "gold answer": (("question", "gold_answers", 0), 1),
    "document id": (("hops", 0, "retrieved", 0, "id"), 1),
    "document title": (("hops", 0, "retrieved", 0, "title"), None),
    "document body": (("hops", 0, "retrieved", 0, "body"), ["Paris"]),
    "sub-question": (("hops", 0, "sub_question"), 3),
    "immediate answer": (("hops", 0, "immediate_answer"), 3),
    "revised answer": (("hops", 0, "revised_answer"), 3),
    "deduction raw": (("hops", 0, "deduction_raw"), None),
    "citation": (("hops", 0, "grounding", "citation"), 5),
    "grounding revision": (("hops", 0, "grounding", "revised_answer"), ["x"]),
    "grounding raw text": (("hops", 0, "grounding", "raw_text"), 7),
    "final answer": (("final_answer",), 42),
    "hop index": (("hops", 0, "index"), True),
    "document rank": (("hops", 0, "retrieved", 0, "rank"), 2.5),
    "batches consumed": (("hops", 0, "batches_consumed"), True),
    "prompt tokens": (("token_usage", "total", "prompt_tokens"), 1.5),
    "completion tokens": (("token_usage", "total", "completion_tokens"),
                          False),
    "metadata": (("question", "metadata"), {"a": 1}),
}


@pytest.mark.parametrize("path, value", WRONG_TYPED_FIELDS.values(),
                         ids=WRONG_TYPED_FIELDS.keys())
def test_wrong_typed_field_is_invalid_record(path, value):
    record = Trajectory(question=Question(id="q", text="t?",
                                          gold_answers=("Paris",)),
                        hops=(make_hop(),), final_answer="Paris",
                        termination=Termination.FINISH_SIGNAL).to_dict()
    Trajectory.from_dict(record)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(InvalidRecord):
        Trajectory.from_dict(record)


def _records(cls=Record):
    """Every record class, config sections included."""
    for sub in cls.__subclasses__():
        if is_dataclass(sub):
            yield sub
        yield from _records(sub)


def _wrong_values(value):
    """Values of another JSON type than ``value``'s, and numbers of the
    wrong kind: a bool for a number, a fraction for an integer."""
    if value is None:  # an optional field: any value but null is one type
        return [5, []]
    if isinstance(value, bool):
        return [1, "true"]
    if isinstance(value, int):
        return [True, 1.5, "1"]
    if isinstance(value, float):
        return [True, "1.0"]
    if isinstance(value, (tuple, list)):
        return ["x", [5]]
    if isinstance(value, dict):
        return [[], {"k": 5}]
    if isinstance(value, str) and not isinstance(value, enum.Enum):
        return [5, ["x"]]
    return [5, "x"]  # a nested record, an enum or a verdict


_DOC = Document(id="d", title="T", body="b", rank=1)
RECORD_SAMPLES = {  # a valid instance of each record with required fields
    Question: Question(id="q", text="t?", gold_answers=("a",),
                       metadata={"k": "v"}),
    Document: _DOC,
    GroundingOutcome: make_hop().grounding,
    HopRecord: make_hop(),
    TokenUsage: TokenUsage(per_hop=(TokenCounts(1, 2),),
                           total=TokenCounts(1, 2)),
    Trajectory: Trajectory(question=Question(id="q", text="t?"),
                           hops=(make_hop(),), final_answer="Paris",
                           termination=Termination.FINISH_SIGNAL),
    ChatMessage: ChatMessage(role="user", content="hi"),
    Completion: Completion(text="x", prompt_tokens=1, completion_tokens=2),
    TrainingExample: TrainingExample(
        instruction="i", documents=(_DOC,), immediate_answer="a",
        target="t", gold_doc_id="d", gold_position=1, verdict=Verdict.kept()),
}
WRONG_FIELD_VALUES = [
    pytest.param(sample, f.name, wrong,
                 id=f"{cls.__name__}.{f.name}={wrong!r}")
    for cls in _records()
    for sample in [RECORD_SAMPLES.get(cls) or cls()]
    for f in fields(cls)
    if get_type_hints(cls)[f.name] is not object  # any value is an object
    for wrong in _wrong_values(getattr(sample, f.name))
]


@pytest.mark.parametrize("sample, name, wrong", WRONG_FIELD_VALUES)
def test_every_record_field_rejects_a_wrong_type(sample, name, wrong):
    with pytest.raises(InvalidRecord, match=f"^{name} must be"):
        replace(sample, **{name: wrong})


def _hash_or_none(record):
    try:
        return hash(record)
    except TypeError:  # a mapping field (a question's metadata) is a dict
        return None


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__name__)
def test_every_record_stores_lists_as_tuples_and_round_trips(cls):
    sample = RECORD_SAMPLES.get(cls) or cls()
    hints = get_type_hints(cls)
    tuples = [f.name for f in fields(cls) if get_origin(hints[f.name]) is tuple]
    record = replace(sample, **{name: list(getattr(sample, name))
                                for name in tuples})
    assert all(type(getattr(record, name)) is tuple for name in tuples)
    assert record == sample
    assert _hash_or_none(record) == _hash_or_none(sample)
    options = {"include_verdict": True} if cls is TrainingExample else {}
    payload = json.loads(json.dumps(record.to_dict(**options)))
    assert cls.from_dict(payload) == record


class TestDecodingParams:
    def test_defaults(self):
        params = DecodingParams()
        assert params.temperature == 0
        assert params.max_output_tokens == 1024

    def test_rejects_negative_temperature(self):
        with pytest.raises(InvalidRecord):
            DecodingParams(temperature=-0.1)


class TestTokenCounts:
    def test_arithmetic(self):
        a = TokenCounts(10, 5)
        b = TokenCounts(3, 2)
        assert a + b == TokenCounts(13, 7)
        assert a - b == TokenCounts(7, 3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidRecord):
            TokenCounts(-1, 0)


class TestRoundTrips:
    """JSON serialization reproduces every type exactly."""

    def _assert_round_trip(self, value):
        payload = json.loads(json.dumps(value.to_dict(), ensure_ascii=False))
        assert type(value).from_dict(payload) == value

    @given(ids_st, text_st, st.lists(text_st, max_size=3))
    def test_question(self, qid, text, golds):
        self._assert_round_trip(Question(id=qid, text=text,
                                         gold_answers=tuple(golds)))

    @given(ids_st, st.text(), text_st, st.none() | st.integers(1, 100))
    def test_document(self, did, title, body, rank):
        self._assert_round_trip(Document(id=did, title=title, body=body,
                                         rank=rank))

    def test_grounding_outcome(self):
        self._assert_round_trip(GroundingOutcome.empty("<ref> Empty </ref>"))
        self._assert_round_trip(GroundingOutcome(
            kind=GroundingKind.CITED, raw_text="raw", citation="c",
            revised_answer="r"))

    def test_hop_record(self):
        self._assert_round_trip(make_hop())
        self._assert_round_trip(make_hop(kind=GroundingKind.EMPTY))

    def test_trajectory(self):
        traj = Trajectory(
            question=Question(id="q", text="t?", gold_answers=("x",)),
            hops=(make_hop(1), make_hop(2)),
            final_answer="x",
            termination=Termination.FINISH_SIGNAL,
            token_usage=TokenUsage(per_hop=(TokenCounts(10, 2),
                                            TokenCounts(12, 3)),
                                   total=TokenCounts(30, 8)),
        )
        self._assert_round_trip(traj)

    def test_decoding_params(self):
        self._assert_round_trip(DecodingParams(temperature=0.5,
                                               max_output_tokens=64))
