import enum
import errno
import json
import os
import signal
import subprocess
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_origin, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hopground.cli  # noqa: F401  (defines every config record)
from hopground import core
from hopground.core import (Count, DecodingParams, Document, GroundingKind,
                            GroundingOutcome, HopRecord, Question, Record,
                            Termination, TokenCounts, TokenUsage, Trajectory,
                            read_jsonl, write_json)
from hopground.distill import TrainingExample, Verdict
from hopground.errors import InvalidRecord
from hopground.llm import ChatMessage, Completion

SRC = Path(__file__).parents[1] / "src"

text_st = st.text(min_size=1).filter(lambda s: s.strip())
ids_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1)


def make_hop(index=1, revised="Paris", immediate="Paris", kind=GroundingKind.CITED):
    if kind is GroundingKind.CITED:
        outcome = GroundingOutcome(kind=kind, raw_text="raw",
                                   citation="Paris is the capital")
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


@st.composite
def hops_st(draw, index):
    """A valid hop: Cited with any revision, or Empty, which keeps the
    immediate answer."""
    immediate = draw(text_st)
    if draw(st.booleans()):
        grounding = GroundingOutcome(kind=GroundingKind.CITED,
                                     citation=draw(text_st),
                                     raw_text=draw(st.text()))
        revised = draw(text_st)
    else:
        grounding, revised = GroundingOutcome.empty(draw(st.text())), immediate
    docs = draw(st.lists(st.builds(Document, id=ids_st, title=st.text(),
                                   body=st.none() | text_st), max_size=2))
    return HopRecord(index=index, sub_question=draw(text_st),
                     immediate_answer=immediate, retrieved=tuple(docs),
                     grounding=grounding, revised_answer=revised,
                     batches_consumed=draw(st.integers(0, 3)))


@st.composite
def trajectories_st(draw):
    n = draw(st.integers(0, 3))
    return Trajectory(
        question=Question(id=draw(ids_st), text=draw(text_st)),
        hops=tuple(draw(hops_st(i)) for i in range(1, n + 1)),
        final_answer=draw(text_st),
        termination=draw(st.sampled_from(Termination)))


class TestQuestion:
    def test_rejects_blank_text(self):
        with pytest.raises(InvalidRecord):
            Question(id="q1", text="   \n\t ")

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


class TestGroundingOutcome:
    def test_empty_cannot_carry_citation(self):
        with pytest.raises(InvalidRecord):
            GroundingOutcome(kind=GroundingKind.EMPTY, raw_text="",
                             citation="evidence")

    def test_cited_requires_a_citation(self):
        with pytest.raises(InvalidRecord, match="needs a citation"):
            GroundingOutcome(kind=GroundingKind.CITED, raw_text="")


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


class TestRecordChecks:
    def test_two_wrong_fields_name_the_first_declared(self):
        with pytest.raises(InvalidRecord, match="^id must be a string"):
            Document(id=5, title=None, body="b")
        with pytest.raises(InvalidRecord, match="^title must be a string"):
            Document(id="d", title=None, body=" ", rank=0)

    def test_fields_are_stored_converted_only_once_every_field_passes(self):
        reads = []

        class Items(list):
            def __iter__(self):
                reads.append("items read")
                return super().__iter__()

        @dataclass(frozen=True)
        class Stored(Record):
            items: tuple[str, ...]
            count: Count

        with pytest.raises(InvalidRecord, match="^count must be"):
            Stored(Items(["a"]), -1)
        assert reads == ["items read"]  # checked, and not copied
        reads.clear()
        record = Stored(Items(["a"]), 1)
        assert reads == ["items read", "items read"]
        assert type(record.items) is tuple and record.items == ("a",)


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
    "grounding raw text": (("hops", 0, "grounding", "raw_text"), 7),
    "final answer": (("final_answer",), 42),
    "hop index": (("hops", 0, "index"), True),
    "document rank": (("hops", 0, "retrieved", 0, "rank"), 2.5),
    "batches consumed": (("hops", 0, "batches_consumed"), True),
    "prompt tokens": (("token_usage", "total", "prompt_tokens"), 1.5),
    "completion tokens": (("token_usage", "total", "completion_tokens"),
                          False),
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
    if isinstance(value, str) and not isinstance(value, enum.Enum):
        return [5, ["x"]]
    return [5, "x"]  # a nested record, an enum or a verdict


RECORD_SAMPLES = {  # a valid instance of each record with required fields
    Question: Question(id="q", text="t?", gold_answers=("a",)),
    Document: Document(id="d", title="T", body="b", rank=1),
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
        instruction="i", doc_ids=("d",), gold_position=1,
        immediate_answer="a", target="t", verdict=Verdict()),
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


# samples whose Unwritten fields are None
NONE_SAMPLES = {
    Document: [Document(id="d", title="T")],
    GroundingOutcome: [GroundingOutcome.empty("raw")],
}
# the fields left out of a record's JSON object while None; a None in any
# other field is written as null
UNWRITTEN = {Document: {"body"}, GroundingOutcome: {"citation"}}


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__name__)
def test_every_record_stores_lists_as_tuples_and_round_trips(cls):
    hints = get_type_hints(cls)
    tuples = [f.name for f in fields(cls) if get_origin(hints[f.name]) is tuple]
    options = {"include_verdict": True} if cls is TrainingExample else {}
    for sample in [RECORD_SAMPLES.get(cls) or cls(),
                   *NONE_SAMPLES.get(cls, [])]:
        record = replace(sample, **{name: list(getattr(sample, name))
                                    for name in tuples})
        assert all(type(getattr(record, name)) is tuple for name in tuples)
        assert record == sample
        assert hash(record) == hash(sample)
        written = record.to_dict(**options)
        nones = {f.name for f in fields(cls) if getattr(record, f.name) is None}
        assert nones - written.keys() == nones & UNWRITTEN.get(cls, set())
        payload = json.loads(json.dumps(written))
        assert cls.from_dict(payload) == record


def _required(cls):
    """The fields of a record class that have no default."""
    return [f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING]


@pytest.mark.parametrize("cls", filter(_required, RECORD_SAMPLES),
                         ids=lambda cls: cls.__name__)
def test_a_line_without_a_field_that_has_no_default_names_it(cls):
    written = RECORD_SAMPLES[cls].to_dict()
    for name in written.keys() & set(_required(cls)):
        line = {key: value for key, value in written.items() if key != name}
        with pytest.raises(InvalidRecord, match=f"^{name} is missing$"):
            cls.from_dict(line)


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

    @given(ids_st, st.text(), st.none() | text_st,
           st.none() | st.integers(1, 100))
    def test_document(self, did, title, body, rank):
        doc = Document(id=did, title=title, body=body, rank=rank)
        self._assert_round_trip(doc)
        # a line written while a None body was written as null reads alike
        assert Document.from_dict({**doc.to_dict(), "body": body}) == doc

    def test_grounding_outcome(self):
        self._assert_round_trip(GroundingOutcome.empty("<ref> Empty </ref>"))
        self._assert_round_trip(GroundingOutcome(
            kind=GroundingKind.CITED, raw_text="raw", citation="c"))

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

    @given(trajectories_st())
    def test_trajectory_in_the_grounding_revision_form(self, trajectory):
        # a line written while a Cited grounding also held its hop's
        # revised_answer decodes to the record today's line does
        line = trajectory.to_dict()
        for hop in line["hops"]:
            assert "revised_answer" not in hop["grounding"]
            if hop["grounding"]["kind"] == "cited":
                hop["grounding"]["revised_answer"] = hop["revised_answer"]
        payload = json.loads(json.dumps(line, ensure_ascii=False))
        assert Trajectory.from_dict(payload) == trajectory

    def test_decoding_params(self):
        self._assert_round_trip(DecodingParams(temperature=0.5,
                                               max_output_tokens=64))


def test_read_jsonl_skips_blank_and_whitespace_only_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"n": 1}\n\n  \t \n{"n": 2}\n\r\n')
    assert list(read_jsonl(path, lambda record, line_no: (record, line_no))
                ) == [({"n": 1}, 1), ({"n": 2}, 4)]


def test_write_json_of_an_unencodable_value_writes_nothing(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_bytes(b'{"kept": true}\n')
    for path in (new, old):
        with pytest.raises(UnicodeEncodeError):
            write_json({"dataset_path": "ds\udcff.jsonl"}, path)
    assert not new.exists()
    assert old.read_bytes() == b'{"kept": true}\n'


def test_write_json_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "summary.json"
    write_json({"n": 1}, path)
    write_json({"n": 2}, path)
    assert json.loads(path.read_bytes()) == {"n": 2}
    assert os.listdir(tmp_path) == ["summary.json"]

    # a process that dies before the rename leaves the old file as it was
    def die(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", die)
    with pytest.raises(KeyboardInterrupt):
        write_json({"n": 3}, path)
    assert json.loads(path.read_bytes()) == {"n": 2}


class _FullFile:
    """An ``open`` whose file is created but takes no bytes."""

    def __init__(self, file, mode):
        self._file = open(file, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("step", ["write", "replace"])
def test_write_json_that_fails_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                        step):
    path = tmp_path / "summary.json"
    write_json({"n": 1}, path)

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    if step == "write":
        monkeypatch.setattr(core, "open", _FullFile, raising=False)
    else:
        monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="No space left"):
        write_json({"n": 2}, path)
    assert os.listdir(tmp_path) == ["summary.json"]
    assert path.read_bytes() == b'{\n  "n": 1\n}\n'


# the writer in a child process that SIGKILLs itself when asked for the item
# after its Nth; each record is about 120 bytes, so 200 of them are past
# the 8 KiB a text file buffered before each write was flushed
_KILLED_WRITER = '''\
import os, signal, sys
from hopground.core import write_jsonl
from hopground.evaluation import EvalRecord, write_records_csv

kind, path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])

def items():
    for i in range(10 * n):
        if i == n:
            os.kill(os.getpid(), signal.SIGKILL)
        yield i

if kind == "jsonl":
    write_jsonl(({"i": i, "pad": "x" * 100} for i in items()), path)
else:
    write_records_csv((EvalRecord(question_id=f"q{i}-" + "x" * 100, acc=1,
                                  f1=1.0) for i in items()), path)
'''


@pytest.mark.parametrize("kind, header", [("jsonl", 0), ("csv", 1)])
@pytest.mark.parametrize("n", [1, 200])
def test_a_killed_writer_keeps_every_finished_line(tmp_path, kind, header, n):
    path = tmp_path / f"out.{kind}"
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITER, kind, str(path), str(n)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    data = path.read_bytes()
    assert data.endswith(b"\n")
    assert len(data.splitlines()) == header + n
