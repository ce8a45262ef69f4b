import json
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground.core import Document, Question
from hopground.distill import (DROP_EMPTY_EVIDENCE, DROP_LLM_ERROR,
                               DROP_MISALIGNED, DROP_MISSING_REVISION,
                               SynthesisConfig, SynthesisInput,
                               TrainingExample, Verdict, apply_filters,
                               dataset_stats, emit_corpus,
                               load_synthesis_inputs, load_training_corpus,
                               place_gold, synthesize_example,
                               synthesize_stream)
from hopground.errors import EmptyRecords, InvalidRecord, MalformedDataset
from hopground.llm import Completion, ScriptedClient
from hopground.prompts import render_grounding

import oracles
from helpers import (BAD_DOCUMENTS, OPTIONAL_TITLE_DOCUMENTS, LoggedScript,
                     assert_gold_slot, write_jsonl)

GOLD_ANSWER = "Paris"
GOLD_DOC = Document(id="gold", title="France",
                    body="Paris is the capital and largest city of France.")

KEEP = None  # marker for expected Keep verdicts

# crafted teacher outputs covering each filter rule, tag-order variants,
# and Keep cases; expected reason None means Keep
FILTER_TABLE = [
    ("<ref> Paris is the capital of France </ref> <revise> Paris </revise>",
     KEEP),
    ("The document demonstrate <ref> Paris is the capital of France </ref>. "
     "<revise> The capital is Paris. </revise>.", KEEP),
    ("<ref> Empty </ref>", DROP_EMPTY_EVIDENCE),
    ("<ref> empty </ref> <revise> Paris </revise>", DROP_EMPTY_EVIDENCE),
    ("no tags at all", DROP_EMPTY_EVIDENCE),
    ("<ref> Paris is the capital of France </ref>", DROP_MISSING_REVISION),
    ("<ref> Paris is the capital of France </ref> <revise> Paris",
     DROP_MISSING_REVISION),
    ("<revise> Paris </revise>", DROP_EMPTY_EVIDENCE),
    ("<ref> Paris is the capital of France </ref> <revise> Lyon </revise>",
     DROP_MISALIGNED),
    ("<ref> Paris is the capital of France </ref> <revise> . </revise>",
     DROP_MISSING_REVISION),
    ("<revise> Paris </revise> <ref> Paris is the capital of France </ref>",
     KEEP),
    ("<ref></ref> <revise> Paris </revise>", DROP_EMPTY_EVIDENCE),
]


# pieces of teacher outputs: every tag, the Empty signal, whitespace,
# periods and answer words, so joined strings hit each filter rule
TAG_SOUP = ["<ref>", "</ref>", "<revise>", "</revise>", "<", ">", "/",
            "Empty", "eMPTY", " ", "\n", "\t", ".", "..", "Paris", "paris",
            "Lyon", "the", "capital", "ref", "revise"]


def make_input(i=0, n_noise=2):
    question = Question(id=f"syn{i}", text=f"What is the capital of France ({i})?",
                        gold_answers=(GOLD_ANSWER,))
    noise = tuple(Document(id=f"noise{i}-{j}", title=f"Noise {j}",
                           body=f"Unrelated filler text number {j}.")
                  for j in range(n_noise))
    return SynthesisInput(question=question, gold_doc=GOLD_DOC, noise_docs=noise)


class TestApplyFilters:
    @pytest.mark.parametrize("target,reason", FILTER_TABLE)
    def test_twelve_case_table(self, target, reason):
        verdict = apply_filters(target, GOLD_ANSWER)
        if reason is KEEP:
            assert verdict.keep, target
        else:
            assert not verdict.keep
            assert verdict.reason == reason

    def test_first_failing_rule_is_reported(self):
        # empty evidence outranks the (also missing) revision
        verdict = apply_filters("plain text", GOLD_ANSWER)
        assert verdict.reason == DROP_EMPTY_EVIDENCE

    def test_total_over_arbitrary_strings(self):
        for text in ("", "<ref>", "</revise>", "\x00\x01", "<ref></ref>"):
            verdict = apply_filters(text, GOLD_ANSWER)
            assert isinstance(verdict, Verdict)

    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(TAG_SOUP), max_size=14).map("".join))
    def test_matches_tag_rules_oracle(self, target):
        verdict = apply_filters(target, GOLD_ANSWER)
        expected = oracles.synthesis_drop_reason(target, GOLD_ANSWER)
        assert verdict == (Verdict() if expected is None
                           else Verdict(expected)), target


class TestPlaceGold:
    def test_insertion_positions(self):
        noise = [Document(id=f"n{j}", title="", body="x") for j in range(3)]
        for position in range(1, 5):
            docs = place_gold(GOLD_DOC, noise, position)
            assert docs[position - 1].id == "gold"
            assert len(docs) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            place_gold(GOLD_DOC, [], 2)


class TestSynthesizeExample:
    def test_keep_path(self, library):
        student = ScriptedClient(["Paris."])
        teacher = LoggedScript([FILTER_TABLE[0][0]])
        example = synthesize_example(make_input(), student, teacher, library,
                                     gold_position=2)
        assert example.verdict.keep
        assert example.immediate_answer == "Paris."
        assert example.gold_position == 2
        assert example.doc_ids[1] == "gold"
        assert "[2] France" in example.instruction
        # the teacher saw exactly the instruction we recorded
        assert teacher.calls[0][0].content == example.instruction
        # every Keep target parses as a citation
        from hopground.core import GroundingKind
        from hopground.grounding import parse_grounding
        assert parse_grounding(example.target).kind is GroundingKind.CITED

    def test_empty_evidence_drop(self, library):
        student = ScriptedClient(["Paris."])
        teacher = ScriptedClient(["<ref> Empty </ref> nothing relevant"])
        example = synthesize_example(make_input(), student, teacher, library,
                                     gold_position=1)
        assert example.verdict == Verdict(DROP_EMPTY_EVIDENCE)

    def test_missing_revision_drop(self, library):
        student = ScriptedClient(["Paris."])
        teacher = ScriptedClient(["<ref> Paris is the capital of France </ref>"])
        example = synthesize_example(make_input(), student, teacher, library,
                                     gold_position=1)
        assert example.verdict == Verdict(DROP_MISSING_REVISION)

    @pytest.mark.parametrize("student_replies, teacher_replies", [
        (["Paris."], [FILTER_TABLE[0][0]]),   # kept
        (["Paris."], ["<ref> Empty </ref>"]),  # dropped by a filter
        (["Paris."], []),                     # the teacher fails
        ([], []),                             # the student fails
    ])
    def test_keeps_the_slot_ids_and_the_gold_body(self, library,
                                                  student_replies,
                                                  teacher_replies):
        # a gold body longer than the prompt's cut
        gold = replace(GOLD_DOC, body=GOLD_DOC.body + " Filler." * 250)
        inp = replace(make_input(n_noise=4), gold_doc=gold)
        example = synthesize_example(inp, ScriptedClient(student_replies),
                                     ScriptedClient(teacher_replies),
                                     library, gold_position=3)
        documents = place_gold(inp.gold_doc, inp.noise_docs, 3)
        assert example.doc_ids == tuple(d.id for d in documents)
        assert_gold_slot(example.to_dict(), gold.to_dict())

    def test_llm_error_recorded_as_drop(self, library):
        student = ScriptedClient([])  # exhausted immediately
        teacher = ScriptedClient([])
        example = synthesize_example(make_input(), student, teacher, library,
                                     gold_position=1)
        assert example.verdict == Verdict(DROP_LLM_ERROR)
        assert example.target == ""


class TestSynthesizeStream:
    def scripts(self, n):
        student = ScriptedClient(["Paris."] * n)
        teacher = ScriptedClient([FILTER_TABLE[0][0]] * n)
        return student, teacher

    def test_seeded_positions_reproduce(self, library):
        inputs = [make_input(i, n_noise=4) for i in range(6)]
        runs = []
        for _ in range(2):
            student, teacher = self.scripts(len(inputs))
            examples = list(synthesize_stream(inputs, len(inputs), student,
                                              teacher, library, seed=123))
            runs.append([e.gold_position for e in examples])
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self, library):
        inputs = [make_input(i, n_noise=6) for i in range(10)]
        positions = []
        for seed in (1, 2):
            student, teacher = self.scripts(len(inputs))
            examples = list(synthesize_stream(inputs, len(inputs), student,
                                              teacher, library, seed=seed))
            positions.append([e.gold_position for e in examples])
        assert positions[0] != positions[1]

    def test_noise_docs_trimmed_to_maximum(self, library):
        # one inference window: the gold document and the first
        # batch_size - 1 noise documents
        for batch_size in (1, 3):
            inp = make_input(0, n_noise=15)
            student, teacher = self.scripts(1)
            [example] = synthesize_stream([inp], 1, student, teacher, library,
                                          seed=0, batch_size=batch_size)
            assert len(example.doc_ids) == batch_size
            assert set(example.doc_ids) == {
                "gold", *(d.id for d in inp.noise_docs[:batch_size - 1])}

    def test_instruction_is_the_grounding_prompt_of_its_window(self, library):
        inputs = [make_input(i, n_noise=4) for i in range(4)]
        student, teacher = self.scripts(len(inputs))
        examples = synthesize_stream(inputs, len(inputs), student, teacher,
                                     library, seed=5, batch_size=3)
        for inp, example in zip(inputs, examples):
            window = place_gold(inp.gold_doc, inp.noise_docs[:2],
                                example.gold_position)
            assert example.instruction == render_grounding(
                library, inp.question, inp.question.text,
                example.immediate_answer, window)[0].content

    def test_output_order_matches_input(self, library):
        inputs = [make_input(i) for i in range(5)]
        student, teacher = self.scripts(5)
        examples = list(synthesize_stream(inputs, 5, student, teacher,
                                          library, seed=9))
        assert [e.doc_ids[0].startswith(("gold", "noise")) for e in examples]
        assert len(examples) == 5

    def test_progress_per_completion_under_concurrency(self, library):
        class EchoClient:
            """Echoes the prompt; later inputs answer sooner, so completions
            arrive out of input order."""

            def complete(self, messages, params):
                i = int(re.search(r"\((\d+)\)", messages[-1].content)[1])
                time.sleep(0.02 * (6 - i))
                return Completion(text=messages[-1].content)

        teacher = ScriptedClient([FILTER_TABLE[0][0]] * 6)
        inputs = [make_input(i) for i in range(6)]
        seen = []
        examples = list(synthesize_stream(
            inputs, 6, EchoClient(), teacher, library, seed=9,
            config=SynthesisConfig(concurrency=3),
            progress=lambda done, total: seen.append((done, total))))
        assert seen == [(done, 6) for done in range(1, 7)]
        assert [e.immediate_answer for e in examples] == [
            inp.question.text for inp in inputs]


def make_example(i, keep=True, target_tokens=12):
    verdict = Verdict() if keep else Verdict(DROP_MISALIGNED)
    return TrainingExample(
        instruction=" ".join(["inst"] * (8 + i % 5)),
        doc_ids=(f"g{i}", f"n{i}") if i % 2 == 0 else (f"n{i}", f"g{i}"),
        gold_position=1 + i % 2,
        immediate_answer=f"draft {i}",
        target=" ".join(["word"] * target_tokens),
        verdict=verdict,
    )


class TestDatasetStats:
    def test_hand_case(self):
        examples = [make_example(0, target_tokens=10),
                    make_example(1, target_tokens=20)]
        stats = dataset_stats(examples)
        assert stats["avg_target_len"] == 15.00
        assert stats["count"] == 2

    def test_thirty_example_fixture_matches_recount_oracle(self):
        examples = [make_example(i, target_tokens=5 + i) for i in range(30)]
        assert dataset_stats(examples) == oracles.corpus_stats(examples)

    def test_empty_list(self):
        with pytest.raises(EmptyRecords):
            dataset_stats([])

    def test_reads_a_one_shot_iterator(self):
        examples = [make_example(i, target_tokens=3 + i) for i in range(9)]
        assert (dataset_stats(e for e in examples)
                == oracles.corpus_stats(examples))
        with pytest.raises(EmptyRecords):
            dataset_stats(iter(()))


VERDICTS = [Verdict(), *map(Verdict, (
    DROP_EMPTY_EVIDENCE, DROP_MISSING_REVISION, DROP_MISALIGNED,
    DROP_LLM_ERROR))]


@st.composite
def training_examples(draw):
    doc_ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=5))
    return TrainingExample(
        instruction=draw(st.text()), doc_ids=doc_ids,
        gold_position=draw(st.integers(1, len(doc_ids))),
        immediate_answer=draw(st.text()), target=draw(st.text()),
        verdict=draw(st.sampled_from(VERDICTS)))


def json_line(record):
    """``record`` as a corpus line holds it: encoded, then decoded."""
    return json.loads(json.dumps(record, ensure_ascii=False))


class TestTrainingExampleForms:
    @settings(max_examples=300)
    @given(training_examples(), st.booleans())
    def test_json_round_trip(self, example, include_verdict):
        decoded = TrainingExample.from_dict(json_line(
            example.to_dict(include_verdict=include_verdict)))
        # a line written without its verdict reads as kept
        assert decoded == (example if include_verdict
                           else replace(example, verdict=Verdict()))

    def test_gold_position_past_the_last_slot_is_invalid(self):
        with pytest.raises(InvalidRecord, match="past the last of 2"):
            replace(make_example(0), gold_position=3)


class TestEmitCorpus:
    def test_keep_only_by_default(self, tmp_path):
        examples = ([make_example(i) for i in range(5)]
                    + [make_example(i + 5, keep=False) for i in range(3)])
        path = tmp_path / "corpus.jsonl"
        assert emit_corpus(examples, path) == 5
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 5
        assert all("verdict" not in json.loads(line) for line in lines)

    def test_include_dropped_adds_verdicts(self, tmp_path):
        examples = ([make_example(i) for i in range(5)]
                    + [make_example(i + 5, keep=False) for i in range(3)])
        path = tmp_path / "corpus.jsonl"
        assert emit_corpus(examples, path, include_dropped=True) == 8
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").strip().splitlines()]
        assert sum(r["verdict"] == "drop" for r in records) == 3
        assert {r["drop_reason"] for r in records if r["verdict"] == "drop"} \
            == {DROP_MISALIGNED}

    def test_round_trip(self, tmp_path):
        examples = [make_example(i) for i in range(4)]
        path = tmp_path / "corpus.jsonl"
        emit_corpus(examples, path)
        assert list(load_training_corpus(path)) == examples

    @pytest.mark.parametrize("verdict", ["kept", "Keep", 1, None, True])
    def test_unknown_verdict_is_malformed(self, tmp_path, verdict):
        path = tmp_path / "corpus.jsonl"
        record = make_example(0).to_dict(include_verdict=True)
        write_jsonl(path, [record, {**record, "verdict": verdict}])
        with pytest.raises(MalformedDataset, match="verdict must be") as err:
            list(load_training_corpus(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["5", '"text"', "[1]", "null"])
    def test_non_object_line_is_malformed(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        emit_corpus([make_example(0)], path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        with pytest.raises(MalformedDataset, match="TrainingExample") as err:
            list(load_training_corpus(path))
        assert err.value.line == 2


class TestLoadSynthesisInputs:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        write_jsonl(path, [{
            "id": "s1", "question": "Q?", "answer": "A",
            "gold_doc": {"id": "g", "title": "T", "body": "B"},
            "noise_docs": [{"id": "n", "title": "", "body": "N"}],
        }])
        inputs = list(load_synthesis_inputs(path))
        assert inputs[0].gold_answer == "A"
        assert inputs[0].noise_docs[0].id == "n"

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        path.write_text('{"id": "s1"}\n', encoding="utf-8")
        with pytest.raises(MalformedDataset) as err:
            list(load_synthesis_inputs(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("field, value", [
        ("id", None), ("id", True), ("answer", None), ("answer", ["A"]),
    ])
    def test_id_and_answer_must_be_a_string_or_number(self, tmp_path, field,
                                                      value):
        record = {"id": "s1", "question": "Q?", "answer": "A",
                  "gold_doc": {"id": "g", "title": "T", "body": "B"}}
        path = tmp_path / "inputs.jsonl"
        write_jsonl(path, [record, {**record, field: value}])
        with pytest.raises(MalformedDataset, match=field) as err:
            list(load_synthesis_inputs(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("slot", ["gold_doc", "noise_docs"])
    @pytest.mark.parametrize("document", BAD_DOCUMENTS)
    def test_bad_document_reports_its_line(self, tmp_path, slot, document):
        record = {"id": "s1", "question": "Q?", "answer": "A",
                  "gold_doc": {"id": "g", "title": "T", "body": "B"}}
        bad = {**record, slot: [document] if slot == "noise_docs" else document}
        path = tmp_path / "inputs.jsonl"
        write_jsonl(path, [record, bad])
        with pytest.raises(MalformedDataset) as err:
            list(load_synthesis_inputs(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("document, expected", OPTIONAL_TITLE_DOCUMENTS)
    def test_documents_read_as_corpus_lines(self, tmp_path, document,
                                            expected):
        path = tmp_path / "inputs.jsonl"
        write_jsonl(path, [{"id": "s1", "question": "Q?", "answer": "A",
                            "gold_doc": document, "noise_docs": [document]}])
        [inp] = load_synthesis_inputs(path)
        assert inp.gold_doc == expected
        assert inp.noise_docs == (expected,)

    def test_input_rank_is_dropped(self, tmp_path):
        path = tmp_path / "inputs.jsonl"
        write_jsonl(path, [{"id": "s1", "question": "Q?", "answer": "A",
                            "gold_doc": {"id": "g", "title": "T", "body": "B",
                                         "rank": 3}}])
        assert next(load_synthesis_inputs(path)).gold_doc.rank is None

    def test_requires_single_gold_answer(self):
        with pytest.raises(ValueError):
            SynthesisInput(
                question=Question(id="q", text="t?", gold_answers=("a", "b")),
                gold_doc=GOLD_DOC, noise_docs=())
