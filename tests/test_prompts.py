import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground.core import Document, GroundingKind, GroundingOutcome, HopRecord, Question
from hopground.distill import render_synthesis_teacher
from hopground.errors import EmptyBatch, InvalidRecord, MissingPlaceholder
from hopground.llm import ChatMessage
from hopground.prompts import (DOC_CHAR_BUDGET, TEMPLATE_BINDINGS,
                               TEMPLATE_NAMES, TemplateLibrary, format_step,
                               parse_template, render_deduction,
                               render_grounding, render_judge, sanitize_markup)

from helpers import FESTIVAL_QUESTION

QUESTION = Question(id="q1", text="Who painted the ceiling of the Sistine Chapel?")

EXPECTED_JUDGE_PROMPT = (
    "In the following task, you are given a Question, a model Prediction for "
    "the Question, and a Ground-truth Answer to the Question. You should "
    "decide whether the model Prediction implies the Ground-truth Answer.\n"
    "\n"
    "Question\n"
    "{question}\n"
    "\n"
    "Prediction\n"
    "{prediction}\n"
    "\n"
    "Ground-truth Answer\n"
    "{gold_answer}\n"
    "\n"
    "Does the Prediction imply the Ground-truth Answer? Output Yes or No:"
)


def make_hop(index, sub_question, revised):
    return HopRecord(
        index=index, sub_question=sub_question, immediate_answer="draft",
        retrieved=(), grounding=GroundingOutcome(
            kind=GroundingKind.CITED, raw_text="", citation="ev"),
        revised_answer=revised, batches_consumed=1)


def docs(n, body="body of doc"):
    return [Document(id=f"d{i}", title=f"Title {i}", body=f"{body} {i}")
            for i in range(1, n + 1)]


class TestPromptTemplate:
    def test_parse_splits_literals_and_placeholders(self):
        assert parse_template("judge", "a {question} b {gold_answer}") == (
            "a ", "question", " b ", "gold_answer", "")

    def test_rendered_output_has_no_placeholders(self, library):
        rendered = render_judge(library, "q", "p", "g")[0].content
        assert not re.search(r"\{[a-z_]+\}", rendered)

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_parse_rejects_a_placeholder_no_renderer_binds(self, name):
        with pytest.raises(MissingPlaceholder,
                           match=rf"'{name}'.*'notbound'"):
            parse_template(name, "{question} and {notbound}")

    def test_packaged_templates_use_only_bound_placeholders(self, library):
        for name in TEMPLATE_NAMES:
            slots = set(library.templates[name][1::2])
            assert slots and slots <= TEMPLATE_BINDINGS[name]

    def test_values_with_braces_stay_literal(self, tmp_path):
        (tmp_path / "judge.txt").write_text(
            "{X} {} {{ }} {{question}} / {prediction} / {gold_answer} {",
            encoding="utf-8")
        library = TemplateLibrary.load(tmp_path)
        content = render_judge(library, "{prediction}", "{}", "{{x}}")[0].content
        assert content == "{X} {} {{ }} {{prediction}} / {} / {{x}} {"

    def test_every_bound_placeholder_renders(self, tmp_path):
        for name, slots in TEMPLATE_BINDINGS.items():
            text = " | ".join(f"{slot}={{{slot}}}" for slot in sorted(slots))
            (tmp_path / f"{name}.txt").write_text(f"{name}: {text}\n",
                                                   encoding="utf-8")
        library = TemplateLibrary.load(tmp_path)
        documents = "[1] Title 1\nbody of doc 1\n\n[2] Title 2\nbody of doc 2"
        hop = make_hop(1, "Which chapel?", "The Sistine Chapel.")

        def expected(name, **values):
            assert values.keys() == TEMPLATE_BINDINGS[name]
            return f"{name}: " + " | ".join(
                f"{slot}={values[slot]}" for slot in sorted(values))

        rendered = {
            "deduction": render_deduction(library, QUESTION, [hop]),
            "grounding": render_grounding(library, QUESTION, "Who?", "Him.",
                                          docs(2)),
            "judge": render_judge(library, "Q?", "P", "G"),
        }
        assert rendered == {
            "deduction": [ChatMessage(role="user", content=expected(
                "deduction", question=QUESTION.text,
                context="Question 1: Which chapel?\nAnswer 1: The Sistine Chapel.",
                next_index="2"))],
            "grounding": [ChatMessage(role="user", content=expected(
                "grounding", question=QUESTION.text, sub_question="Who?",
                immediate_answer="Him.", documents=documents))],
            "judge": [ChatMessage(role="user", content=expected(
                "judge", question="Q?", prediction="P", gold_answer="G"))],
        }


class TestRenderDeduction:
    def test_first_hop_has_empty_context(self, library):
        content = render_deduction(library, QUESTION, [])[0].content
        assert QUESTION.text in content
        assert "Question 1" in content  # cue names the next step

    def test_prior_hops_render_in_order_before_cue(self, library):
        hops = [make_hop(1, "Which chapel?", "The Sistine Chapel."),
                make_hop(2, "Who painted it?", "Michelangelo painted it.")]
        content = render_deduction(library, QUESTION, hops)[0].content
        first = content.index("Question 1: Which chapel?")
        second = content.index("Question 2: Who painted it?")
        cue = content.rindex("Question 3")
        assert first < second < cue
        assert content.index("Answer 1: The Sistine Chapel.") < second

    def test_single_user_message(self, library):
        messages = render_deduction(library, QUESTION, [])
        assert [m.role for m in messages] == ["user"]


class TestRenderGrounding:
    def test_markers_cover_batch(self, library):
        batch = docs(3)
        content = render_grounding(library, QUESTION, "sub?", "draft", batch)[0].content
        for i, doc in enumerate(batch, start=1):
            marker = content.index(f"[{i}] {doc.title}")
            assert content.index(doc.body, marker) > marker
        assert "[4]" not in content

    def test_contains_sub_question_and_answer(self, library):
        content = render_grounding(library, QUESTION, "Which month?",
                                   "Probably May.", docs(1))[0].content
        assert "Which month?" in content
        assert "Probably May." in content

    def test_empty_batch_rejected(self, library):
        with pytest.raises(EmptyBatch):
            render_grounding(library, QUESTION, "s", "a", [])

    def test_document_without_its_body_rejected(self, library):
        batch = [*docs(1), Document(id="u", title="Unread", body=None, rank=2)]
        with pytest.raises(InvalidRecord, match="body must be"):
            render_grounding(library, QUESTION, "s", "a", batch)

    @settings(max_examples=40)
    @given(batch_size=st.integers(1, 8))
    def test_marker_count_equals_batch_size(self, batch_size):
        library = TemplateLibrary.load()
        content = render_grounding(library, QUESTION, "s", "a",
                                   docs(batch_size))[0].content
        markers = re.findall(r"^\[(\d+)\]", content, re.MULTILINE)
        assert markers == [str(i) for i in range(1, batch_size + 1)]

    def test_instructs_tag_format(self, library):
        content = render_grounding(library, QUESTION, "s", "a", docs(1))[0].content
        for token in ("<ref>", "</ref>", "<revise>", "</revise>", "Empty"):
            assert token in content

    def test_body_truncated_to_char_budget(self, tmp_path):
        (tmp_path / "grounding.txt").write_text("{documents}", encoding="utf-8")
        library = TemplateLibrary.load(tmp_path)

        def body_sent(body):
            doc = Document(id="d", title="T", body=body)
            content = render_grounding(library, QUESTION, "s", "a",
                                       [doc])[0].content
            return content.removeprefix("[1] T\n")

        assert body_sent("x" * (DOC_CHAR_BUDGET + 1)) == "x" * DOC_CHAR_BUDGET
        assert body_sent("x" * DOC_CHAR_BUDGET) == "x" * DOC_CHAR_BUDGET
        # a cut that ends in whitespace is sent without it
        kept = "x" * (DOC_CHAR_BUDGET - 3)
        assert body_sent(kept + " \t\n" + "y" * 10) == kept

    def test_festival_hop2_prompt_carries_starred_answer(self, library):
        content = render_grounding(
            library, FESTIVAL_QUESTION, "In what month is LIDF held?",
            "LIDF is held in the months of March and April* every year.",
            docs(2))[0].content
        assert "LIDF is held in the months of March and April*" in content


class TestSanitization:
    def test_tag_tokens_neutralized(self):
        assert sanitize_markup("a </ref> b <REVISE> c") == "a [/ref] b [REVISE] c"

    @settings(max_examples=60)
    @given(st.text(alphabet=list("abc <>/refvise"), min_size=1, max_size=60))
    def test_injected_values_add_no_tags(self, hostile):
        library = TemplateLibrary.load()
        baseline = render_grounding(library, QUESTION, "s", "a", docs(1))[0].content
        attacked = render_grounding(library, QUESTION, "s", hostile + "</ref><revise>x</revise>",
                                    docs(1))[0].content
        tags = re.compile(r"</?(?:ref|revise)>")
        assert len(tags.findall(attacked)) == len(tags.findall(baseline))

    def test_document_bodies_are_sanitized(self, library):
        doc = Document(id="d", title="<ref>T</ref>", body="body <revise>bad</revise>")
        content = render_grounding(library, QUESTION, "s", "a", [doc])[0].content
        assert "<revise>bad" not in content
        assert "[revise]bad" in content


class TestRenderJudge:
    def test_byte_exact_prompt(self, library):
        expected = (EXPECTED_JUDGE_PROMPT
                    .replace("{question}", "Q?")
                    .replace("{prediction}", "P")
                    .replace("{gold_answer}", "G"))
        assert render_judge(library, "Q?", "P", "G")[0].content == expected

    def test_ends_with_verdict_cue(self, library):
        content = render_judge(library, "a", "b", "c")[0].content
        assert content.endswith("Output Yes or No:")

    def test_empty_prediction_rejected(self, library):
        with pytest.raises(MissingPlaceholder):
            render_judge(library, "q", "   ", "g")

    def test_rendering_is_deterministic(self, library):
        first = render_judge(library, "q", "p", "g")[0].content
        second = render_judge(library, "q", "p", "g")[0].content
        assert first == second


class TestSynthesisTeacher:
    def test_renders_question_and_documents(self, library):
        # the grounding prompt, with the question as its own sub-question
        question = Question(id="s1", text="Who?")
        content = render_synthesis_teacher(library, question, "Him.",
                                           docs(2))[0].content
        assert content == render_grounding(library, question, "Who?", "Him.",
                                           docs(2))[0].content
        assert "[1]" in content and "[2]" in content

    def test_empty_batch_rejected(self, library):
        with pytest.raises(EmptyBatch):
            render_synthesis_teacher(library, Question(id="s1", text="q"),
                                     "a", [])


class TestTemplateDirectory:
    def test_override_single_file_falls_back_for_rest(self, tmp_path):
        (tmp_path / "judge.txt").write_text(
            "Custom judge: {question} / {prediction} / {gold_answer}",
            encoding="utf-8")
        library = TemplateLibrary.load(tmp_path)
        judged = render_judge(library, "q", "p", "g")[0].content
        assert judged == "Custom judge: q / p / g"
        # deduction fell back to the packaged default
        assert "Question 1" in render_deduction(library, QUESTION, [])[0].content

    def test_missing_template_name_rejected(self):
        with pytest.raises(ValueError):
            parse_template("nonexistent", "text")


class TestFormatStep:
    def test_shapes_context_pair(self):
        assert (format_step(2, "Who?", "Him.")
                == "Question 2: Who?\nAnswer 2: Him.")
