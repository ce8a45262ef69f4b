import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground.core import DecodingParams, Question
from hopground.deduction import DeductionKind, deduce, parse_deduction
from hopground.errors import (DeductionParseError, ScriptExhausted,
                              UnclosedFinish)
from hopground.llm import ScriptedClient
from hopground.prompts import format_step

QUESTION = Question(id="q", text="Which year did the festival start?")

STEP_TEXT = "Question 1: What is X?\nAnswer 1: Y."

# every combination of step lines and finish-marker states, with the
# outcome each must map to
PRECEDENCE_TABLE = [
    (STEP_TEXT, DeductionKind.STEP),
    ("###Finish[March and April]", DeductionKind.FINISH),
    ("Question 2: Q?\nAnswer 2: A\n###Finish[Z]", DeductionKind.FINISH),
    ("Question 2: Q?\nAnswer 2: A\n###Finish[Z never closes",
     UnclosedFinish),
    ("Question 2: Q?\nAnswer 2: A\n###Finish[]", DeductionParseError),
    ("###Finish[unclosed forever", UnclosedFinish),
    ("###Finish[]", DeductionParseError),
    ("no structure here", DeductionParseError),
    ("Question 1: only a question line", DeductionParseError),
    ("Answer 1: only an answer line", DeductionParseError),
]


class TestParseDeduction:
    def test_step(self):
        result = parse_deduction(STEP_TEXT)
        assert result.kind is DeductionKind.STEP
        assert result.sub_question == "What is X?"
        assert result.immediate_answer == "Y."
        assert result.raw_text == STEP_TEXT

    def test_finish(self):
        result = parse_deduction("###Finish[March and April]")
        assert result.kind is DeductionKind.FINISH
        assert result.final_answer == "March and April"

    @pytest.mark.parametrize("text,expected", PRECEDENCE_TABLE)
    def test_marker_combination_table(self, text, expected):
        if isinstance(expected, DeductionKind):
            assert parse_deduction(text).kind is expected
        else:
            with pytest.raises(expected):
                parse_deduction(text)

    def test_first_finish_marker_wins(self):
        result = parse_deduction("###Finish[first] and ###Finish[second]")
        assert result.final_answer == "first"

    def test_first_question_and_answer_lines_win(self):
        text = ("Question 1: first q?\nAnswer 1: first a\n"
                "Question 2: second q?\nAnswer 2: second a")
        result = parse_deduction(text)
        assert result.sub_question == "first q?"
        assert result.immediate_answer == "first a"

    def test_whitespace_only_finish_is_parse_failure(self):
        with pytest.raises(DeductionParseError):
            parse_deduction("###Finish[   ]")

    @pytest.mark.parametrize("q_word,a_word", [
        ("question", "answer"), ("Question", "Answer"),
        ("QUESTION", "ANSWER"), ("quEsTion", "anSwEr")])
    @pytest.mark.parametrize("spacing", ["", " ", "  "])
    @pytest.mark.parametrize("number", ["1", "12", ""])
    def test_case_and_spacing_variants(self, q_word, a_word, spacing, number):
        text = (f"{q_word}{spacing}{number}{spacing}:{spacing}the sub q?\n"
                f"{a_word}{spacing}{number}{spacing}:{spacing}the answer")
        # independent check: an oracle regex agrees these lines qualify
        oracle = re.compile(r"(?mi)^\s*question\s*\d*\s*:")
        assert oracle.search(text)
        result = parse_deduction(text)
        assert result.sub_question == "the sub q?"
        assert result.immediate_answer == "the answer"

    @settings(max_examples=300)
    @given(st.text(alphabet=list("Qa1:#Finish[]n \nuestionAnswer?"), max_size=80))
    def test_totality(self, text):
        try:
            result = parse_deduction(text)
        except DeductionParseError:  # UnclosedFinish among them
            return
        step = (result.sub_question, result.immediate_answer)
        if result.kind is DeductionKind.STEP:
            assert all(step) and result.final_answer == ""
        else:
            assert result.kind is DeductionKind.FINISH
            assert result.final_answer and step == ("", "")


single_line = st.text(min_size=1, max_size=60).map(str.strip).filter(
    lambda s: s and "\n" not in s and "###Finish[" not in s
    and not re.search(r"(?i)^(question|answer)\s*\d*\s*:", s))


class TestStepRoundTrip:
    @settings(max_examples=120)
    @given(sub_question=single_line, answer=single_line,
           index=st.integers(1, 9))
    def test_format_then_parse_reproduces_fields(self, sub_question, answer, index):
        result = parse_deduction(format_step(index, sub_question, answer))
        assert result.kind is DeductionKind.STEP
        assert result.sub_question == sub_question
        assert result.immediate_answer == answer


class TestDeduce:
    def test_step_through_scripted_llm(self, library):
        llm = ScriptedClient([STEP_TEXT])
        result = deduce(llm, library, QUESTION, [])
        assert result.kind is DeductionKind.STEP
        assert result.raw_text == STEP_TEXT

    def test_finish_through_scripted_llm(self, library):
        llm = ScriptedClient(["###Finish[March and April]"])
        result = deduce(llm, library, QUESTION, [])
        assert result.final_answer == "March and April"

    def test_parse_error_propagates(self, library):
        llm = ScriptedClient(["no structure"])
        with pytest.raises(DeductionParseError):
            deduce(llm, library, QUESTION, [])

    def test_llm_error_propagates(self, library):
        llm = ScriptedClient([])
        with pytest.raises(ScriptExhausted):
            deduce(llm, library, QUESTION, [])

    def test_decoding_params_forwarded(self, library):
        class Spy:
            def complete(self, messages, params):
                self.params = params
                from hopground.llm import Completion
                return Completion(text=STEP_TEXT)

        spy = Spy()
        deduce(spy, library, QUESTION, [], DecodingParams(temperature=0.0))
        assert spy.params.temperature == 0.0

