import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground.core import Document, GroundingKind, GroundingOutcome, Question
from hopground.errors import (MalformedGrounding, MissingRevision,
                              ScriptExhausted)
from hopground.grounding import first_tag_span, ground, parse_grounding
from hopground.llm import ScriptedClient

from helpers import LoggedScript

QUESTION = Question(id="q", text="In what month is the festival held?")

CITED = "<ref> evidence span </ref> <revise> corrected answer </revise>"
EMPTY = "<ref> Empty </ref>"

FESTIVAL_GROUNDING = (
    "The document demonstrate <ref> ...is called the London International "
    "Documentary Festival (LIDF) </ref>. <revise>the London International "
    "Documentary Festival (LIDF) </revise>.")


def sentinel_docs(n):
    return [Document(id=f"doc{i:02d}", title=f"Doc {i}",
                     body=f"content SENTINEL{i:02d} text")
            for i in range(1, n + 1)]


class TestParseGrounding:
    def test_empty_signal(self):
        outcome, revised = parse_grounding(EMPTY)
        assert outcome.kind is GroundingKind.EMPTY
        assert outcome.raw_text == EMPTY
        assert revised is None

    def test_empty_signal_is_case_insensitive(self):
        outcome, _ = parse_grounding("<ref>  eMpTy </ref>")
        assert outcome.kind is GroundingKind.EMPTY

    def test_festival_style_citation(self):
        outcome, revised = parse_grounding(FESTIVAL_GROUNDING)
        assert outcome.kind is GroundingKind.CITED
        assert outcome.citation.startswith("...is called the London")
        assert revised == ("the London International "
                           "Documentary Festival (LIDF)")

    def test_missing_revise_is_malformed(self):
        with pytest.raises(MissingRevision):
            parse_grounding("<ref> evidence </ref> with no revision")

    def test_no_tags_is_malformed(self):
        with pytest.raises(MalformedGrounding):
            parse_grounding("free text without any tags")

    def test_blank_ref_is_malformed(self):
        with pytest.raises(MalformedGrounding):
            parse_grounding("<ref>   </ref> <revise> x </revise>")

    def test_revise_trimmed_of_whitespace_and_periods_only(self):
        _, revised = parse_grounding(
            "<ref> e </ref> <revise>  May, 1990.. </revise>")
        assert revised == "May, 1990"

    def test_revise_of_only_periods_is_malformed(self):
        with pytest.raises(MissingRevision):
            parse_grounding("<ref> e </ref> <revise> .. </revise>")

    def test_first_tag_pair_wins(self):
        text = ("<ref> first evidence </ref> <revise> first answer </revise> "
                "<ref> second </ref> <revise> second </revise>")
        outcome, revised = parse_grounding(text)
        assert outcome.citation == "first evidence"
        assert revised == "first answer"

    def test_empty_keyword_beats_revise_span(self):
        outcome, revised = parse_grounding(
            "<ref> Empty </ref> <revise> ghost </revise>")
        assert outcome.kind is GroundingKind.EMPTY
        assert revised is None

    def test_revise_before_ref_still_cited(self):
        outcome, revised = parse_grounding(
            "<revise> answer </revise> <ref> ev </ref>")
        assert outcome.kind is GroundingKind.CITED
        assert revised == "answer"

    def test_unclosed_ref_is_malformed(self):
        with pytest.raises(MalformedGrounding):
            parse_grounding("<ref> never closes <revise> x </revise>")

    @settings(max_examples=300)
    @given(st.text(alphabet=list("<>/refvis eEmpty"), max_size=60))
    def test_totality(self, text):
        try:
            outcome, revised = parse_grounding(text)
            # a revision comes with a citation, and only with one
            assert (revised is None) == (outcome.kind is GroundingKind.EMPTY)
        except MalformedGrounding:
            pass


class TestFirstTagSpan:
    def test_extracts_first_pair(self):
        assert first_tag_span("a <x> inner </x> b", "<x>", "</x>") == " inner "

    def test_none_when_absent(self):
        assert first_tag_span("no tags", "<x>", "</x>") is None


class TestGround:
    def test_empty_then_cited_stops_at_second_window(self, library):
        docs = sentinel_docs(10)
        llm = LoggedScript([EMPTY, CITED])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft answer", docs, batch_size=3)
        assert consumed == 2
        assert outcome.kind is GroundingKind.CITED
        assert revised == "corrected answer"
        assert len(llm.calls) == 2
        # the second call saw documents 4-6 and nothing else
        second_prompt = llm.calls[1][0].content
        for i in range(1, 11):
            sentinel = f"SENTINEL{i:02d}"
            assert (sentinel in second_prompt) == (4 <= i <= 6)

    def test_all_empty_keeps_immediate_answer_verbatim(self, library):
        immediate = "  draft with odd spacing and trailing dots.. "
        llm = LoggedScript([EMPTY] * 4)
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", immediate, sentinel_docs(10),
            batch_size=3)
        assert revised == immediate  # byte equality, no trimming
        assert outcome.kind is GroundingKind.EMPTY
        assert consumed == 4
        # every window in rank order, the short last one included
        windows = [[i for i in range(1, 11)
                    if f"SENTINEL{i:02d}" in call[0].content]
                   for call in llm.calls]
        assert windows == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10]]

    def test_all_empty_returns_the_last_windows_outcome(self, library):
        last = "<ref> empty </ref> nothing in this window"
        llm = ScriptedClient([EMPTY, last])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", sentinel_docs(6),
            batch_size=3)
        assert (revised, consumed) == ("draft", 2)
        assert parse_grounding(last) == (outcome, None)
        assert outcome == GroundingOutcome.empty(raw_text=last)

    def test_no_documents_makes_no_calls(self, library):
        llm = LoggedScript([])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", [], batch_size=3)
        assert revised == "draft"
        assert outcome.kind is GroundingKind.EMPTY
        assert consumed == 0
        assert llm.calls == []

    def test_malformed_retried_once_then_treated_as_empty(self, library):
        llm = LoggedScript(["garbage", "more garbage", CITED])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", sentinel_docs(6),
            batch_size=3)
        # window 1 burned two calls, then window 2 cited
        assert consumed == 2
        assert revised == "corrected answer"
        assert len(llm.calls) == 3

    def test_all_malformed_keeps_last_reply_as_raw_text(self, library):
        llm = ScriptedClient(["bad 1", "bad 2", "bad 3", "bad 4"])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", sentinel_docs(6),
            batch_size=3)
        assert (revised, consumed) == ("draft", 2)
        assert outcome == GroundingOutcome.empty(raw_text="bad 4")

    def test_malformed_then_valid_retry_same_window(self, library):
        llm = LoggedScript(["garbage", CITED])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", sentinel_docs(6),
            batch_size=3)
        assert consumed == 1
        assert len(llm.calls) == 2
        # both calls carried the same window
        assert llm.calls[0][0].content == llm.calls[1][0].content

    def test_no_calls_after_first_cited_window(self, library):
        llm = LoggedScript([CITED, "NEVER SENT"])
        _, _, consumed = ground(llm, library, QUESTION, "sub?", "draft",
                                sentinel_docs(9), batch_size=3)
        assert consumed == 1
        assert len(llm.calls) == 1
        assert llm.remaining == 1

    def test_cited_reply_is_taken_as_given(self, library):
        # the quote appears in no document, and is not checked against them
        reply = "<ref> fabricated   evidence </ref> <revise> as given </revise>"
        llm = LoggedScript([reply, "NEVER SENT"])
        revised, outcome, consumed = ground(
            llm, library, QUESTION, "sub?", "draft", sentinel_docs(6),
            batch_size=3)
        assert (revised, consumed) == ("as given", 1)
        assert parse_grounding(reply) == (outcome, revised)
        assert outcome.citation == "fabricated   evidence"
        assert len(llm.calls) == 1

    def test_consumed_bounded_by_window_count(self, library):
        for n, b in [(10, 3), (7, 2), (5, 5), (1, 4)]:
            llm = ScriptedClient([EMPTY] * math.ceil(n / b))
            _, _, consumed = ground(llm, library, QUESTION, "s", "draft",
                                    sentinel_docs(n), batch_size=b)
            assert consumed == math.ceil(n / b)

    def test_llm_error_propagates(self, library):
        llm = ScriptedClient([])
        with pytest.raises(ScriptExhausted):
            ground(llm, library, QUESTION, "s", "draft", sentinel_docs(3),
                   batch_size=3)
