"""Fault injection: whatever the model and the retriever do, a run over a
dataset keeps one trajectory per question, in input order, with every
completed hop and every token the injector charged.

A keyed client and retriever play each question's own list of faults, so
the outcome of a question does not depend on which thread runs it.  Each
keeps its own ledger: the tokens it charged a question, and the hops whose
retrieval succeeded and whose grounding raised nothing.
"""

import logging
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopground.core import Document, Question, TokenCounts
from hopground.errors import MalformedResponse, RetrievalError, TransportError
from hopground.llm import Completion
from hopground.pipeline import PipelineConfig, answer_stream

# a reply is picked by the prompt it answers: "ok" steps a deduction and
# cites a window, "alt" finishes a deduction and finds a window empty
CALL_FAULTS = ["ok", "alt", "garbage", "transport", "runtime"]
RETRIEVAL_FAULTS = ["docs", "empty", "retrieval", "malformed", "runtime"]
DOC_TITLE = "INJECTED DOCUMENT"  # marks a grounding prompt
MARK = re.compile(r"<<(q\d+)>>")


class Injector:
    """The client and the retriever of one run, each question following
    its drawn list of faults; past the end of a list, every call gives
    "alt" and every retrieval "docs"."""

    def __init__(self, plans):
        self.plans = plans  # question id -> (call faults, retrieval faults)
        self.charged = {qid: TokenCounts() for qid in plans}
        self.calls = dict.fromkeys(plans, 0)
        self.retrievals = dict.fromkeys(plans, 0)
        self.completed = dict.fromkeys(plans, 0)  # hops ended, all calls done
        self.open_hop = dict.fromkeys(plans, False)  # retrieved, not ended

    @staticmethod
    def next_fault(faults, counter, qid, default):
        i = counter[qid]
        counter[qid] += 1
        return faults[i] if i < len(faults) else default

    def complete(self, messages, params):
        prompt = "\n".join(m.content for m in messages)
        qid = MARK.search(prompt).group(1)
        n = self.calls[qid]
        fault = self.next_fault(self.plans[qid][0], self.calls, qid, "alt")
        grounding = DOC_TITLE in prompt
        if not grounding and self.open_hop[qid]:  # the hop before ended
            self.completed[qid] += 1
            self.open_hop[qid] = False
        if fault == "transport":
            usage = (3 + n, 1)
            self.charged[qid] += TokenCounts(*usage)
        if fault in ("transport", "runtime"):
            self.open_hop[qid] = False  # the hop it lands in cannot end
            if fault == "runtime":
                raise RuntimeError("injected bug")
            raise TransportError("injected transport failure", usage)
        if fault == "garbage":
            text = "no usable reply"
        elif grounding:
            text = ("<ref> some evidence </ref> <revise> revised </revise>"
                    if fault == "ok" else "<ref> Empty </ref>")
        else:
            text = (f"Question {n}: what of <<{qid}>> at call {n}?\n"
                    f"Answer {n}: a guess" if fault == "ok"
                    else f"###Finish[answer to {qid}]")
        completion = Completion(text, 10 + n, len(text.split()))
        self.charged[qid] += completion.counts
        return completion

    def retrieve(self, query, top_k):
        qid = MARK.search(query).group(1)
        fault = self.next_fault(self.plans[qid][1], self.retrievals, qid,
                                "docs")
        if fault == "retrieval":
            raise RetrievalError("injected retrieval failure")
        if fault == "malformed":
            raise MalformedResponse("injected unusable payload")
        if fault == "runtime":
            raise RuntimeError("injected retriever bug")
        self.open_hop[qid] = True
        if fault == "empty":
            return []
        return [Document(id=f"{qid}-d{r}", title=DOC_TITLE, body=f"body {r}")
                for r in range(1, top_k + 1)]

    def hops(self, qid):
        """Completed hops, and the last open one: it ended if the run
        stopped at the hop cap after it."""
        return self.completed[qid] + self.open_hop[qid]


plans = st.lists(
    st.tuples(st.lists(st.sampled_from(CALL_FAULTS), max_size=10),
              st.lists(st.sampled_from(RETRIEVAL_FAULTS), max_size=4)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=plans, concurrency=st.sampled_from([1, 3]))
def test_no_fault_escapes_or_loses_hops_or_tokens(library, caplog, drawn,
                                                  concurrency):
    caplog.set_level(logging.CRITICAL, logger="hopground")
    questions = [Question(id=f"q{i}", text=f"What of <<q{i}>>?")
                 for i in range(len(drawn))]
    injector = Injector({q.id: plan for q, plan in zip(questions, drawn)})
    config = PipelineConfig(max_hops=3, top_k=4, batch_size=2,
                            concurrency=concurrency)

    trajectories = list(answer_stream(questions, config, injector, injector,
                                      library))

    assert [t.question.id for t in trajectories] == [q.id for q in questions]
    for t in trajectories:
        qid = t.question.id
        assert t.token_usage.total == injector.charged[qid], qid
        assert len(t.hops) == injector.hops(qid), qid


@pytest.mark.parametrize("concurrency", [1, 3])
def test_every_fault_at_once(library, caplog, concurrency):
    caplog.set_level(logging.CRITICAL, logger="hopground")
    drawn = [(["ok", "ok", "alt"], ["docs"]),           # finishes after hop 1
             (["ok", "transport"], ["docs"]),           # grounding fails
             (["ok"], ["retrieval"]),
             (["ok"], ["malformed"]),
             (["ok", "ok", "ok", "runtime"], ["docs", "runtime"]),
             (["garbage", "garbage"], []),
             (["ok", "ok", "transport"], ["empty", "docs"]),
             (["ok", "ok", "ok", "ok", "ok", "ok"], [])]  # hop cap
    questions = [Question(id=f"q{i}", text=f"What of <<q{i}>>?")
                 for i in range(len(drawn))]
    injector = Injector({q.id: plan for q, plan in zip(questions, drawn)})
    config = PipelineConfig(max_hops=3, top_k=4, batch_size=2,
                            concurrency=concurrency)
    trajectories = list(answer_stream(questions, config, injector, injector,
                                      library))
    assert [len(t.hops) for t in trajectories] == [1, 0, 0, 0, 1, 0, 1, 3]
    assert [t.token_usage.total for t in trajectories] == [
        injector.charged[q.id] for q in questions]
