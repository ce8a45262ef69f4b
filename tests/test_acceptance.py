"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is offline: scripted models, fixture corpora, and
independent oracles.
"""

import json
import math
import random
import time

import pytest

from hopground.cli import main
from hopground.core import Document, GroundingKind, Question, Termination
from hopground.distill import apply_filters, dataset_stats, emit_corpus, load_training_corpus
from hopground.deduction import DeductionKind, parse_deduction
from hopground.errors import (DeductionParseError, MalformedGrounding,
                              UnclosedFinish)
from hopground.evaluation import cover_em, token_f1
from hopground.grounding import ground, parse_grounding
from hopground.llm import ScriptedClient
from hopground.pipeline import BM25Retriever, PipelineConfig, answer_question
from hopground.prompts import TemplateLibrary
from hopground.retrieval import build_index, load_corpus, retrieve, tokenize

import oracles
from helpers import (FESTIVAL_CORPUS, FESTIVAL_FINAL, FESTIVAL_QUESTION,
                     FESTIVAL_SCRIPT, LoggedScript, write_jsonl)
from test_distill import FILTER_TABLE, GOLD_ANSWER, make_example
from test_evaluation import make_pairs
from test_retrieval import QUERIES

EMPTY = "<ref> Empty </ref>"
CITED = "<ref> some evidence </ref> <revise> a corrected answer </revise>"

LIBRARY = TemplateLibrary.load()


def sentinel_docs(n):
    return [Document(id=f"doc{i:02d}", title=f"Doc {i}",
                     body=f"content SENTINEL{i:02d} text")
            for i in range(1, n + 1)]


class ListRetriever:
    """Hands back a fixed document list regardless of the query."""

    def __init__(self, docs):
        self.docs = list(docs)

    def retrieve(self, query, top_k):
        return self.docs[:top_k]


def test_criterion_01_two_hop_replay():
    started = time.perf_counter()
    llm = ScriptedClient(FESTIVAL_SCRIPT)
    retriever = BM25Retriever(build_index(FESTIVAL_CORPUS))
    trajectory = answer_question(FESTIVAL_QUESTION,
                                 PipelineConfig(concurrency=1), llm,
                                 retriever, LIBRARY)
    elapsed = time.perf_counter() - started

    assert len(trajectory.hops) == 2
    assert trajectory.final_answer == FESTIVAL_FINAL
    assert trajectory.termination is Termination.FINISH_SIGNAL
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS two-hop replay -> {FESTIVAL_FINAL!r} "
          f"in {elapsed * 1000:.0f} ms")


def test_criterion_02_batch_grounding_geometry():
    docs = sentinel_docs(10)
    llm = LoggedScript([EMPTY, CITED])
    _, _, consumed = ground(llm, LIBRARY, FESTIVAL_QUESTION, "sub?", "draft",
                            docs, batch_size=3)
    assert consumed == 2
    assert len(llm.calls) == 2
    second_prompt = llm.calls[1][0].content
    for i in range(1, 11):
        assert (f"SENTINEL{i:02d}" in second_prompt) == (4 <= i <= 6)

    rng = random.Random(20240617)
    for _ in range(200):
        n_docs = rng.randint(0, 30)
        batch_size = rng.randint(1, 8)
        windows = oracles.batch_windows(n_docs, batch_size)
        cited_at = rng.randint(1, len(windows)) if windows and rng.random() < 0.8 else None

        if cited_at is None:
            script = [EMPTY] * len(windows)
            expected_calls = len(windows)
        else:
            script = [EMPTY] * (cited_at - 1) + [CITED]
            expected_calls = cited_at
        docs = sentinel_docs(n_docs)
        llm = LoggedScript(script)
        _, outcome, consumed = ground(llm, LIBRARY, FESTIVAL_QUESTION, "sub?",
                                      "draft", docs, batch_size=batch_size)
        assert consumed == expected_calls
        assert len(llm.calls) == expected_calls
        for call_index, call in enumerate(llm.calls):
            start, end = windows[call_index]
            prompt = call[0].content
            for i in range(1, n_docs + 1):
                assert (f"SENTINEL{i:02d}" in prompt) == (start <= i <= end)
        if cited_at is None:
            assert outcome.kind is GroundingKind.EMPTY
        else:
            assert outcome.kind is GroundingKind.CITED
    print("[criterion 2] PASS window geometry and call counts on 200 random "
          "(n, b, cited) triples")


def test_criterion_03_empty_fallback_byte_equality():
    rng = random.Random(8)
    corpora = "abcdefg αβγ 日本語 --  \t"
    for case in range(100):
        # answers with awkward whitespace and non-ASCII text
        immediate = "".join(rng.choices(corpora, k=rng.randint(1, 40))).strip() or "draft"
        immediate = immediate + rng.choice(["", " ", "  .", " "])
        n_docs = min(rng.randint(0, 12), 10)  # retrieval caps at top_k=10
        batch_size = rng.randint(1, 5)
        n_windows = math.ceil(n_docs / batch_size)
        step = f"Question 1: Find the thing {case}?\nAnswer 1: {immediate}"
        script = [step] + [EMPTY] * n_windows + ["###Finish[done]"]
        trajectory = answer_question(
            Question(id=f"rand{case}", text=f"random question {case}?"),
            PipelineConfig(batch_size=batch_size, concurrency=1),
            ScriptedClient(script), ListRetriever(sentinel_docs(n_docs)),
            LIBRARY)
        hop = trajectory.hops[0]
        assert hop.grounding.kind is GroundingKind.EMPTY
        assert hop.revised_answer == hop.immediate_answer  # byte equality
        assert hop.batches_consumed == n_windows
    print("[criterion 3] PASS empty fallback keeps the immediate answer "
          "byte-for-byte on 100 randomized trajectories")


def test_criterion_04_metrics_match_oracle():
    pairs = make_pairs(50)
    assert len(pairs) == 50
    for prediction, golds in pairs:
        assert cover_em(prediction, golds) == oracles.cover_em(prediction, golds)
        assert token_f1(prediction, golds) == pytest.approx(
            oracles.token_f1(prediction, golds), abs=1e-12)
    hand = token_f1("march and april every year", ["march and april"])
    assert hand == pytest.approx(0.75, abs=1e-9)
    print("[criterion 4] PASS cover-EM and token-F1 match the brute-force "
          "oracle on 50 pairs; hand case F1=0.75")


def test_criterion_05_bm25_matches_oracle(fixtures_dir):
    corpus = list(load_corpus(fixtures_dir / "corpus20.jsonl"))
    index = build_index(corpus)
    for query in QUERIES:
        expected = oracles.bm25_rank(corpus, query, 10)
        got = [d.id for d in retrieve(index, query, 10)]
        assert got == expected
        returned = set(got)
        query_terms = set(tokenize(query))
        for doc in corpus:
            if not query_terms & set(tokenize(f"{doc.title} {doc.body}")):
                assert doc.id not in returned
    print("[criterion 5] PASS BM25 rankings equal the exhaustive oracle on "
          "5 queries over the 20-document fixture")


def test_criterion_06_filter_fixture():
    assert len(FILTER_TABLE) == 12
    for target, reason in FILTER_TABLE:
        verdict = apply_filters(target, GOLD_ANSWER)
        if reason is None:
            assert verdict.keep, target
        else:
            assert not verdict.keep and verdict.reason == reason, target
    print("[criterion 6] PASS all 12 crafted teacher outputs map to the "
          "expected verdicts and first-failing reasons")


def test_criterion_07_stats_shape(tmp_path):
    examples = [make_example(i, target_tokens=5 + i) for i in range(30)]
    stats = dataset_stats(examples)
    assert stats == oracles.corpus_stats(examples)
    assert list(stats) == ["count", "avg_instruction_len", "avg_target_len"]

    # an emitted corpus, read back, reports the same statistics
    path = tmp_path / "corpus.jsonl"
    emit_corpus(examples, path)
    assert dataset_stats(load_training_corpus(path)) == stats
    print("[criterion 7] PASS three corpus statistics match the recount "
          "oracle, and an emitted corpus reports them alike")


def test_criterion_08_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [d.to_dict() for d in FESTIVAL_CORPUS])
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": FESTIVAL_QUESTION.id,
                           "question": FESTIVAL_QUESTION.text,
                           "answers": list(FESTIVAL_QUESTION.gold_answers)}])
    script = tmp_path / "script.json"
    script.write_text(json.dumps(FESTIVAL_SCRIPT), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "pipeline": {"concurrency": 1},
        "llm": {"backend": "scripted", "script_path": str(script)},
        "retrieval": {"corpus_path": str(corpus)},
    }), encoding="utf-8")

    run_bytes = []
    for name in ("a", "b"):
        out = tmp_path / f"run-{name}"
        assert main(["run", "--dataset", str(dataset), "--config", str(config),
                     "--out", str(out)]) == 0
        run_bytes.append((out / "trajectories.jsonl").read_bytes())
    assert run_bytes[0] == run_bytes[1]

    inputs = tmp_path / "synth-inputs.jsonl"
    write_jsonl(inputs, [{
        "id": f"s{i}", "question": f"What is the capital of France ({i})?",
        "answer": "Paris",
        "gold_doc": {"id": f"g{i}", "title": "France",
                     "body": "Paris is the capital and largest city of France."},
        "noise_docs": [{"id": f"n{i}-{j}", "title": "Noise",
                        "body": f"Filler {j}."} for j in range(4)],
    } for i in range(6)])
    student = tmp_path / "student.json"
    student.write_text(json.dumps(["Paris."] * 6), encoding="utf-8")
    teacher = tmp_path / "teacher.json"
    teacher.write_text(json.dumps(
        ["<ref> Paris is the capital of France </ref> <revise> Paris "
         "</revise>"] * 6), encoding="utf-8")
    synth_config = tmp_path / "synth-config.json"
    synth_config.write_text(json.dumps({
        "student_llm": {"backend": "scripted", "script_path": str(student)},
        "teacher_llm": {"backend": "scripted", "script_path": str(teacher)},
    }), encoding="utf-8")

    corpus_bytes = []
    for name in ("a", "b"):
        out = tmp_path / f"synth-{name}.jsonl"
        assert main(["synth", "--input", str(inputs), "--out", str(out),
                     "--seed", "21", "--config", str(synth_config)]) == 0
        corpus_bytes.append(out.read_bytes())
    assert corpus_bytes[0] == corpus_bytes[1]
    print("[criterion 8] PASS identical scripted runs produce byte-identical "
          "trajectory and corpus files")


def test_criterion_09_parser_totality_fuzz():
    rng = random.Random(0xF00D)
    alphabet = ("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                " \t\n:?![]<>/#αβγ東京")
    snippets = ["###Finish[", "]", "Question 1:", "Answer 1:", "<ref>",
                "</ref>", "<revise>", "</revise>", "Empty", "###", "[", "\n",
                # compound fragments so step/cited/empty outcomes are well fed
                "Question 3: q?\nAnswer 3: a\n", "<ref> ev </ref>",
                "<revise> ans </revise>", "<ref> Empty </ref>"]
    deduction_outcomes = {"step": 0, "finish": 0, "parse_failure": 0,
                          "unclosed_finish": 0}
    grounding_outcomes = {"cited": 0, "empty": 0, "malformed": 0}

    for _ in range(10_000):
        parts = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.4:
                parts.append(rng.choice(snippets))
            else:
                parts.append("".join(rng.choices(alphabet,
                                                 k=rng.randint(0, 12))))
        text = "".join(parts)

        try:
            result = parse_deduction(text)
            assert result.kind in (DeductionKind.STEP, DeductionKind.FINISH)
            deduction_outcomes[result.kind.value] += 1
        except UnclosedFinish:
            deduction_outcomes["unclosed_finish"] += 1
        except DeductionParseError:
            deduction_outcomes["parse_failure"] += 1

        try:
            outcome, _ = parse_grounding(text)
            assert outcome.kind in (GroundingKind.CITED, GroundingKind.EMPTY)
            grounding_outcomes[outcome.kind.value] += 1
        except MalformedGrounding:
            grounding_outcomes["malformed"] += 1

    assert sum(deduction_outcomes.values()) == 10_000
    assert sum(grounding_outcomes.values()) == 10_000
    # the generator actually exercises every outcome
    assert all(deduction_outcomes.values()), deduction_outcomes
    assert all(grounding_outcomes.values()), grounding_outcomes
    print(f"[criterion 9] PASS 10,000 fuzzed strings; deduction outcomes "
          f"{deduction_outcomes}, grounding outcomes {grounding_outcomes}")
