"""Seeded inputs for every workload, their planned outcomes, and the
simulated model that answers from the prompt text.

Everything here is a pure function of the workload seed.  The simulated
model (``Responder``) finds the question and the current sub-question in a
rendered prompt and replies with that question's planned step, finish
marker or grounding verdict, so replies do not depend on call order, call
count or thread interleaving.  Its only state is a per-prompt repeat
counter: a planned "malformed once" reply is followed by a good one when
the program retries the identical prompt.

All entity names and relation words are single whitespace tokens and every
text is built from fixed templates, so call counts, and the token counts of
the HTTP workloads, depend only on the plan's structure, which is the same
for every seed.  (The large-corpus workload's grounding windows also hold
background documents, whose lengths vary with the seed.)
"""

from __future__ import annotations

import math
import random
import re
import threading
from collections import Counter

TOP_K = 10        # pipeline default
BATCH_SIZE = 3    # pipeline default
N_WINDOWS = math.ceil(TOP_K / BATCH_SIZE)

RELATIONS = ("founder", "publisher", "director", "sponsor", "architect",
             "mentor", "owner", "editor")
SYLLABLES = ("ka", "lo", "mi", "ra", "ven", "tor", "sel", "dun", "pha", "qui",
             "zer", "bel", "cor", "nal", "vis", "tem", "ros", "gal", "hen",
             "mar", "pol", "fin", "dra", "lu", "ste", "gor", "mel", "tri",
             "sa", "nor")
HELD_OUT_OFFSET = 10 ** 9

# Grounding prompts must carry the <ref> tag instruction, deduction prompts
# the finish marker: the parsers require both, so these cues do not depend
# on template wording.
GROUNDING_CUE = "<ref>"
_ENTITY_RE = re.compile(r"[A-Z][a-z]+")

MALFORMED_DEDUCTION = "I need more information before I can answer that."
EMPTY_GROUNDING = "<ref> Empty </ref>"


def stream_seed(seed: int, held_out: bool) -> int:
    """Seed of the input stream; held-out seeds never meet plain ones."""
    return seed + HELD_OUT_OFFSET if held_out else seed


def count_tokens(text: str) -> int:
    return len(text.split())


class Names:
    """Unique capitalised pseudo-words, one whitespace token each."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def __call__(self) -> str:
        while True:
            name = "".join(self._rng.choice(SYLLABLES) for _ in range(3))
            name = name.capitalize()
            if name not in self._used:
                self._used.add(name)
                return name


# --- multi-hop questions -------------------------------------------------

# Share of each hop-count group given a special role.  Group sizes are equal
# and the roles sit at fixed hop positions, so the structure (and with it
# every call and token count) is identical for every seed; the seed decides
# names, relations and which question of a group gets which rank.
ROLE_SHARES = {
    1: {"final_wrong": 0.2},
    2: {"deduce_malformed_once": 0.2},
    3: {"deduce_fail": 0.16},
    4: {"final_wrong": 0.12, "deduce_malformed_once": 0.12},
}
GROUND_MALFORMED_SHARE = 0.06   # hops whose first window is malformed once
RANK_SHARES = (0.5, 0.25)       # window 1, windows 2-4; the rest are absent


def _rank_pool(n_slots: int, n_forced_absent: int) -> list[int | None]:
    """Planned gold ranks for ``n_slots`` hops, ``n_forced_absent`` of them
    already absent: about half in window 1, a quarter in windows 2-4 and a
    quarter absent (rank None)."""
    n_w1 = round(RANK_SHARES[0] * n_slots)
    n_w24 = round(RANK_SHARES[1] * n_slots)
    n_absent = n_slots - n_w1 - n_w24 - n_forced_absent
    if n_absent < 0:
        raise ValueError("too many forced-absent hops for the rank mix")
    w1 = [1 + i % BATCH_SIZE for i in range(n_w1)]
    w24 = [BATCH_SIZE + 1 + i % (TOP_K - BATCH_SIZE) for i in range(n_w24)]
    return w1 + w24 + [None] * n_absent


def make_questions(rng: random.Random, names: Names, per_group: int,
                   prefix: str, sub_question_suffix=None) -> list[dict]:
    """``4 * per_group`` questions with 1-4 planned hops each.

    ``sub_question_suffix(rng)`` appends extra query words to every
    sub-question (the large-corpus workload adds common corpus terms).
    """
    questions = []
    for h in (1, 2, 3, 4):
        roles = {role: round(share * per_group)
                 for role, share in ROLE_SHARES[h].items()}
        order = list(range(per_group))
        rng.shuffle(order)
        role_of: dict[int, str] = {}
        cursor = 0
        for role, n in roles.items():
            for i in order[cursor:cursor + n]:
                role_of[i] = role
            cursor += n

        group = []
        for i in range(per_group):
            role = role_of.get(i)
            fail_at = 1 if role == "deduce_fail" else None  # 0-based hop
            executed = h if fail_at is None else fail_at
            forced_absent = executed - 1 if role == "final_wrong" else None
            group.append((role, fail_at, executed, forced_absent))

        n_slots = sum(g[2] for g in group)
        n_forced = sum(1 for g in group if g[3] is not None)
        ranks = _rank_pool(n_slots, n_forced)
        rng.shuffle(ranks)
        slots = [(i, j) for i, g in enumerate(group) for j in range(g[2])
                 if j != g[3]]
        rank_of = dict(zip(slots, ranks))
        n_malformed = round(GROUND_MALFORMED_SHARE * n_slots)
        all_slots = [(i, j) for i, g in enumerate(group) for j in range(g[2])]
        malformed = set(rng.sample(all_slots, n_malformed))

        for i, (role, fail_at, executed, forced_absent) in enumerate(group):
            qid = f"{prefix}{len(questions):04d}"
            chain = [names() for _ in range(h + 1)]
            rels = [rng.choice(RELATIONS) for _ in range(h)]
            text = "Which entity is the " + " of the ".join(reversed(rels)) \
                + f" of {chain[0]}?"
            hops = []
            for j in range(executed + (1 if fail_at is not None else 0)):
                subject, answer, rel = chain[j], chain[j + 1], rels[j]
                sub_q = f"What is the {rel} of {subject}"
                if sub_question_suffix is not None:
                    sub_q += " " + sub_question_suffix(rng)
                sub_q += "?"
                rank = rank_of.get((i, j))
                deduce = "ok"
                if fail_at == j:
                    deduce = "fail"
                elif role == "deduce_malformed_once" and \
                        j == (1 if h == 2 else 0):
                    deduce = "malformed_once"
                cited = rank is not None
                immediate = answer
                if cited or (j == forced_absent):
                    immediate = names()   # a wrong first guess
                hops.append({
                    "subject": subject, "rel": rel, "answer": answer,
                    "sub_question": sub_q, "immediate": immediate,
                    "gold_rank": rank, "deduce": deduce,
                    "ground_malformed": (i, j) in malformed,
                    "gold_title": f"{subject} registry",
                    "evidence": f"The {rel} of {subject} is {answer}",
                })
            questions.append({"id": qid, "text": text, "answer": chain[-1],
                              "hops": hops})
    return questions


def expected_trajectory(q: dict) -> dict:
    """Final answer, termination and per-hop outcome the plan implies."""
    hops = []
    for hop in q["hops"]:
        if hop["deduce"] == "fail":
            return {"final_answer": hops[-1]["revised"] if hops else "",
                    "termination": "parse_failure", "hops": hops}
        rank = hop["gold_rank"]
        hops.append({
            "revised": hop["answer"] if rank else hop["immediate"],
            "kind": "cited" if rank else "empty",
            "batches_consumed": (math.ceil(rank / BATCH_SIZE) if rank
                                 else N_WINDOWS),
            "gold_rank": rank,
        })
    return {"final_answer": hops[-1]["revised"],
            "termination": "finish_signal", "hops": hops}


def expected_calls(q: dict) -> int:
    """LLM calls the plan implies for one question."""
    calls = 0
    for hop in q["hops"]:
        if hop["deduce"] == "fail":
            return calls + 2
        calls += 2 if hop["deduce"] == "malformed_once" else 1
        rank = hop["gold_rank"]
        calls += math.ceil(rank / BATCH_SIZE) if rank else N_WINDOWS
        calls += 1 if hop["ground_malformed"] else 0
    return calls + 1   # the finish deduction


def first_titles(q: dict, decoy_title) -> None:
    """Record each hop's rank-1 document title (where a planned malformed
    grounding reply goes): the gold document or the first decoy."""
    for hop in q["hops"]:
        rank = hop["gold_rank"]
        hop["first_title"] = hop["gold_title"] if rank == 1 \
            else decoy_title(hop, 0)


# --- the simulated model -------------------------------------------------

class Responder:
    """Answers deduction, grounding and synthesis prompts from their text."""

    def __init__(self, questions=(), synth_inputs=()):
        self._questions = {q["id"]: q for q in questions}
        self._synth = {s["id"]: s for s in synth_inputs}
        self._by_entity: dict[str, set[str]] = {}
        for q in questions:
            for token in _ENTITY_RE.findall(q["text"]):
                self._by_entity.setdefault(token, set()).add(q["id"])
        for s in synth_inputs:
            for token in _ENTITY_RE.findall(s["question"]):
                self._by_entity.setdefault(token, set()).add(s["id"])
        self._seen: Counter = Counter()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()

    def _repeat(self, prompt: str) -> int:
        """How many times this exact prompt was seen before."""
        with self._lock:
            n = self._seen[prompt]
            self._seen[prompt] = n + 1
        return n

    def _find(self, prompt: str) -> tuple[str, dict] | None:
        for token in set(_ENTITY_RE.findall(prompt)):
            for item_id in self._by_entity.get(token, ()):
                q = self._questions.get(item_id)
                if q is not None and q["text"] in prompt:
                    return "question", q
                s = self._synth.get(item_id)
                if s is not None and s["question"] in prompt:
                    return "synth", s
        return None

    def reply(self, prompt: str) -> tuple[str | None, str]:
        """``(reply text, item id)``; text None asks for a transport error."""
        found = self._find(prompt)
        if found is None:
            return MALFORMED_DEDUCTION, "?"
        kind, item = found
        if kind == "synth":
            return self._synth_reply(prompt, item), item["id"]
        if GROUNDING_CUE in prompt:
            return self._ground(prompt, item), item["id"]
        return self._deduce(prompt, item), item["id"]

    def _deduce(self, prompt: str, q: dict) -> str:
        hops = q["hops"]
        step = sum(1 for hop in hops if hop["sub_question"] in prompt)
        if step == len(hops):
            return f"###Finish[{expected_trajectory(q)['final_answer']}]"
        hop = hops[step]
        if hop["deduce"] == "fail" or (hop["deduce"] == "malformed_once"
                                       and self._repeat(prompt) == 0):
            return MALFORMED_DEDUCTION
        n = step + 1
        return (f"Question {n}: {hop['sub_question']}\n"
                f"Answer {n}: {hop['immediate']}")

    def _ground(self, prompt: str, q: dict) -> str:
        hop = next((h for h in q["hops"] if h["sub_question"] in prompt), None)
        if hop is None:
            return EMPTY_GROUNDING
        if hop["ground_malformed"] and hop["first_title"] in prompt \
                and self._repeat(prompt) == 0:
            return f"The documents mention {hop['answer']} somewhere."
        if hop["gold_title"] in prompt:
            return (f"<ref> {hop['evidence']} </ref> "
                    f"<revise> {hop['answer']} </revise>")
        return EMPTY_GROUNDING

    def _synth_reply(self, prompt: str, s: dict) -> str | None:
        if GROUNDING_CUE not in prompt:
            return s["student"]
        outcome = s["outcome"]
        if outcome == "llm_error":
            return None
        if outcome == "empty_evidence" or s["gold_doc"]["title"] not in prompt:
            return EMPTY_GROUNDING
        ref = f"<ref> {s['evidence']} </ref>"
        if outcome == "missing_revision":
            return ref
        answer = s["answer"] if outcome == "keep" else s["wrong"]
        return f"{ref} <revise> {answer} </revise>"


# --- documents shared by the HTTP workloads ------------------------------

def _filler(subject: str, rel: str, k: str) -> str:
    return (f"{subject} appears in survey {k} of the regional archive. The "
            f"entry lists holdings, dates and catalogue marks for {subject} "
            f"but says nothing about its {rel} or any related party.")


def gold_document(doc_id: str, subject: str, rel: str, answer: str) -> dict:
    body = (f"{subject} is a catalogued entity of the regional archive. The "
            f"{rel} of {subject} is {answer}, as the archive ledger records "
            f"and later surveys of the collection confirm without dispute.")
    return {"id": doc_id, "title": f"{subject} registry", "body": body}


def filler_document(doc_id: str, subject: str, rel: str, k: int) -> dict:
    return {"id": doc_id, "title": f"{subject} survey-{k}",
            "body": _filler(subject, rel, f"S{k}")}


# --- workload inputs -----------------------------------------------------

MULTIHOP_PER_GROUP = 50      # 200 questions: p95 has 10 samples beyond it


def multihop_inputs(seed: int) -> dict:
    """Questions, plans and the retrieval service's planned result lists."""
    rng = random.Random(f"multihop:{seed}")
    names = Names(rng)
    questions = make_questions(rng, names, MULTIHOP_PER_GROUP, "mh")
    search: dict[str, dict] = {}
    for q in questions:
        first_titles(q, lambda hop, k: f"{hop['subject']} survey-{k}")
        for j, hop in enumerate(q["hops"]):
            if hop["deduce"] == "fail":
                break
            subject, rel = hop["subject"], hop["rel"]
            fillers = iter(filler_document(f"{q['id']}-h{j}-s{k}", subject,
                                           rel, k) for k in range(TOP_K))
            results = []
            for rank in range(1, TOP_K + 1):
                if rank == hop["gold_rank"]:
                    results.append(gold_document(f"{q['id']}-h{j}-gold",
                                                 subject, rel, hop["answer"]))
                else:
                    results.append(next(fillers))
            search[hop["sub_question"]] = {"results": results}
    return {"questions": questions, "search": search}


SYNTH_ITEMS = 400
SYNTH_OUTCOMES = (("keep", 0.5), ("empty_evidence", 0.15),
                  ("missing_revision", 0.1), ("misaligned", 0.15),
                  ("llm_error", 0.1))
SYNTH_STUDENT_CORRECT = 0.4
SYNTH_NOISE_DOCS = 9


def synth_inputs(seed: int) -> list[dict]:
    """Single-hop synthesis inputs with planned student and teacher replies."""
    rng = random.Random(f"synth:{seed}")
    names = Names(rng)
    outcomes = [o for o, share in SYNTH_OUTCOMES
                for _ in range(round(share * SYNTH_ITEMS))]
    rng.shuffle(outcomes)
    n_correct = round(SYNTH_STUDENT_CORRECT * SYNTH_ITEMS)
    correct = set(rng.sample(range(SYNTH_ITEMS), n_correct))
    items = []
    for i, outcome in enumerate(outcomes):
        subject, answer, wrong = names(), names(), names()
        rel = rng.choice(RELATIONS)
        sid = f"sy{i:04d}"
        items.append({
            "id": sid,
            "question": f"What is the {rel} of {subject}?",
            "answer": answer,
            "student": answer if i in correct else names(),
            "wrong": wrong,
            "outcome": outcome,
            "evidence": f"The {rel} of {subject} is {answer}",
            "gold_doc": gold_document(f"{sid}-gold", subject, rel, answer),
            "noise_docs": [filler_document(f"{sid}-n{k}", subject, rel, k)
                           for k in range(SYNTH_NOISE_DOCS)],
        })
    return items


def synth_expected(item: dict) -> tuple[bool, str | None]:
    """Planned keep/drop verdict and drop reason of one synthesis input."""
    if item["outcome"] == "keep":
        return True, None
    return False, item["outcome"]
