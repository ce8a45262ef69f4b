"""Byte-level pins of what ``run``, ``eval`` and ``synth`` write, and of
every prompt they send.

The files under ``fixtures/golden`` are the outputs of the commands in
``produce``; ``prompts.jsonl`` holds the messages of every model call that
the same run and synth send through the library API, and one judge prompt.
A change that keeps the program's behaviour must reproduce them byte for
byte; ``manifest.json`` is compared with its two timestamps and its
(temporary) dataset path masked.  Reading the trajectory and synth
files back and writing them again must also give the same bytes.  After an
intended change of the outputs, regenerate them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from hopground.cli import main
from hopground.core import Question
from hopground.distill import (SynthesisConfig, TrainingExample,
                               emit_corpus, load_synthesis_inputs,
                               load_training_corpus, synthesize_stream)
from hopground.evaluation import judge
from hopground.llm import ScriptedClient
from hopground.pipeline import (BM25Retriever, PipelineConfig, answer_dataset,
                                load_trajectories, write_trajectories)
from hopground.prompts import TemplateLibrary
from hopground.retrieval import build_index

from helpers import (FESTIVAL_CORPUS, FESTIVAL_FINAL, FESTIVAL_QUESTION,
                     FESTIVAL_SCRIPT, write_festival_files, write_synth_files)

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
# synth.jsonl as it was written while the teacher was sent its own template
# over the gold and every noise document, in the doc_ids form
DOC_IDS_FORM = GOLDEN.parent / "synth-doc-ids-form.jsonl"
# synth.jsonl as it was written while each line also held the gold
# document's body as gold_body; it must still load
GOLD_BODY_FORM = GOLDEN.parent / "synth-gold-body-form.jsonl"
# what ``stats`` prints for the doc_ids form
DOC_IDS_FORM_STATS = """{
  "avg_instruction_len": 93.0,
  "avg_target_len": 11.0,
  "count": 8
}
"""
# what ``stats`` prints for the golden corpus, whose instructions are
# grounding prompts over one window of three documents
GOLDEN_STATS = """{
  "avg_instruction_len": 97.0,
  "avg_target_len": 11.0,
  "count": 8
}
"""
# trajectories as run wrote them while a question's empty "metadata", a
# document's null "body" and an empty grounding's null "citation" and
# "revised_answer" were still written; they must still load
NULL_FORM = GOLDEN.parent / "trajectories-null-form.jsonl"

# The festival question, then one whose script runs out after its first
# hop, so that it ends in parse_failure.
SECOND_QUESTION = Question(
    id="festival-name",
    text=("Which documentary film festival is presented by the fortnightly "
          "British journal of literary essays?"),
    gold_answers=("London International Documentary Festival",),
)
SCRIPT = FESTIVAL_SCRIPT + FESTIVAL_SCRIPT[:2]

OUTPUTS = ("trajectories.jsonl", "manifest.json", "records.csv",
           "summary.json", "synth.jsonl")
GOLDEN_FILES = (*OUTPUTS, "prompts.jsonl")

_VOLATILE = re.compile(
    rb'("(?:started_at|finished_at|dataset_path)": )"(?:[^"\\]|\\.)*"')


def produce(work: Path) -> dict[str, bytes]:
    """Run the pinned commands in ``work``; each output's bytes by name."""
    files = write_festival_files(work, questions=(FESTIVAL_QUESTION,
                                                  SECOND_QUESTION),
                                 script=SCRIPT)
    out = files["out"]
    assert main(["run", "--dataset", str(files["dataset"]),
                 "--config", str(files["config"]), "--out", str(out)]) == 0
    assert main(["eval", "--trajectories", str(out / "trajectories.jsonl"),
                 "--dataset", str(files["dataset"])]) == 0
    synth = write_synth_files(work)
    assert main(["synth", "--input", str(synth["input"]),
                 "--out", str(out / "synth.jsonl"), "--seed", "7",
                 "--config", str(synth["config"]), "--include-dropped"]) == 0
    outputs = {name: (out / name).read_bytes() for name in OUTPUTS}
    outputs["manifest.json"] = _VOLATILE.sub(rb'\1"*"',
                                             outputs["manifest.json"])
    outputs["prompts.jsonl"] = prompts(synth["dir"])
    return outputs


class _Logged:
    """Passes each call to ``inner`` and logs its messages under ``source``,
    a call that then fails included."""

    def __init__(self, inner, source: str, log: list):
        self._inner, self._source, self._log = inner, source, log

    def complete(self, messages, params):
        self._log.append({"source": self._source,
                          "messages": [m.to_dict() for m in messages]})
        return self._inner.complete(messages, params)


def prompts(synth_dir: Path) -> bytes:
    """The messages of every call the pinned run and synth send, and of one
    judge call, as JSON lines in call order."""
    library = TemplateLibrary.load()
    log: list = []
    answer_dataset([FESTIVAL_QUESTION, SECOND_QUESTION],
                   PipelineConfig(concurrency=1),
                   _Logged(ScriptedClient(SCRIPT), "run", log),
                   BM25Retriever(build_index(FESTIVAL_CORPUS)), library)
    list(synthesize_stream(
        load_synthesis_inputs(synth_dir / "inputs.jsonl"), 10,
        ScriptedClient.from_file(synth_dir / "student.json"),
        _Logged(ScriptedClient.from_file(synth_dir / "teacher.json"),
                "synth_teacher", log),
        library, seed=7, config=SynthesisConfig()))
    judge(_Logged(ScriptedClient(["Yes"]), "judge", log), library,
          FESTIVAL_QUESTION.text, FESTIVAL_FINAL,
          FESTIVAL_QUESTION.gold_answers[0])
    return "".join(json.dumps(entry) + "\n" for entry in log).encode()


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_outputs_match_golden_bytes(tmp_path, name):
    assert produce(tmp_path)[name] == (GOLDEN / name).read_bytes()


def test_trajectories_load_and_write_back_byte_for_byte(tmp_path):
    out = tmp_path / "trajectories.jsonl"
    write_trajectories(load_trajectories(GOLDEN / "trajectories.jsonl"), out)
    assert out.read_bytes() == (GOLDEN / "trajectories.jsonl").read_bytes()


def test_synth_corpus_loads_and_emits_back_byte_for_byte(tmp_path):
    out = tmp_path / "synth.jsonl"
    emit_corpus(load_training_corpus(GOLDEN / "synth.jsonl"), out,
                include_dropped=True)
    assert out.read_bytes() == (GOLDEN / "synth.jsonl").read_bytes()


def without_gold_body(line: bytes) -> bytes:
    """A corpus line of the gold_body form, less its gold_body key."""
    gold_body = json.dumps(json.loads(line)["gold_body"], ensure_ascii=False)
    return line.replace(f'"gold_body":{gold_body},'.encode(), b"")


def test_doc_ids_form_emits_back_without_its_gold_body(tmp_path):
    out = tmp_path / "synth.jsonl"
    emit_corpus(load_training_corpus(DOC_IDS_FORM), out, include_dropped=True)
    old_lines = DOC_IDS_FORM.read_bytes().splitlines()
    assert len(old_lines) == 10
    assert out.read_bytes().splitlines() == list(map(without_gold_body,
                                                     old_lines))


def test_stats_of_the_doc_ids_form(capsys):
    assert main(["stats", "--corpus", str(DOC_IDS_FORM)]) == 0
    assert capsys.readouterr().out == DOC_IDS_FORM_STATS


def test_synth_corpus_in_the_gold_body_form_loads_alike():
    old_lines = GOLD_BODY_FORM.read_bytes().splitlines()
    new_lines = (GOLDEN / "synth.jsonl").read_bytes().splitlines()
    assert len(old_lines) == len(new_lines) == 10
    for old, new in zip(old_lines, new_lines):
        assert without_gold_body(old) == new
        assert (TrainingExample.from_dict(json.loads(old))
                == TrainingExample.from_dict(json.loads(new)))


def test_stats_of_the_golden_corpus(capsys):
    assert main(["stats", "--corpus", str(GOLDEN / "synth.jsonl")]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS


def test_stats_prints_the_same_bytes_for_the_gold_body_form(capsys):
    assert main(["stats", "--corpus", str(GOLD_BODY_FORM)]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS


@pytest.fixture()
def rewritten_null_form(tmp_path):
    """The null-form file, loaded and written back by this version."""
    path = tmp_path / "rewritten.jsonl"
    write_trajectories(load_trajectories(NULL_FORM), path)
    return path


def test_trajectories_in_the_null_form_load_alike(rewritten_null_form):
    old = NULL_FORM.read_bytes()
    assert old.count(b'"metadata":{}') == 3
    assert old.count(b'"body":null') == 7
    assert b'"citation":null,"revised_answer":null' in old
    assert list(load_trajectories(rewritten_null_form)) == list(
        load_trajectories(NULL_FORM))
    assert b"null" not in rewritten_null_form.read_bytes()


def test_eval_writes_the_same_bytes_for_either_trajectory_form(
        tmp_path, rewritten_null_form):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(
        json.dumps({"id": t.question.id, "question": t.question.text,
                    "answers": list(t.question.gold_answers)}) + "\n"
        for t in load_trajectories(NULL_FORM)), encoding="utf-8")
    outputs = []
    for form, path in [("null", NULL_FORM), ("new", rewritten_null_form)]:
        out = tmp_path / form
        assert main(["eval", "--trajectories", str(path),
                     "--dataset", str(dataset), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("records.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_golden_prompts_cover_every_renderer():
    entries = [json.loads(line) for line in (
        GOLDEN / "prompts.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [e["source"] for e in entries] == ["run"] * 8 + [
        "synth_teacher"] * 10 + ["judge"]
    assert all([m["role"] for m in e["messages"]] == ["user"]
               for e in entries)


def test_golden_run_covers_a_finish_and_a_failure():
    trajectories = [json.loads(line) for line in (
        GOLDEN / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(t["termination"], len(t["hops"])) for t in trajectories] == [
        ("finish_signal", 2), ("parse_failure", 1)]
    totals = json.loads((GOLDEN / "manifest.json").read_text(
        encoding="utf-8"))["totals"]
    for key in ("prompt_tokens", "completion_tokens"):
        assert totals[key] == sum(t["token_usage"]["total"][key]
                                  for t in trajectories)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in produce(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(GOLDEN_FILES)} golden files -> {GOLDEN}",
          file=sys.stderr)
