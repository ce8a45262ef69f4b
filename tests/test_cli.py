import json

import pytest

from hopground.cli import main
from hopground.retrieval import build_index, load_corpus, load_index, retrieve

from helpers import (FESTIVAL_CORPUS, FESTIVAL_FINAL, FESTIVAL_QUESTION,
                     FESTIVAL_SCRIPT, InFlightStub, write_jsonl)

OPENAI = {"backend": "openai", "base_url": "http://127.0.0.1:9", "model": "m"}
KEEP_TARGET = "<ref> Paris is the capital of France </ref> <revise> Paris </revise>"


def write_json(path, payload):
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


@pytest.fixture()
def festival_run(tmp_path):
    """All input files for a scripted festival-question run."""
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [d.to_dict() for d in FESTIVAL_CORPUS])
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": FESTIVAL_QUESTION.id,
                           "question": FESTIVAL_QUESTION.text,
                           "answers": list(FESTIVAL_QUESTION.gold_answers)}])
    script = write_json(tmp_path / "script.json", FESTIVAL_SCRIPT)
    config = write_json(tmp_path / "config.json", {
        "pipeline": {"concurrency": 1},
        "llm": {"backend": "scripted", "script_path": str(script)},
        "retrieval": {"corpus_path": str(corpus)},
    })
    return {"corpus": corpus, "dataset": dataset, "script": script,
            "config": config, "out": tmp_path / "out"}


class TestIndexCommand:
    def test_builds_cache_with_identical_retrieval(self, fixtures_dir, tmp_path):
        cache = tmp_path / "index.bin"
        corpus_path = str(fixtures_dir / "corpus20.jsonl")
        assert main(["index", "--corpus", corpus_path,
                     "--out", str(cache)]) == 0
        fresh = build_index(load_corpus(corpus_path))
        reloaded = load_index(cache)
        query = "longest river in the world"
        assert ([d.id for d in retrieve(fresh, query, 10)]
                == [d.id for d in retrieve(reloaded, query, 10)])

    def test_empty_corpus_exits_nonzero(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["index", "--corpus", str(empty),
                     "--out", str(tmp_path / "x.bin")]) == 2

    def test_duplicate_ids_exit_nonzero(self, tmp_path):
        corpus = tmp_path / "dup.jsonl"
        write_jsonl(corpus, [{"id": "a", "title": "", "body": "x"},
                             {"id": "a", "title": "", "body": "y"}])
        assert main(["index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.bin")]) == 2


class TestRunCommand:
    def test_festival_fixture(self, festival_run):
        code = main(["run", "--dataset", str(festival_run["dataset"]),
                     "--format", "generic",
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])])
        assert code == 0
        lines = (festival_run["out"] / "trajectories.jsonl").read_text(
            encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        trajectory = json.loads(lines[0])
        assert trajectory["final_answer"] == FESTIVAL_FINAL
        assert trajectory["termination"] == "finish_signal"
        assert len(trajectory["hops"]) == 2

        manifest = json.loads(
            (festival_run["out"] / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["totals"]["questions"] == 1
        assert manifest["totals"]["hops"] == 2
        assert manifest["totals"]["llm_calls"] == 5
        assert manifest["totals"]["failures"] == 0
        assert manifest["config"]["pipeline"]["max_hops"] == 5

    def test_max_hops_override_lands_in_manifest(self, festival_run):
        code = main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"]), "--max-hops", "1"])
        assert code == 0
        manifest = json.loads(
            (festival_run["out"] / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["pipeline"]["max_hops"] == 1
        trajectory = json.loads((festival_run["out"] / "trajectories.jsonl")
                                .read_text(encoding="utf-8"))
        assert trajectory["termination"] == "max_hops_reached"

    def test_rerun_is_byte_identical(self, festival_run, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"out-{name}"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(festival_run["config"]),
                         "--out", str(out)]) == 0
            outputs.append((out / "trajectories.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_error_before_any_llm_call(self, festival_run):
        bad = write_json(festival_run["config"].parent / "bad.json",
                         {"llm": {"backend": "quantum"}})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(bad),
                     "--out", str(festival_run["out"])]) == 1

    def test_requests_in_flight_follow_pipeline_concurrency(
            self, festival_run, tmp_path, monkeypatch):
        monkeypatch.delenv("HOPGROUND_BASE_URL", raising=False)
        dataset = tmp_path / "six.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"Question {i}?",
                               "answers": ["x"]} for i in range(6)])
        stub = InFlightStub(6)
        try:
            config = write_json(tmp_path / "wide.json", {
                "pipeline": {"concurrency": 6},
                "llm": {"backend": "openai", "base_url": stub.url,
                        "model": "stub", "api_key_env": "HOPGROUND_NO_KEY"},
                "retrieval": {"corpus_path": str(festival_run["corpus"])},
            })
            out = tmp_path / "wide-out"
            assert main(["run", "--dataset", str(dataset),
                         "--config", str(config), "--out", str(out)]) == 0
        finally:
            stub.close()
        assert stub.most_in_flight == 6
        lines = (out / "trajectories.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert [json.loads(x)["final_answer"] for x in lines] == ["x"] * 6

    def test_llm_max_concurrency_is_rejected(self, festival_run, tmp_path,
                                             capsys):
        config = write_json(tmp_path / "capped.json", {
            "pipeline": {"concurrency": 16},
            "llm": {"backend": "openai", "base_url": "http://127.0.0.1:9",
                    "model": "m", "max_concurrency": 4},
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "llm.max_concurrency" in err
        assert "pipeline.concurrency" in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("override, key", [
        ({"pipeline": {"max_hops": "3"}}, "max_hops"),
        ({"pipeline": {"concurrency": True}}, "concurrency"),
        ({"pipeline": {"decoding": {"max_output_tokens": 1.5}}},
         "max_output_tokens"),
        ({"pipeline": {"decoding": []}}, "decoding"),
        ({"pipeline": 5}, "pipeline"),
        ({"templates": []}, "templates"),
        ({"templates": {"num_examples": "2"}}, "num_examples"),
        ({"llm": {**OPENAI, "max_attempts": "3"}}, "max_attempts"),
        ({"llm": {**OPENAI, "max_attempts": 0}}, "max_attempts"),
        ({"llm": {**OPENAI, "timeout": "120"}}, "timeout"),
        ({"pipeline": {"retriever": "external"},
          "retrieval": {"external_endpoint": "http://127.0.0.1:9",
                        "timeout": "30"}}, "timeout"),
    ])
    def test_wrong_typed_config_exits_one(self, festival_run, tmp_path,
                                          capsys, override, key):
        config = write_json(tmp_path / "typed.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            **override})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    def test_missing_config_file(self, festival_run):
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", "/nonexistent/config.json",
                     "--out", str(festival_run["out"])]) == 1

    def test_truncated_index_cache_exits_one(self, festival_run, tmp_path,
                                             capsys):
        cache = tmp_path / "index.bin"
        assert main(["index", "--corpus", str(festival_run["corpus"]),
                     "--out", str(cache)]) == 0
        cache.write_bytes(cache.read_bytes()[:-100])
        config = write_json(tmp_path / "cached.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "retrieval": {"index_path": str(cache)}})
        capsys.readouterr()
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert str(cache) in err
        assert "Traceback" not in err

    def test_malformed_dataset_exits_two(self, festival_run, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("NOT JSON\n", encoding="utf-8")
        assert main(["run", "--dataset", str(bad),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 2

    def test_external_retriever_end_to_end(self, festival_run, tmp_path):
        from helpers import StubServer
        stub = StubServer()
        try:
            results = {"results": [d.to_dict() for d in FESTIVAL_CORPUS]}
            stub.queue(200, results)
            stub.queue(200, results)
            script = write_json(tmp_path / "ext-script.json", [
                FESTIVAL_SCRIPT[0], FESTIVAL_SCRIPT[1], FESTIVAL_SCRIPT[2],
                FESTIVAL_SCRIPT[3], FESTIVAL_SCRIPT[4]])
            config = write_json(tmp_path / "ext-config.json", {
                "pipeline": {"concurrency": 1, "retriever": "external"},
                "llm": {"backend": "scripted", "script_path": str(script)},
                "retrieval": {"external_endpoint": stub.url + "/search"},
            })
            out = tmp_path / "ext-out"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(config), "--out", str(out)]) == 0
            trajectory = json.loads((out / "trajectories.jsonl")
                                    .read_text(encoding="utf-8"))
            assert trajectory["final_answer"] == FESTIVAL_FINAL
            assert len(stub.requests) == 2  # one retrieval per hop
        finally:
            stub.close()

    def test_per_question_failure_still_exits_zero(self, festival_run, tmp_path):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [
            {"id": "q1", "question": "first?", "answers": ["x"]},
            {"id": "q2", "question": "second?", "answers": ["y"]},
        ])
        script = write_json(tmp_path / "one-reply.json", ["###Finish[x]"])
        config = write_json(tmp_path / "config2.json", {
            "pipeline": {"concurrency": 1},
            "llm": {"backend": "scripted", "script_path": str(script)},
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })
        out = tmp_path / "out2"
        assert main(["run", "--dataset", str(dataset), "--config", str(config),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["totals"]["failures"] == 1


class TestEvalCommand:
    def run_festival(self, festival_run):
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 0
        return festival_run["out"] / "trajectories.jsonl"

    def test_perfect_predictions_score_100(self, festival_run, capsys):
        trajectories = self.run_festival(festival_run)
        code = main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc 100.00" in out
        assert "F1 100.00" in out
        summary = json.loads((festival_run["out"] / "summary.json")
                             .read_text(encoding="utf-8"))
        assert summary == {"acc": 100.0, "f1": 100.0, "acc_judge": None}
        assert (festival_run["out"] / "records.csv").exists()

    def test_id_mismatch_lists_missing(self, festival_run, tmp_path, capsys):
        trajectories = self.run_festival(festival_run)
        other = tmp_path / "other.jsonl"
        write_jsonl(other, [{"id": "different", "question": "?",
                             "answers": ["x"]}])
        code = main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(other)])
        assert code == 2
        assert FESTIVAL_QUESTION.id in capsys.readouterr().err

    def test_garbage_trajectories_exit_two(self, festival_run, tmp_path,
                                           capsys):
        trajectories = tmp_path / "garbage.jsonl"
        trajectories.write_text("not a trajectory\n", encoding="utf-8")
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{trajectories}" in err and "(line 1)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_file", ["dataset", "trajectories"])
    def test_wrong_typed_question_exits_two(self, festival_run, bad_file,
                                            capsys):
        files = {"trajectories": self.run_festival(festival_run),
                 "dataset": festival_run["dataset"]}
        record = json.loads(files[bad_file].read_text(encoding="utf-8"))
        if bad_file == "dataset":
            record["question"] = 7
        else:
            record["question"]["text"] = 5
        write_jsonl(files[bad_file], [record])
        capsys.readouterr()
        assert main(["eval", "--trajectories", str(files["trajectories"]),
                     "--dataset", str(files["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{files[bad_file]}" in err and "(line 1)" in err
        assert "Traceback" not in err

    def test_judge_alternating_verdicts(self, tmp_path, capsys):
        questions = [{"id": f"q{i}", "question": f"Q{i}?", "answers": ["gold"]}
                     for i in range(10)]
        dataset = tmp_path / "ds.jsonl"
        write_jsonl(dataset, questions)
        trajectories = tmp_path / "trajs.jsonl"
        write_jsonl(trajectories, [{
            "question": {"id": f"q{i}", "text": f"Q{i}?", "gold_answers": ["gold"],
                         "metadata": {}},
            "hops": [], "final_answer": "gold",
            "termination": "finish_signal",
            "token_usage": {"per_hop": [], "total": {"prompt_tokens": 0,
                                                     "completion_tokens": 0}},
        } for i in range(10)])
        judge_script = write_json(tmp_path / "judge.json",
                                  ["Yes", "No"] * 5)
        config = write_json(tmp_path / "config.json", {
            "judge_llm": {"backend": "scripted",
                          "script_path": str(judge_script)},
        })
        code = main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(config),
                     "--out", str(tmp_path / "reports")])
        assert code == 0
        assert "Acc† 50.00" in capsys.readouterr().out
        summary = json.loads((tmp_path / "reports" / "summary.json")
                             .read_text(encoding="utf-8"))
        assert summary["acc_judge"] == 50.00


@pytest.fixture()
def synth_files(tmp_path):
    inputs = []
    for i in range(10):
        inputs.append({
            "id": f"s{i}", "question": f"What is the capital of France ({i})?",
            "answer": "Paris",
            "gold_doc": {"id": f"g{i}", "title": "France",
                         "body": "Paris is the capital and largest city of France."},
            "noise_docs": [{"id": f"n{i}-{j}", "title": "Noise",
                            "body": f"Filler text {j}."} for j in range(3)],
        })
    input_path = tmp_path / "inputs.jsonl"
    write_jsonl(input_path, inputs)

    student_script = write_json(tmp_path / "student.json", ["Paris."] * 10)
    # teacher flubs examples 3 and 7
    teacher_replies = [KEEP_TARGET] * 10
    teacher_replies[3] = "<ref> Empty </ref>"
    teacher_replies[7] = "<ref> Paris is the capital of France </ref> no revision"
    teacher_script = write_json(tmp_path / "teacher.json", teacher_replies)

    config = write_json(tmp_path / "synth-config.json", {
        "student_llm": {"backend": "scripted", "script_path": str(student_script)},
        "teacher_llm": {"backend": "scripted", "script_path": str(teacher_script)},
    })
    return {"input": input_path, "config": config, "dir": tmp_path}


class TestSynthCommand:
    def test_keeps_and_drops_with_reasons(self, synth_files, capsys):
        out = synth_files["dir"] / "corpus.jsonl"
        code = main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(synth_files["config"])])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kept 8/10" in stdout
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 8

    def test_include_dropped(self, synth_files):
        out = synth_files["dir"] / "corpus-all.jsonl"
        code = main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(synth_files["config"]),
                     "--include-dropped"])
        assert code == 0
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").strip().splitlines()]
        assert len(records) == 10
        reasons = [r["drop_reason"] for r in records if r["verdict"] == "drop"]
        assert sorted(reasons) == ["empty_evidence", "missing_revision"]

    def test_same_seed_is_byte_identical(self, synth_files):
        outputs = []
        for name in ("one", "two"):
            out = synth_files["dir"] / f"corpus-{name}.jsonl"
            assert main(["synth", "--input", str(synth_files["input"]),
                         "--out", str(out), "--seed", "11",
                         "--config", str(synth_files["config"])]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestStatsCommand:
    def test_stats_on_emitted_corpus(self, synth_files, capsys):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["avg_gold_docs"] == 1.00
        assert set(stats) == {"count", "avg_instruction_len", "avg_target_len",
                              "avg_gold_docs", "avg_gold_doc_len"}

    def test_blank_document_body_exits_two(self, synth_files, capsys):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").splitlines()]
        records[1]["documents"][0]["body"] = "  "
        write_jsonl(out, records)
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 2
        err = capsys.readouterr().err
        assert "(line 2)" in err
        assert "Traceback" not in err
