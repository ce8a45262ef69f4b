import gc
import json
import os
import re
import socket
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground import distill, evaluation, transport
from hopground.cli import Config, Progress, main
from hopground.core import Trajectory, loads_utf8
from hopground.distill import load_training_corpus
from hopground.errors import InvalidRecord
from hopground.llm import LlmConfig
from hopground.pipeline import PipelineConfig, map_ordered
from hopground.retrieval import (bm25, build_index, load_corpus, load_index,
                                 retrieve)

from helpers import (FESTIVAL_CORPUS, FESTIVAL_FINAL, FESTIVAL_QUESTION,
                     FESTIVAL_SCRIPT, KEEP_TARGET, InFlightStub, KeyedClient,
                     StubServer, assert_gold_slot, within,
                     write_festival_files, write_json, write_jsonl,
                     write_synth_files)

OPENAI = {"backend": "openai", "base_url": "http://127.0.0.1:9", "model": "m"}
# once overrode the base_url of every model role; no command reads it now
RETIRED_BASE_URL_VAR = "HOPGROUND_BASE_URL"
ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# pipeline.strict_citation is gone: a config holding either value exits 1,
# as one with any unknown key does
STRICT_CITATION = [
    pytest.param("pipeline", "strict_citation", value,
                 id=f"pipeline.strict_citation={json.dumps(value)}")
    for value in (False, True)]


@pytest.fixture()
def festival_run(tmp_path):
    """All input files for a scripted festival-question run."""
    return write_festival_files(tmp_path)


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

    def test_null_body_exits_two_with_its_line(self, tmp_path, capsys):
        corpus = tmp_path / "nulls.jsonl"
        write_jsonl(corpus, [{"id": "a", "title": "", "body": "x"},
                             {"id": "d1", "title": None, "body": None}])
        assert main(["index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert "(line 2)" in err
        assert "Traceback" not in err

    def test_duplicate_ids_exit_nonzero(self, tmp_path):
        corpus = tmp_path / "dup.jsonl"
        write_jsonl(corpus, [{"id": "a", "title": "", "body": "x"},
                             {"id": "a", "title": "", "body": "y"}])
        assert main(["index", "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.bin")]) == 2

    @pytest.mark.parametrize("flag", ["--k1", "--b"])
    def test_the_removed_bm25_flags_are_unknown_arguments(self, tmp_path,
                                                          capsys, flag):
        # every index scores with bm25.K1 and bm25.B; no flag sets them
        out = tmp_path / "x.bin"
        with pytest.raises(SystemExit) as exit_:
            main(["index", "--corpus", str(FIXTURES / "corpus20.jsonl"),
                  "--out", str(out), flag, "1"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()


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

    def test_max_hops_override_lands_in_manifest(self, festival_run,
                                                 tmp_path):
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["pipeline"]["max_hops"] = 1
        path = write_json(tmp_path / "one-hop.json", config)
        code = main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path), "--out", str(festival_run["out"])])
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

    def test_index_cache_run_equals_corpus_run(self, festival_run, tmp_path):
        cache = tmp_path / "index.bin"
        assert main(["index", "--corpus", str(festival_run["corpus"]),
                     "--out", str(cache)]) == 0
        cached = write_json(tmp_path / "cached.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "retrieval": {"index_path": str(cache)}})
        outputs = []
        for name, config in (("corpus", festival_run["config"]),
                             ("cache", cached)):
            out = tmp_path / f"out-{name}"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "trajectories.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_error_before_any_llm_call(self, festival_run):
        bad = write_json(festival_run["config"].parent / "bad.json",
                         {"llm": {"backend": "quantum"}})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(bad),
                     "--out", str(festival_run["out"])]) == 1

    def test_unbound_template_placeholder_exits_one_before_any_llm_call(
            self, festival_run, tmp_path, capsys):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "grounding.txt").write_text(
            "{question} {documents} {notbound}", encoding="utf-8")
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["templates"] = {"dir": str(templates)}
        # an empty script: any LLM call would end the question, not the run
        config["llm"]["script_path"] = str(write_json(tmp_path / "none.json",
                                                      []))
        path = write_json(tmp_path / "templated.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "'grounding'" in err and "'notbound'" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    def test_requests_in_flight_follow_pipeline_concurrency(
            self, festival_run, tmp_path):
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

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_keep_alive_connections_are_closed(self, festival_run, tmp_path,
                                               concurrency):
        # -X dev shows the ResourceWarning of a socket left unclosed until
        # its thread, or the interpreter, ends
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"Question {i}?",
                               "answers": ["x"]} for i in range(2)])
        stub = InFlightStub(1)
        try:
            config = write_json(tmp_path / "stub.json", {
                "pipeline": {"concurrency": concurrency},
                "llm": {"backend": "openai", "base_url": stub.url,
                        "model": "stub", "api_key_env": "HOPGROUND_NO_KEY"},
                "retrieval": {"corpus_path": str(festival_run["corpus"])},
            })
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "hopground", "run",
                 "--dataset", str(dataset), "--config", str(config),
                 "--out", str(tmp_path / "out")],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                capture_output=True, text=True, timeout=60)
        finally:
            stub.close()
        assert result.returncode == 0, result.stderr
        assert len(stub.peers) == 2
        assert "ResourceWarning" not in result.stderr

    @pytest.mark.parametrize("section", [
        "llm", "judge_llm", "student_llm", "teacher_llm"])
    def test_llm_max_concurrency_is_rejected(self, festival_run, tmp_path,
                                             capsys, section):
        config = write_json(tmp_path / "capped.json", {
            "pipeline": {"concurrency": 16},
            section: {"backend": "openai", "base_url": "http://127.0.0.1:9",
                      "model": "m", "max_concurrency": 4},
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {section}.max_concurrency" in err
        assert "did you mean" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("override, key", [
        ({"pipeline": {"max_hops": "3"}}, "max_hops"),
        ({"pipeline": {"concurrency": True}}, "concurrency"),
        ({"pipeline": {"decoding": {"max_output_tokens": 1.5}}},
         "max_output_tokens"),
        ({"pipeline": {"decoding": []}}, "decoding"),
        ({"pipeline": 5}, "pipeline"),
        ({"templates": []}, "templates"),
        ({"pipeline": {"top_k": "10"}}, "top_k"),
        ({"llm": {**OPENAI, "api_key_env": 5}}, "llm.api_key_env"),
        ({"judge_llm": {**OPENAI, "model": ["m"]}}, "judge_llm.model"),
        ({"llm": {**OPENAI, "timeout": "120"}}, "timeout"),
        ({"pipeline": {"retriever": "external"},
          "retrieval": {"external_endpoint": "http://127.0.0.1:9",
                        "timeout": "30"}}, "timeout"),
        ({"templates": {"dir": 5}}, "templates.dir"),
        ({"retrieval": {"corpus_path": ["x"]}}, "retrieval.corpus_path"),
        ({"retrieval": {"index_path": 5}}, "retrieval.index_path"),
        ({"llm": {"backend": "scripted", "script_path": 7}},
         "llm.script_path"),
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

    @pytest.mark.parametrize("key, text, named", [
        ("llm.timeout", "1e12", "llm.timeout"),
        ("retrieval.timeout", "Infinity", "retrieval.timeout"),
        ("pipeline.decoding.temperature", "1e400", "decoding.temperature"),
    ])
    def test_unusable_number_exits_one(self, festival_run, tmp_path, capsys,
                                       key, text, named):
        # JSON reads 1e400 and Infinity as inf; a timeout past the
        # platform's TIMEOUT_MAX overflows settimeout
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        *sections, name = key.split(".")
        section = config
        for part in sections:
            section = section.setdefault(part, {})
        section[name] = "@"
        path = tmp_path / "number.json"
        path.write_text(json.dumps(config).replace('"@"', text),
                        encoding="utf-8")
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"{named} must be a" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("override, named, hint", [
        ({"pipeline": {"max_hop": 2}}, "pipeline.max_hop",
         "pipeline.max_hops"),
        ({"pipline": {"max_hops": 2}}, "pipline", "pipeline"),
        ({"llm": {**OPENAI, "modle": "m"}}, "llm.modle", "llm.model"),
        ({"retrieval": {"corpus": "x.jsonl"}}, "retrieval.corpus",
         "retrieval.corpus_path"),
        ({"synthesis": {"concurency": 2}}, "synthesis.concurency",
         "synthesis.concurrency"),
        ({"pipeline": {"decoding": {"max_tokens": 9}}},
         "decoding.max_tokens", "decoding.max_output_tokens"),
    ])
    def test_unknown_config_key_exits_one(self, festival_run, tmp_path,
                                          capsys, override, named, hint):
        config = write_json(tmp_path / "typo.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            **override})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {named}; did you mean {hint}?" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    def test_num_examples_is_an_unknown_key(self, festival_run, tmp_path,
                                            capsys):
        config = write_json(tmp_path / "examples.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "templates": {"num_examples": 1}})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "unknown config key templates.num_examples" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("templates", "doc_char_budget", 1500,
                     id="templates.doc_char_budget"),
        *STRICT_CITATION])
    def test_a_removed_key_exits_one_before_any_call(
            self, festival_run, tmp_path, monkeypatch, capsys, section, key,
            value):
        client = KeyedClient(lambda prompt: "###Finish[x]")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config.setdefault(section, {})[key] = value
        path = write_json(tmp_path / "removed.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {section}.{key}" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()
        assert client.calls == 0

    def test_the_removed_max_attempts_key_exits_one_before_any_call(
            self, festival_run, tmp_path, monkeypatch, capsys):
        client = KeyedClient(lambda prompt: "###Finish[x]")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["llm"]["max_attempts"] = 3
        path = write_json(tmp_path / "attempts.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "unknown config key llm.max_attempts" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()
        assert client.calls == 0

    def test_unused_section_is_type_checked(self, festival_run, tmp_path,
                                            capsys):
        config = write_json(tmp_path / "unused.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "synthesis": {"concurrency": "2"}})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "synthesis.concurrency" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("pipeline", [{}, {"concurrency": 2}],
                             ids=["default concurrency", "concurrency 2"])
    def test_scripted_backend_needs_concurrency_one(
            self, festival_run, tmp_path, capsys, pipeline):
        config = write_json(tmp_path / "wide.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "pipeline": pipeline})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "llm.backend" in err and "pipeline.concurrency" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    def test_config_that_is_not_utf8_exits_one(self, festival_run, tmp_path,
                                               capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes(b'{"pipeline": {"retriever": "bm25\xe9"}}')
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "utf-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "nested too deeply"),
        ('{"templates": {"dir": "\\ud800"}}', "surrogates not allowed"),
    ], ids=["deep nesting", "lone surrogate"])
    def test_unreadable_config_exits_one_before_any_file(
            self, festival_run, tmp_path, capsys, text, message):
        config = tmp_path / "unreadable.json"
        config.write_text(text, encoding="utf-8")
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and message in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("base_url, env, key", [
        ("localhost:8000/v1", None, "llm.base_url"),
        ("ftp://x", None, "llm.base_url"),
        ("http://", None, "llm.base_url"),
        # a good URL in the retired variable does not stand in
        ("localhost:8000/v1", "http://127.0.0.1:9", "llm.base_url"),
    ])
    def test_malformed_base_url_exits_one(self, festival_run, tmp_path,
                                          capsys, monkeypatch, base_url, env,
                                          key):
        if env is not None:
            monkeypatch.setenv(RETIRED_BASE_URL_VAR, env)
        config = write_json(tmp_path / "url.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "llm": {**OPENAI, "base_url": base_url}})
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be an http:// or https:// URL with a host" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("endpoint", ["localhost:8893/search", "ftp://x",
                                          "http://h:port/search"])
    def test_malformed_external_endpoint_exits_one(self, festival_run,
                                                   tmp_path, capsys,
                                                   endpoint):
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["pipeline"]["retriever"] = "external"
        config["retrieval"] = {"external_endpoint": endpoint}
        path = write_json(tmp_path / "endpoint.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert ("retrieval.external_endpoint must be an http:// or https:// "
                f"URL with a host, got {endpoint!r}") in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("content", ["", "\n\n", "[]", " [ ]\n"])
    def test_dataset_with_no_questions_exits_two_before_any_output(
            self, festival_run, monkeypatch, capsys, content):
        client = KeyedClient(lambda prompt: "###Finish[x]")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        prepared = []
        for name in ("build_index", "load_index"):
            monkeypatch.setattr(bm25, name,
                                lambda *args, name=name: prepared.append(name))
        festival_run["dataset"].write_text(content, encoding="utf-8")
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --dataset {festival_run['dataset']}: " \
            "no questions\n"
        assert not festival_run["out"].exists()
        assert client.calls == 0
        assert prepared == []

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

    def test_index_cache_with_other_bm25_params_exits_one(
            self, festival_run, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "index.bin"
        with monkeypatch.context() as patch:  # params other than [K1, B]
            patch.setattr(bm25, "K1", 0.9)
            patch.setattr(bm25, "B", 0.4)
            assert main(["index", "--corpus", str(festival_run["corpus"]),
                         "--out", str(cache)]) == 0
        config = write_json(tmp_path / "cached.json", {
            **json.loads(festival_run["config"].read_text(encoding="utf-8")),
            "retrieval": {"index_path": str(cache)}})
        capsys.readouterr()
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(config),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert str(cache) in err
        assert "params [0.9, 0.4], expected [1.2, 0.75]" in err
        assert "rebuild it with `hopground index`" in err
        assert not festival_run["out"].exists()

    def test_malformed_dataset_exits_two(self, festival_run, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("NOT JSON\n", encoding="utf-8")
        assert main(["run", "--dataset", str(bad),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 2

    def test_deeply_nested_dataset_line_exits_two(self, festival_run,
                                                  tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text('{"id": ' + "[" * 100_000 + "\n", encoding="utf-8")
        assert main(["run", "--dataset", str(deep),
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 2
        err = capsys.readouterr().err
        assert f"{deep}" in err and "(line 1)" in err
        assert "nested too deeply" in err and "Traceback" not in err
        assert not festival_run["out"].exists()

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

    @pytest.mark.parametrize("source", ["chat", "retrieval"])
    def test_lone_surrogate_in_a_reply_is_a_failed_question(
            self, festival_run, tmp_path, source):
        # json.dumps writes ASCII: the surrogate arrives as a \ud800 escape
        from helpers import StubServer
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        stub = StubServer()
        try:
            if source == "chat":
                reply = {"message": {"content": "###Finish[x\ud800]"}}
                stub.queue(200, {"choices": [reply], "usage": {
                    "prompt_tokens": 7, "completion_tokens": 3}})
                config["llm"] = {"backend": "openai", "base_url": stub.url,
                                 "model": "m",
                                 "api_key_env": "HOPGROUND_NO_KEY"}
            else:
                bad = {**FESTIVAL_CORPUS[0].to_dict(), "body": "bad\ud800"}
                stub.queue(200, {"results": [bad]})
                config["pipeline"]["retriever"] = "external"
                config["retrieval"] = {"external_endpoint":
                                       stub.url + "/search"}
            path = write_json(tmp_path / "surrogate.json", config)
            out = tmp_path / "surrogate-out"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(path), "--out", str(out)]) == 0
        finally:
            stub.close()
        trajectory = json.loads((out / "trajectories.jsonl")
                                .read_text(encoding="utf-8"))
        assert trajectory["termination"] == "parse_failure"
        total = trajectory["token_usage"]["total"]
        if source == "chat":  # the tokens the server reported are kept
            assert total == {"prompt_tokens": 7, "completion_tokens": 3}
        assert total["prompt_tokens"] > 0
        manifest = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["totals"]["prompt_tokens"] == total["prompt_tokens"]
        assert manifest["totals"]["llm_calls"] == 1

    def test_deeply_nested_chat_reply_is_a_failed_question(
            self, festival_run, tmp_path):
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["llm"] = {"backend": "openai", "base_url": "", "model": "m",
                         "api_key_env": "HOPGROUND_NO_KEY"}
        stub = StubServer()
        try:
            stub.queue(200, "[" * 100_000)
            config["llm"]["base_url"] = stub.url
            path = write_json(tmp_path / "deep.json", config)
            out = tmp_path / "deep-out"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(path), "--out", str(out)]) == 0
        finally:
            stub.close()
        trajectory = json.loads((out / "trajectories.jsonl")
                                .read_text(encoding="utf-8"))
        assert trajectory["termination"] == "parse_failure"
        manifest = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["totals"]["llm_calls"] == 1

    def test_lone_surrogate_in_the_script_exits_one(self, festival_run,
                                                    tmp_path, capsys):
        script = tmp_path / "surrogate-script.json"
        # ASCII-only JSON: the surrogate is a \ud800 escape
        script.write_text(json.dumps(["###Finish[x\ud800]"]), encoding="utf-8")
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["llm"]["script_path"] = str(script)
        path = write_json(tmp_path / "surrogate.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "llm: bad scripted backend" in err
        assert "surrogates not allowed" in err
        assert "Traceback" not in err
        assert not festival_run["out"].exists()

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

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_manifest_totals_recount_from_the_trajectories(
            self, festival_run, tmp_path, monkeypatch, concurrency):
        dataset = tmp_path / "twelve.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "answers": [str(i)],
                               "question": f"Which number is {i}?"}
                              for i in range(12)])
        config = write_json(tmp_path / "keyed.json", {
            "pipeline": {"concurrency": concurrency},
            "llm": OPENAI,
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })

        def answer(prompt):
            """Question i takes i % 3 hops; question 7 gets no usable
            deduction, so it ends as parse_failure."""
            if prompt.startswith("You verify"):
                return "<ref> Empty </ref>"
            i = int(re.search(r"Original question: Which number is (\d+)\?",
                              prompt)[1])
            step = int(re.search(r"Continue with Question (\d+)", prompt)[1])
            if i == 7:
                return "no structure"
            if step <= i % 3:
                return f"Question {step}: Which part {step} of {i}?\nAnswer {step}: {i}"
            return f"###Finish[{i}]"

        client = KeyedClient(answer)
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(dataset), "--config",
                     str(config), "--out", str(out)]) == 0
        trajectories = [json.loads(line) for line in (
            out / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()]
        totals = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))["totals"]
        terminations = {"finish_signal": 0, "max_hops_reached": 0,
                        "parse_failure": 0}
        for trajectory in trajectories:
            terminations[trajectory["termination"]] += 1
        assert totals == {
            "questions": len(trajectories),
            "hops": sum(len(t["hops"]) for t in trajectories),
            "llm_calls": client.calls,
            "prompt_tokens": sum(t["token_usage"]["total"]["prompt_tokens"]
                                 for t in trajectories),
            "completion_tokens": sum(
                t["token_usage"]["total"]["completion_tokens"]
                for t in trajectories),
            "terminations": terminations,
            "failures": terminations["parse_failure"],
        }
        assert totals["questions"] == 12 and totals["failures"] == 1
        assert totals["hops"] == sum(i % 3 for i in range(12) if i != 7)

    def test_non_utf8_dataset_path_exits_one_before_any_call(
            self, festival_run, tmp_path, monkeypatch, capsys):
        # a path byte that is not UTF-8 reaches Python as a lone surrogate,
        # which manifest.json, written as UTF-8, cannot hold
        odd = os.fsdecode(os.fsencode(tmp_path) + b"/odd\xff")
        os.rename(festival_run["dataset"], odd)
        client = KeyedClient(lambda prompt: "###Finish[x]")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        assert main(["run", "--dataset", odd,
                     "--config", str(festival_run["config"]),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert "error: --dataset " in err and "is not UTF-8" in err
        assert "Traceback" not in err
        assert client.calls == 0
        assert not festival_run["out"].exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_templates_dir_that_is_no_directory_exits_one(
            self, festival_run, tmp_path, capsys, kind):
        templates = tmp_path / "typo_dir"
        if kind == "file":
            templates.write_text("", encoding="utf-8")
        config = json.loads(festival_run["config"].read_text(encoding="utf-8"))
        config["templates"] = {"dir": str(templates)}
        path = write_json(tmp_path / "typo.json", config)
        assert main(["run", "--dataset", str(festival_run["dataset"]),
                     "--config", str(path),
                     "--out", str(festival_run["out"])]) == 1
        err = capsys.readouterr().err
        assert f"templates.dir {str(templates)!r} is not a directory" in err
        assert not festival_run["out"].exists()

    def test_environment_does_not_redirect_the_model(self, festival_run,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv(RETIRED_BASE_URL_VAR, "http://127.0.0.1:9")
        monkeypatch.setattr(transport, "MAX_ATTEMPTS", 1)
        stub = StubServer()
        stub.queue_completion("###Finish[x]")
        try:
            config = write_json(tmp_path / "stub.json", {
                "pipeline": {"concurrency": 1},
                "llm": {"backend": "openai", "base_url": stub.url,
                        "model": "m", "api_key_env": "HOPGROUND_NO_KEY"},
                "retrieval": {"corpus_path": str(festival_run["corpus"])},
            })
            out = tmp_path / "stub-out"
            assert main(["run", "--dataset", str(festival_run["dataset"]),
                         "--config", str(config), "--out", str(out)]) == 0
        finally:
            stub.close()
        assert len(stub.requests) == 1
        trajectory = json.loads((out / "trajectories.jsonl")
                                .read_text(encoding="utf-8"))
        assert trajectory["final_answer"] == "x"

    def test_concurrency_above_the_question_count(self, festival_run,
                                                   tmp_path, monkeypatch):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "answers": [str(i)],
                               "question": f"Which number is {i}?"}
                              for i in range(2)])
        config = write_json(tmp_path / "wide.json", {
            "pipeline": {"concurrency": 10**20},
            "llm": OPENAI,
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })
        client = KeyedClient(lambda prompt: "###Finish[{}]".format(
            re.search(r"Which number is (\d+)\?", prompt)[1]))
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(dataset), "--config",
                     str(config), "--out", str(out)]) == 0
        trajectories = [json.loads(line) for line in (
            out / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [t["final_answer"] for t in trajectories] == ["0", "1"]

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_interrupt_leaves_a_prefix_of_the_full_run(
            self, festival_run, tmp_path, monkeypatch, concurrency):
        dataset = tmp_path / "twelve.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "answers": ["x"],
                               "question": f"Which number is {i}?"}
                              for i in range(12)])
        config = write_json(tmp_path / "keyed.json", {
            "pipeline": {"concurrency": concurrency},
            "llm": OPENAI,
            "retrieval": {"corpus_path": str(festival_run["corpus"])},
        })

        def answer(prompt):
            number = re.search(r"Which number is (\d+)\?", prompt)[1]
            return f"###Finish[{number}]"

        def run(out, client):
            monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
            return main(["run", "--dataset", str(dataset), "--config",
                         str(config), "--out", str(out)])

        assert run(tmp_path / "full", KeyedClient(answer)) == 0
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path / "cut", KeyedClient(answer, interrupt_after=5))
        full = (tmp_path / "full" / "trajectories.jsonl").read_text(
            encoding="utf-8").splitlines()
        cut = (tmp_path / "cut" / "trajectories.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert cut == full[:len(cut)]
        assert len(cut) < 12
        if concurrency == 1:  # the sixth question is the one interrupted
            assert len(cut) == 5
        assert not (tmp_path / "cut" / "manifest.json").exists()


def write_judge_files(directory, n):
    """A dataset of ``n`` questions and a trajectory file answering each
    with its gold answer."""
    dataset = directory / "ds.jsonl"
    write_jsonl(dataset, [{"id": f"q{i}", "question": f"Q{i}?",
                           "answers": ["gold"]} for i in range(n)])
    trajectories = directory / "trajs.jsonl"
    write_jsonl(trajectories, [{
        "question": {"id": f"q{i}", "text": f"Q{i}?", "gold_answers": ["gold"]},
        "hops": [], "final_answer": "gold",
        "termination": "finish_signal",
        "token_usage": {"per_hop": [], "total": {"prompt_tokens": 0,
                                                 "completion_tokens": 0}},
    } for i in range(n)])
    return dataset, trajectories


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

    def test_holds_no_trajectory_while_scoring(self, tmp_path, monkeypatch):
        dataset, trajectories = write_judge_files(tmp_path, 3)
        score = evaluation.score_prediction
        held = []

        def trajectories_alive():
            gc.collect()
            return sum(isinstance(o, Trajectory) for o in gc.get_objects())

        def counting(question, prediction):
            held.append(trajectories_alive())
            return score(question, prediction)

        monkeypatch.setattr(evaluation, "score_prediction", counting)
        before = trajectories_alive()
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset),
                     "--out", str(tmp_path / "reports")]) == 0
        assert held == [before] * 3

    def test_id_mismatch_lists_missing(self, festival_run, tmp_path, capsys):
        trajectories = self.run_festival(festival_run)
        other = tmp_path / "other.jsonl"
        write_jsonl(other, [{"id": "different", "question": "?",
                             "answers": ["x"]}])
        capsys.readouterr()
        code = main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(other)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert FESTIVAL_QUESTION.id in err
        assert not (festival_run["out"] / "records.csv").exists()
        assert not (festival_run["out"] / "summary.json").exists()

    def test_empty_trajectories_exit_two(self, festival_run, tmp_path,
                                         capsys):
        trajectories = tmp_path / "empty.jsonl"
        trajectories.write_text("", encoding="utf-8")
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_trajectories_exit_two_before_any_output(
            self, festival_run, tmp_path, capsys):
        trajectories = tmp_path / "empty.jsonl"
        trajectories.write_text("\n", encoding="utf-8")
        out = tmp_path / "report"
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"]),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --trajectories {trajectories}: no trajectories\n"
        assert not out.exists()

    def test_garbage_trajectories_exit_two(self, festival_run, tmp_path,
                                           capsys):
        trajectories = tmp_path / "garbage.jsonl"
        trajectories.write_text("not a trajectory\n", encoding="utf-8")
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{trajectories}" in err and "(line 1)" in err
        assert "Traceback" not in err

    def test_repeated_question_id_exits_two(self, festival_run, tmp_path,
                                            capsys):
        golden = FIXTURES / "golden" / "trajectories.jsonl"
        festival = golden.read_text(encoding="utf-8").splitlines()[0]
        trajectories = tmp_path / "twice.jsonl"
        trajectories.write_text(f"{festival}\n{festival}\n", encoding="utf-8")
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"repeated question id {FESTIVAL_QUESTION.id!r}" in err
        assert "(line 2)" in err and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

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

    @pytest.mark.parametrize("path, value", [
        (("token_usage",), None),
        (("token_usage", "total"), 5),
        (("token_usage", "per_hop", 0), None),
    ], ids=["null usage", "numeric total", "null per-hop entry"])
    def test_malformed_token_usage_exits_two(self, festival_run, capsys,
                                             path, value):
        trajectories = self.run_festival(festival_run)
        record = json.loads(trajectories.read_text(encoding="utf-8"))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        write_jsonl(trajectories, [record])
        capsys.readouterr()
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{trajectories}" in err and "(line 1)" in err
        assert "Traceback" not in err

    def test_boolean_hop_index_exits_two(self, festival_run, capsys):
        trajectories = self.run_festival(festival_run)
        record = json.loads(trajectories.read_text(encoding="utf-8"))
        record["hops"][0]["index"] = True
        write_jsonl(trajectories, [record])
        capsys.readouterr()
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{trajectories}" in err and "(line 1)" in err
        assert "index must be an integer >= 1" in err
        assert "Traceback" not in err

    def test_cited_hop_with_another_revised_answer_exits_two(
            self, festival_run, capsys):
        trajectories = self.run_festival(festival_run)
        record = json.loads(trajectories.read_text(encoding="utf-8"))
        hop = record["hops"][0]
        assert hop["grounding"]["kind"] == "cited"
        assert hop["revised_answer"] == hop["grounding"]["revised_answer"]
        hop["revised_answer"] = hop["immediate_answer"]
        write_jsonl(trajectories, [record])
        capsys.readouterr()
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"])]) == 2
        err = capsys.readouterr().err
        assert f"{trajectories}" in err and "(line 1)" in err
        assert "revised_answer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_file", ["corpus", "dataset",
                                          "trajectories"])
    def test_lone_surrogate_exits_two(self, festival_run, bad_file, capsys):
        files = {"trajectories": self.run_festival(festival_run),
                 "dataset": festival_run["dataset"],
                 "corpus": festival_run["corpus"]}
        path = files[bad_file]
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()]
        key = "final_answer" if bad_file == "trajectories" else "id"
        records.append({**records[0], key: "bad\ud800"})
        # ASCII-only JSON, as many writers emit it: the surrogate is an escape
        path.write_text("".join(json.dumps(r) + "\n" for r in records),
                        encoding="utf-8")
        capsys.readouterr()
        command = {
            "corpus": ["index", "--corpus", str(path),
                       "--out", str(path.with_suffix(".cache"))],
            "dataset": ["run", "--dataset", str(path),
                        "--config", str(festival_run["config"]),
                        "--out", str(path.parent / "surrogate-run")],
            "trajectories": ["eval", "--trajectories", str(path),
                             "--dataset", str(festival_run["dataset"])],
        }[bad_file]
        assert main(command) == 2
        err = capsys.readouterr().err
        assert f"{path}" in err and f"(line {len(records)})" in err
        assert "surrogates not allowed" in err
        assert "Traceback" not in err

    def test_judge_falling_back_to_llm_names_llm_keys(
            self, festival_run, tmp_path, capsys):
        trajectories = self.run_festival(festival_run)
        config = write_json(tmp_path / "judge.json",
                            {"llm": {**OPENAI, "base_url": "localhost:8000/v1"}})
        capsys.readouterr()
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(festival_run["dataset"]), "--judge",
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "llm.base_url must be an http:// or https:// URL" in err
        assert "judge_llm" not in err

    def test_judge_templates_dir_that_is_no_directory_exits_one(
            self, tmp_path, capsys):
        dataset, trajectories = write_judge_files(tmp_path, 1)
        judge_script = write_json(tmp_path / "judge.json", ["Yes"])
        config = write_json(tmp_path / "config.json", {
            "pipeline": {"concurrency": 1},
            "judge_llm": {"backend": "scripted",
                          "script_path": str(judge_script)},
            "templates": {"dir": str(tmp_path / "typo_dir")},
        })
        reports = tmp_path / "reports"
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(config), "--out", str(reports)]) == 1
        err = capsys.readouterr().err
        assert "templates.dir" in err and "is not a directory" in err
        assert not reports.exists()

    def test_judge_alternating_verdicts(self, tmp_path, capsys):
        dataset, trajectories = write_judge_files(tmp_path, 10)
        judge_script = write_json(tmp_path / "judge.json",
                                  ["Yes", "No"] * 5)
        config = write_json(tmp_path / "config.json", {
            "pipeline": {"concurrency": 1},
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

    def test_judge_requests_in_flight_follow_pipeline_concurrency(
            self, tmp_path):
        dataset, trajectories = write_judge_files(tmp_path, 4)
        stub = InFlightStub(4)
        try:
            config = write_json(tmp_path / "wide.json", {
                "pipeline": {"concurrency": 4},
                "judge_llm": {"backend": "openai", "base_url": stub.url,
                              "model": "stub",
                              "api_key_env": "HOPGROUND_NO_KEY"},
            })
            assert main(["eval", "--trajectories", str(trajectories),
                         "--dataset", str(dataset), "--judge",
                         "--config", str(config),
                         "--out", str(tmp_path / "reports")]) == 0
        finally:
            stub.close()
        assert stub.most_in_flight == 4
        # the stub's reply is no verdict, so each is retried, then "no"
        rows = (tmp_path / "reports" / "records.csv").read_text(
            encoding="utf-8").splitlines()
        assert rows[1:] == [f"q{i},1,1.0000,no" for i in range(4)]

    def test_failed_judge_call_leaves_its_record_unjudged(
            self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(transport, "MAX_ATTEMPTS", 1)
        dataset, trajectories = write_judge_files(tmp_path, 3)
        stub = StubServer()
        stub.queue_completion("Yes")
        stub.queue(500, {"error": "overloaded"})
        stub.queue_completion("No")
        try:
            config = write_json(tmp_path / "config.json", {
                "pipeline": {"concurrency": 1},
                "judge_llm": {"backend": "openai", "base_url": stub.url,
                              "model": "stub",
                              "api_key_env": "HOPGROUND_NO_KEY"},
            })
            assert main(["eval", "--trajectories", str(trajectories),
                         "--dataset", str(dataset), "--judge",
                         "--config", str(config),
                         "--out", str(tmp_path / "reports")]) == 0
        finally:
            stub.close()
        assert len(stub.requests) == 3
        assert "judge call failed" in caplog.text
        rows = (tmp_path / "reports" / "records.csv").read_text(
            encoding="utf-8").splitlines()
        assert rows[1:] == ["q0,1,1.0000,yes", "q1,1,1.0000,",
                            "q2,1,1.0000,no"]
        summary = json.loads((tmp_path / "reports" / "summary.json")
                             .read_text(encoding="utf-8"))
        assert summary == {"acc": 100.0, "f1": 100.0, "acc_judge": 50.0}

    def test_blank_final_answer_is_judged_no_without_a_call(self, tmp_path):
        dataset, trajectories = write_judge_files(tmp_path, 2)
        records = [json.loads(line) for line in
                   trajectories.read_text(encoding="utf-8").splitlines()]
        records[0].update(final_answer="  ", termination="parse_failure")
        write_jsonl(trajectories, records)
        # one reply, for q1: the blank answer is judged without a call
        script = write_json(tmp_path / "judge.json", ["Yes"])
        config = write_json(tmp_path / "config.json", {
            "pipeline": {"concurrency": 1},
            "judge_llm": {"backend": "scripted", "script_path": str(script)},
        })
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(config),
                     "--out", str(tmp_path / "reports")]) == 0
        rows = (tmp_path / "reports" / "records.csv").read_text(
            encoding="utf-8").splitlines()
        assert rows[1:] == ["q0,0,0.0000,no", "q1,1,1.0000,yes"]

    def test_scripted_judge_needs_concurrency_one(self, tmp_path, capsys):
        dataset, trajectories = write_judge_files(tmp_path, 2)
        script = write_json(tmp_path / "judge.json", ["Yes", "Yes"])
        config = write_json(tmp_path / "config.json", {
            "judge_llm": {"backend": "scripted", "script_path": str(script)},
        })
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(config),
                     "--out", str(tmp_path / "reports")]) == 1
        err = capsys.readouterr().err
        assert "judge_llm.backend" in err and "pipeline.concurrency" in err
        assert not (tmp_path / "reports").exists()

    def test_out_that_is_a_file_exits_one_before_any_judge_call(
            self, tmp_path, capsys, monkeypatch):
        dataset, trajectories = write_judge_files(tmp_path, 3)
        client = KeyedClient(lambda prompt: "Yes")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        config = write_json(tmp_path / "config.json", {
            "pipeline": {"concurrency": 1}, "judge_llm": OPENAI})
        reports = tmp_path / "reports"
        reports.write_text("not a directory\n", encoding="utf-8")
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(config), "--out", str(reports)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(reports) in err
        assert client.calls == 0

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("judge_llm", "max_attempts", 3,
                     id="judge_llm.max_attempts"),
        *STRICT_CITATION])
    def test_a_removed_key_exits_one_before_any_call(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        dataset, trajectories = write_judge_files(tmp_path, 3)
        client = KeyedClient(lambda prompt: "Yes")
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        config = {"pipeline": {"concurrency": 1}, "judge_llm": dict(OPENAI)}
        config[section][key] = value
        path = write_json(tmp_path / "config.json", config)
        reports = tmp_path / "reports"
        assert main(["eval", "--trajectories", str(trajectories),
                     "--dataset", str(dataset), "--judge",
                     "--config", str(path), "--out", str(reports)]) == 1
        assert f"unknown config key {section}.{key}" in \
            capsys.readouterr().err
        assert not reports.exists()
        assert client.calls == 0


@pytest.fixture()
def synth_files(tmp_path):
    return write_synth_files(tmp_path)


def _error_lines(stderr):
    """How many lines of ``stderr`` report a failure; the others are
    progress lines and logged warnings."""
    return sum(line.startswith("error: ") for line in stderr.splitlines())


def _input_documents(path):
    """Each document of a synthesis inputs file, by its id."""
    return {doc["id"]: doc
            for inp in map(json.loads, path.read_text(
                encoding="utf-8").splitlines())
            for doc in [inp["gold_doc"], *inp["noise_docs"]]}


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

    def test_templates_dir_that_is_no_directory_exits_one(self, synth_files,
                                                          capsys):
        config = json.loads(synth_files["config"].read_text(encoding="utf-8"))
        config["templates"] = {"dir": str(synth_files["dir"] / "typo_dir")}
        path = write_json(synth_files["dir"] / "typo.json", config)
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "templates.dir" in err and "is not a directory" in err
        assert not out.exists()

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

    def test_each_line_keeps_the_slot_ids_and_the_gold_body(self,
                                                            synth_files):
        out = synth_files["dir"] / "corpus-all.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(synth_files["config"]),
                     "--include-dropped"]) == 0
        documents = _input_documents(synth_files["input"])
        inputs = [json.loads(line) for line in synth_files["input"].read_text(
            encoding="utf-8").splitlines()]
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 10
        for inp, record in zip(inputs, records):
            assert list(record) == [
                "instruction", "doc_ids", "gold_position",
                "immediate_answer", "target", "verdict", "drop_reason"]
            # one inference window: the gold and the first noise documents
            ids = record["doc_ids"]
            window = [inp["gold_doc"],
                      *inp["noise_docs"][:PipelineConfig.batch_size - 1]]
            assert sorted(ids) == sorted(d["id"] for d in window)
            assert_gold_slot(record, inp["gold_doc"])
            # the instruction numbers each document by its slot
            for slot, doc_id in enumerate(ids, start=1):
                doc = documents[doc_id]
                assert (f"[{slot}] {doc['title']}\n{doc['body']}"
                        in record["instruction"])

    def test_same_seed_is_byte_identical(self, synth_files):
        outputs = []
        for name in ("one", "two"):
            out = synth_files["dir"] / f"corpus-{name}.jsonl"
            assert main(["synth", "--input", str(synth_files["input"]),
                         "--out", str(out), "--seed", "11",
                         "--config", str(synth_files["config"])]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_interrupt_leaves_a_prefix_of_the_full_corpus(
            self, synth_files, monkeypatch, concurrency):
        config = write_json(synth_files["dir"] / "keyed.json", {
            "student_llm": OPENAI, "teacher_llm": OPENAI,
            "synthesis": {"concurrency": concurrency},
        })

        def reply(prompt):
            if "capital and largest" not in prompt:  # the student's prompt
                return "Paris."
            return "<ref> Empty </ref>" if "(3)" in prompt else KEEP_TARGET

        def synth(name, client):
            monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
            return main(["synth", "--input", str(synth_files["input"]),
                         "--out", str(synth_files["dir"] / name),
                         "--seed", "7", "--config", str(config),
                         "--include-dropped"])

        assert synth("full.jsonl", KeyedClient(reply)) == 0
        with pytest.raises(KeyboardInterrupt):
            synth("cut.jsonl", KeyedClient(reply, interrupt_after=7))
        full, cut = ((synth_files["dir"] / name).read_text(
            encoding="utf-8").splitlines() for name in ("full.jsonl",
                                                        "cut.jsonl"))
        assert cut == full[:len(cut)]
        assert len(cut) < 10
        if concurrency == 1:  # call 8, the fourth example's teacher, stops
            assert len(cut) == 3

    @pytest.mark.parametrize("synthesis, key", [
        ({"concurrency": "2"}, "synthesis.concurrency"),
        ({"concurrency": 0}, "synthesis.concurrency"),
    ])
    def test_wrong_typed_synthesis_exits_one(self, synth_files, capsys,
                                             synthesis, key):
        # two inputs: a single input takes the serial path, with no threads
        inputs = synth_files["input"]
        inputs.write_text("".join(inputs.read_text(encoding="utf-8")
                                  .splitlines(keepends=True)[:2]),
                          encoding="utf-8")
        config = json.loads(synth_files["config"].read_text(encoding="utf-8"))
        config_path = write_json(synth_files["dir"] / "typed.json",
                                 {**config, "synthesis": synthesis})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(inputs), "--out", str(out),
                     "--seed", "7", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_scripted_backend_needs_concurrency_one(self, synth_files,
                                                    capsys):
        config = json.loads(synth_files["config"].read_text(encoding="utf-8"))
        config_path = write_json(synth_files["dir"] / "wide.json",
                                 {**config, "synthesis": {"concurrency": 2}})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "student_llm.backend" in err
        assert "synthesis.concurrency" in err
        assert "Traceback" not in err
        assert not out.exists()

    def keyed(self, synth_files, monkeypatch):
        """A config at ``synthesis.concurrency`` 2 whose models both answer
        through one ``KeyedClient``, which keeps every example."""
        client = KeyedClient(lambda prompt: "Paris." if "capital and largest"
                             not in prompt else KEEP_TARGET)
        monkeypatch.setattr(LlmConfig, "client", lambda self, role: client)
        config = write_json(synth_files["dir"] / "keyed.json", {
            "student_llm": OPENAI, "teacher_llm": OPENAI,
            "synthesis": {"concurrency": 2}})
        return config, client

    def test_a_late_malformed_line_exits_two_before_any_call(
            self, synth_files, monkeypatch, capsys):
        config, client = self.keyed(synth_files, monkeypatch)
        lines = synth_files["input"].read_text(encoding="utf-8").splitlines()
        lines[9] = '{"id": "s9", "question": "Q?"}'  # no answer, no gold_doc
        synth_files["input"].write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
        out = synth_files["dir"] / "corpus.jsonl"
        assert within(30, lambda: main([
            "synth", "--input", str(synth_files["input"]), "--out", str(out),
            "--seed", "7", "--config", str(config)])) == 2
        err = capsys.readouterr().err
        assert "(line 10)" in err and "Traceback" not in err
        assert client.calls == 0
        assert not out.exists()

    def test_piped_input_exits_one_before_any_call(self, synth_files):
        read, write = os.pipe()
        with open(write, "wb") as f:  # ten inputs fit in the pipe's buffer
            f.write(synth_files["input"].read_bytes())
        out = synth_files["dir"] / "corpus.jsonl"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hopground", "synth",
                 "--input", f"/dev/fd/{read}", "--out", str(out),
                 "--seed", "7", "--config", str(synth_files["config"])],
                pass_fds=(read,), env={**os.environ,
                                       "PYTHONPATH": str(ROOT / "src")},
                capture_output=True, text=True, timeout=60)
        finally:
            os.close(read)
        assert proc.returncode == 1
        assert "not a pipe" in proc.stderr and "Traceback" not in proc.stderr
        assert _error_lines(proc.stderr) == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", ["", "\n \n"])
    def test_inputs_file_with_no_inputs_exits_two_before_any_call(
            self, synth_files, monkeypatch, capsys, content):
        config, client = self.keyed(synth_files, monkeypatch)
        synth_files["input"].write_text(content, encoding="utf-8")
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --input {synth_files['input']}: " \
            "no synthesis inputs\n"
        assert captured.out == ""
        assert not out.exists()
        assert client.calls == 0

    def test_missing_input_exits_one_naming_it(self, synth_files, monkeypatch,
                                               capsys):
        config, client = self.keyed(synth_files, monkeypatch)
        missing = synth_files["dir"] / "no-such-inputs.jsonl"
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(missing), "--out", str(out),
                     "--seed", "7", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err
        assert not out.exists()
        assert client.calls == 0

    def test_out_that_is_the_input_exits_one_before_any_call(
            self, synth_files, monkeypatch, capsys):
        config, client = self.keyed(synth_files, monkeypatch)
        path = synth_files["input"]
        before = path.read_bytes()
        link = synth_files["dir"] / "inputs-link.jsonl"
        link.symlink_to(path)
        for out in (path, link):
            assert main(["synth", "--input", str(path), "--out", str(out),
                         "--seed", "7", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--out" in err and "--input" in err
        assert path.read_bytes() == before
        assert client.calls == 0

    def test_the_removed_noise_docs_key_exits_one_before_any_call(
            self, synth_files, monkeypatch, capsys):
        config, client = self.keyed(synth_files, monkeypatch)
        write_json(config, {**json.loads(config.read_text(encoding="utf-8")),
                            "synthesis": {"noise_docs": 9}})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config)]) == 1
        assert "unknown config key synthesis.noise_docs" in \
            capsys.readouterr().err
        assert not out.exists()
        assert client.calls == 0

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("templates", "doc_char_budget", 1500,
                     id="templates.doc_char_budget"),
        *STRICT_CITATION])
    def test_a_removed_key_exits_one_before_any_call(
            self, synth_files, monkeypatch, capsys, section, key, value):
        config, client = self.keyed(synth_files, monkeypatch)
        write_json(config, {**json.loads(config.read_text(encoding="utf-8")),
                            section: {key: value}})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config)]) == 1
        assert f"unknown config key {section}.{key}" in \
            capsys.readouterr().err
        assert not out.exists()
        assert client.calls == 0

    @pytest.mark.parametrize("section", ["student_llm", "teacher_llm"])
    def test_the_removed_max_attempts_key_exits_one_before_any_call(
            self, synth_files, monkeypatch, capsys, section):
        config, client = self.keyed(synth_files, monkeypatch)
        write_json(config, {**json.loads(config.read_text(encoding="utf-8")),
                            section: {**OPENAI, "max_attempts": 3}})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config)]) == 1
        assert f"unknown config key {section}.max_attempts" in \
            capsys.readouterr().err
        assert not out.exists()
        assert client.calls == 0

    def test_a_retired_teacher_template_exits_one_naming_it(
            self, synth_files, monkeypatch, capsys):
        config, client = self.keyed(synth_files, monkeypatch)
        templates = synth_files["dir"] / "templates"
        templates.mkdir()
        retired = templates / "synthesis_teacher.txt"
        retired.write_text("Question: {question}\n{documents}",
                           encoding="utf-8")
        write_json(config, {**json.loads(config.read_text(encoding="utf-8")),
                            "templates": {"dir": str(templates)}})
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "7",
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(retired) in err and "grounding.txt" in err
        assert not out.exists()
        assert client.calls == 0

    @pytest.mark.parametrize("change", ["grown", "cut"])
    def test_an_input_that_changes_between_reads_exits_two(
            self, synth_files, monkeypatch, capsys, change):
        config, client = self.keyed(synth_files, monkeypatch)
        path = synth_files["input"]
        lines = path.read_bytes().splitlines(keepends=True)
        reads = []
        load = distill.load_synthesis_inputs

        def load_and_change(source):
            reads.append(source)
            if len(reads) == 2:  # the file changes after the first read
                path.write_bytes(b"".join(
                    lines + lines[:1] if change == "grown" else lines[:7]))
            return load(source)

        monkeypatch.setattr(distill, "load_synthesis_inputs", load_and_change)
        out = synth_files["dir"] / "corpus.jsonl"
        assert within(30, lambda: main([
            "synth", "--input", str(path), "--out", str(out),
            "--seed", "7", "--config", str(config)])) == 2
        err = capsys.readouterr().err
        second = 11 if change == "grown" else 7
        assert f"error: --input {path}: 10 inputs on the first read, " \
            f"{second} on the second" in err
        assert _error_lines(err) == 1
        assert len(reads) == 2
        # two calls for each input of the first count, and none past it
        assert client.calls == 2 * min(second, 10)


class TestStatsCommand:
    def test_stats_on_emitted_corpus(self, synth_files, capsys):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == {"count", "avg_instruction_len", "avg_target_len"}

    def test_no_kept_examples_exits_two(self, synth_files, capsys):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3", "--include-dropped",
                     "--config", str(synth_files["config"])]) == 0
        dropped = [line for line in out.read_text(encoding="utf-8").splitlines()
                   if '"verdict":"drop"' in line]
        assert len(dropped) == 2
        out.write_text("".join(line + "\n" for line in dropped),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_line_in_the_documents_form_exits_two(self, synth_files,
                                                     capsys):
        # a line as written before doc_ids: a document object per slot and
        # gold_doc_id; it holds no doc_ids, so it is malformed
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        documents = _input_documents(synth_files["input"])
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").splitlines()]
        ids = records[1].pop("doc_ids")
        records[1]["gold_doc_id"] = ids[records[1]["gold_position"] - 1]
        records[1]["documents"] = [{**documents[doc_id], "rank": None}
                                   for doc_id in ids]
        write_jsonl(out, records)
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}" in err and "(line 2)" in err and "doc_ids" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("instruction", 5), ("target", ["t"]), ("gold_position", "x"),
        ("gold_position", 99), ("gold_position", 0)])
    def test_malformed_corpus_line_exits_two(self, synth_files, capsys, key,
                                             value):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").splitlines()]
        records[1][key] = value
        write_jsonl(out, records)
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}" in err and "(line 2)" in err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verdict, reason", [
        ("drop", 5), ("drop", ["x"]), ("drop", ""), ("drop", "  "),
        ("drop", None), ("keep", "misaligned")])
    def test_bad_drop_reason_exits_two(self, synth_files, capsys, verdict,
                                       reason):
        out = synth_files["dir"] / "corpus.jsonl"
        assert main(["synth", "--input", str(synth_files["input"]),
                     "--out", str(out), "--seed", "3",
                     "--config", str(synth_files["config"])]) == 0
        records = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").splitlines()]
        records[1].update(verdict=verdict, drop_reason=reason)
        write_jsonl(out, records)
        capsys.readouterr()
        assert main(["stats", "--corpus", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}" in err and "(line 2)" in err
        assert "drop_reason" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("run", "--max-hops"), ("run", "--top-k"), ("run", "--batch-size"),
    ("run", "--concurrency"), ("run", "--strict-citation"),
    # synthesis.noise_docs is gone, and no flag took its place
    ("run", "--templates"), ("synth", "--noise-docs"), ("synth", "--templates"),
])
def test_a_config_key_has_no_flag(tmp_path, capsys, command, flag):
    # no input need exist: the parser stops before anything is read
    inputs = {"run": ["--dataset", "ds.jsonl"],
              "synth": ["--input", "inputs.jsonl", "--seed", "1"]}[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, *inputs, "--config", str(tmp_path / "config.json"),
              "--out", str(tmp_path / "out"), flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_no_config_file_loads_the_defaults():
    assert Config.load(None) == Config() == Config.from_dict({})


def test_readme_config_block_names_every_key():
    """README's Configuration example loads, and names every key of every
    section record: a key added without its documentation fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1]
    documented = json.loads(block.split("```", 1)[0])
    named: dict[type, set[str]] = {}

    def visit(record, section):
        named.setdefault(type(record), set()).update(section)
        for key, value in section.items():
            if isinstance(value, dict):
                visit(getattr(record, key), value)

    visit(Config.from_dict(documented), documented)
    assert named == {kind: {f.name for f in fields(kind)} for kind in named}


class TestProgress:
    def test_rate_and_eta_from_the_start(self):
        readings = iter([10.0, 12.0, 14.0, 16.0, 20.0])
        progress = Progress("answered", clock=lambda: next(readings))
        assert [progress.line(done, 4) for done in range(1, 5)] == [
            "answered 1/4 (0.5/s, ETA 6 s)",
            "answered 2/4 (0.5/s, ETA 4 s)",
            "answered 3/4 (0.5/s, ETA 2 s)",
            "answered 4/4 (0.4/s)",
        ]

    def test_completions_a_microsecond_apart_keep_the_rate(self):
        # two completions collected on one wake-up fire back to back
        readings = iter([0.0, 0.1, 0.100001])
        progress = Progress("answered", clock=lambda: next(readings))
        assert [progress.line(done, 200) for done in (1, 2)] == [
            "answered 1/200 (10.0/s, ETA 20 s)",
            "answered 2/200 (20.0/s, ETA 10 s)",
        ]

    def test_no_elapsed_time_has_no_rate(self):
        assert Progress("judged", clock=lambda: 3.0).line(1, 1) == "judged 1/1"

    def test_lines_go_to_stderr_only(self, capsys):
        readings = iter([0.0, 0.5, 1.0])
        progress = Progress("synthesized", clock=lambda: next(readings))
        progress(1, 3)
        progress(2, 3)
        assert capsys.readouterr() == (
            "", "synthesized 1/3 (2.0/s, ETA 1 s)\n"
            "synthesized 2/3 (2.0/s, ETA 0 s)\n")


# every number a config can hold that the code must use as it is: the
# timeouts, a float passed to the socket, the temperature, sent as JSON,
# and the concurrency, the width of map_ordered's pool
NUMBER_KEYS = [("llm", "timeout"), ("retrieval", "timeout"),
               ("pipeline", "decoding", "temperature"),
               ("pipeline", "concurrency")]
number_text = st.one_of(
    st.integers(-2, 2**70).map(str),
    st.floats().map(json.dumps),  # inf and nan as Infinity and NaN
    st.sampled_from(["1e300", "1e400", "-1e400", "Infinity", "NaN",
                     "9223372036", "9223372037", "1e12"]))


class TestConfigNumbers:
    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(NUMBER_KEYS), number_text)
    def test_a_number_that_loads_is_usable(self, key, text):
        for name in reversed(key):
            text = f'{{"{name}": {text}}}'
        try:
            config = Config.from_dict(loads_utf8(text))
        except InvalidRecord:
            return
        for timeout in (config.llm.timeout, config.retrieval.timeout):
            with socket.socket() as sock:
                sock.settimeout(timeout)
        json.dumps({"temperature": config.pipeline.decoding.temperature},
                   allow_nan=False)
        assert list(map_ordered(str, [1, 2, 3], 3,
                                config.pipeline.concurrency)) == ["1", "2", "3"]
