import json
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from hopground import llm
from hopground.core import DecodingParams, Termination
from hopground.errors import (ConfigError, InvalidRecord, MalformedGrounding,
                              ScriptExhausted, TransportError)
from hopground.grounding import parse_grounding
from hopground.llm import (ChatMessage, Completion, LlmConfig,
                           ScriptedClient, retry_parse)
from hopground.pipeline import BM25Retriever, PipelineConfig, answer_dataset
from hopground.retrieval import build_index

from helpers import (FESTIVAL_CORPUS, FESTIVAL_HOP1_REVISED,
                     FESTIVAL_QUESTION, FESTIVAL_SCRIPT, InFlightStub,
                     LoggedScript, StubServer)

USER = [ChatMessage(role="user", content="hello there")]
PARAMS = DecodingParams()


class TestChatMessage:
    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage(role="tool", content="x")


class TestScriptedClient:
    def test_passthrough(self):
        client = ScriptedClient(["hello"])
        assert client.complete(USER, PARAMS).text == "hello"

    def test_exhaustion(self):
        client = ScriptedClient([])
        with pytest.raises(ScriptExhausted):
            client.complete(USER, PARAMS)

    def test_requires_trailing_user_message(self):
        client = ScriptedClient(["x"])
        with pytest.raises(ValueError):
            client.complete([ChatMessage(role="assistant", content="hi")], PARAMS)
        with pytest.raises(ValueError):
            client.complete([], PARAMS)

    def test_deterministic_sequence(self):
        script = ["one", "two", "three"]
        runs = []
        for _ in range(2):
            client = ScriptedClient(script)
            runs.append([client.complete(USER, PARAMS) for _ in script])
        assert runs[0] == runs[1]

    def test_counts_tokens_by_whitespace(self):
        client = ScriptedClient(["a b c"])
        completion = client.complete(USER, PARAMS)
        assert completion.prompt_tokens == 2  # "hello there"
        assert completion.completion_tokens == 3

    def test_records_calls(self):
        client = LoggedScript(["x", "y"])
        client.complete(USER, PARAMS)
        client.complete([ChatMessage(role="user", content="second")], PARAMS)
        assert len(client.calls) == 2
        assert client.calls[1][0].content == "second"

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["only reply"]), encoding="utf-8")
        client = ScriptedClient.from_file(path)
        assert client.complete(USER, PARAMS).text == "only reply"

    def test_from_file_rejects_non_strings(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([1, 2]), encoding="utf-8")
        with pytest.raises(ValueError):
            ScriptedClient.from_file(path)

    def test_concurrent_consumption_is_total(self):
        # every scripted response is handed out exactly once across threads
        script = [f"reply {i}" for i in range(100)]
        client = ScriptedClient(script)
        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = list(pool.map(
                lambda _: client.complete(USER, PARAMS).text, range(100)))
        assert sorted(texts) == sorted(script)
        with pytest.raises(ScriptExhausted):
            client.complete(USER, PARAMS)

    def test_keeps_no_prompt_it_has_answered(self):
        client = ScriptedClient(["reply"] * 1000)
        answered = []
        for i in range(1000):
            message = ChatMessage(role="user", content=f"prompt {i}")
            answered.append(weakref.ref(message))
            client.complete([message], PARAMS)
        del message
        assert [ref for ref in answered if ref() is not None] == []

    def test_logged_script_logs_in_reply_order_across_threads(self):
        script = [f"reply {i}" for i in range(100)]
        client = LoggedScript(script)

        def ask(i):
            prompt = f"prompt {i}"
            text = client.complete([ChatMessage("user", prompt)], PARAMS).text
            return prompt, text

        with ThreadPoolExecutor(max_workers=4) as pool:
            reply_to = dict(pool.map(ask, range(100)))
        assert [reply_to[call[0].content] for call in client.calls] == script
        assert client.remaining == 0


class TestRetryParse:
    def parse_next(self, llm, attempts):
        def attempt():
            attempts.append(1)
            return parse_grounding(llm.complete(USER, PARAMS).text)
        return attempt

    def test_bad_then_good_returns_the_retry(self):
        llm = ScriptedClient(["no tags", "<ref> e </ref> <revise> a </revise>"])
        attempts = []
        outcome = retry_parse(self.parse_next(llm, attempts))
        assert outcome.revised_answer == "a"
        assert len(attempts) == 2

    def test_bad_twice_raises_the_second_error(self):
        llm = ScriptedClient(["first bad", "second bad", "never sent"])
        attempts = []
        with pytest.raises(MalformedGrounding) as err:
            retry_parse(self.parse_next(llm, attempts))
        assert err.value.text == "second bad"
        assert len(attempts) == 2
        assert llm.complete(USER, PARAMS).text == "never sent"

    def test_other_errors_are_not_retried(self):
        attempts = []
        with pytest.raises(ScriptExhausted):
            retry_parse(self.parse_next(ScriptedClient([]), attempts))
        assert len(attempts) == 1


class TestCompletion:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Completion(text="x", prompt_tokens=-1)


KEY_ENV = "HOPGROUND_TEST_KEY"  # the api_key_env of every test client


@pytest.fixture()
def stub(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "sk-test")
    server = StubServer()
    yield server
    server.close()


def make_client(stub, **kwargs):
    return LlmConfig(backend="openai", base_url=stub.url, model="test-model",
                     api_key_env=KEY_ENV, **kwargs).client("llm")


class TestOpenAIChatClient:
    def test_success_and_request_shape(self, stub):
        stub.queue_completion("the reply", prompt_tokens=11, completion_tokens=4)
        client = make_client(stub)
        completion = client.complete(USER, DecodingParams(temperature=0.0,
                                                          max_output_tokens=64))
        assert completion == Completion("the reply", 11, 4)
        body = stub.requests[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0  # deterministic decoding on the wire
        assert body["max_tokens"] == 64
        assert body["messages"] == [{"role": "user", "content": "hello there"}]
        assert stub.headers[0]["Authorization"] == "Bearer sk-test"

    def test_sends_with_the_settings_of_its_section(self, monkeypatch):
        sent = []

        def post_json(url, payload, timeout, headers):
            sent.append((url, timeout))
            return json.dumps({"choices": [{"message": {"content": "ok"}}]}
                              ).encode()

        monkeypatch.setattr(llm, "post_json", post_json)
        client = LlmConfig(backend="openai", base_url="http://h:1/v1/",
                           model="m", timeout=7.5).client("llm")
        assert client.complete(USER, PARAMS).text == "ok"
        assert sent == [("http://h:1/v1/chat/completions", 7.5)]

    @pytest.mark.parametrize("setting", [{"timeout": 1e12}, {"timeout": 0}])
    def test_no_client_outside_the_bounds_of_its_section(self, stub,
                                                         setting):
        with pytest.raises(InvalidRecord, match=next(iter(setting))):
            make_client(stub, **setting)
        assert stub.requests == []

    def test_unset_key_sends_no_authorization(self, stub, monkeypatch):
        monkeypatch.delenv(KEY_ENV)
        stub.queue_completion("the reply")
        make_client(stub).complete(USER, PARAMS)
        assert "Authorization" not in stub.headers[0]

    def test_retries_then_succeeds(self, stub):
        stub.queue(500, {"error": "boom"})
        stub.queue(429, {"error": "slow down"})
        stub.queue_completion("recovered")
        client = make_client(stub)
        assert client.complete(USER, PARAMS).text == "recovered"
        assert len(stub.requests) == 3

    def test_transport_error_after_bounded_retries(self, stub):
        for _ in range(3):
            stub.queue(503, {"error": "down"})
        client = make_client(stub)
        with pytest.raises(TransportError):
            client.complete(USER, PARAMS)
        assert len(stub.requests) == 3

    def test_non_retryable_status_fails_fast(self, stub):
        stub.queue(401, {"error": "bad key"})
        client = make_client(stub)
        with pytest.raises(TransportError):
            client.complete(USER, PARAMS)
        assert len(stub.requests) == 1

    def test_malformed_payload(self, stub):
        stub.queue(200, {"unexpected": "shape"})
        client = make_client(stub)
        with pytest.raises(TransportError):
            client.complete(USER, PARAMS)

    def test_missing_usage_defaults_to_zero(self, stub):
        stub.queue(200, {"choices": [{"message": {"content": "ok"}}]})
        client = make_client(stub)
        completion = client.complete(USER, PARAMS)
        assert completion.counts.prompt_tokens == 0

    @pytest.mark.parametrize("content", [None, 42, ["text"], {"text": "x"}])
    def test_non_string_content_is_a_transport_error(self, stub, content):
        stub.queue(200, {"choices": [{"message": {"content": content}}]})
        client = make_client(stub)
        with pytest.raises(TransportError, match="not a string"):
            client.complete(USER, PARAMS)
        assert len(stub.requests) == 1

    @pytest.mark.parametrize("usage", ["many", {"prompt_tokens": "x"},
                                       {"prompt_tokens": -1},
                                       {"prompt_tokens": float("inf")}])
    def test_unusable_usage_is_a_transport_error(self, stub, usage):
        stub.queue(200, {"choices": [{"message": {"content": "ok"}}],
                         "usage": usage})
        with pytest.raises(TransportError, match="unusable completion"):
            make_client(stub).complete(USER, PARAMS)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_a_reply_not_in_utf8_is_a_transport_error(self, monkeypatch,
                                                      encoding):
        # json.loads would read each of these bytes as the reply "ok"
        body = json.dumps({"choices": [{"message": {"content": "ok"}}],
                           "usage": {"prompt_tokens": 3,
                                     "completion_tokens": 1}})
        monkeypatch.setattr(llm, "post_json",
                            lambda *args: body.encode(encoding))
        client = LlmConfig(backend="openai", base_url="http://h:1/v1",
                           model="m").client("llm")
        with pytest.raises(TransportError, match="unusable completion"):
            client.complete(USER, PARAMS)

    def test_unusable_reply_carries_its_usage(self, stub):
        stub.queue(200, {"choices": [], "usage": {"prompt_tokens": 5,
                                                  "completion_tokens": 2}})
        with pytest.raises(TransportError) as err:
            make_client(stub).complete(USER, PARAMS)
        assert err.value.usage == (5, 2)

    def test_concurrent_calls_keep_every_connection(self, monkeypatch):
        # 12 requests held in flight at once, twice over: each thread sends
        # its second request over the connection its first one opened
        monkeypatch.setenv(KEY_ENV, "k")
        stub = InFlightStub(12)
        client = LlmConfig(backend="openai", base_url=stub.url, model="m",
                           api_key_env=KEY_ENV).client("llm")
        replies = []

        def call():
            for _ in range(2):
                replies.append(client.complete(USER, PARAMS).text)

        threads = [threading.Thread(target=call) for _ in range(12)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            stub.close()
        assert not any(thread.is_alive() for thread in threads)
        assert replies == ["###Finish[x]"] * 24
        assert stub.most_in_flight == 12
        assert sorted(Counter(stub.peers).values()) == [2] * 12

    def test_null_reply_keeps_completed_hops(self, stub, library):
        # hop 1 completes; the hop-2 deduction comes back with null content
        stub.queue_completion(FESTIVAL_SCRIPT[0])
        stub.queue_completion(FESTIVAL_SCRIPT[1])
        stub.queue(200, {"choices": [{"message": {"content": None}}],
                         "usage": {"prompt_tokens": 5, "completion_tokens": 0}})
        [trajectory] = answer_dataset(
            [FESTIVAL_QUESTION], PipelineConfig(concurrency=1),
            make_client(stub), BM25Retriever(build_index(FESTIVAL_CORPUS)),
            library)
        assert trajectory.termination is Termination.PARSE_FAILURE
        assert [h.revised_answer for h in trajectory.hops] == [
            FESTIVAL_HOP1_REVISED]
        assert trajectory.final_answer == FESTIVAL_HOP1_REVISED
        assert trajectory.token_usage.total.prompt_tokens == 19


class TestLlmConfig:
    @pytest.mark.parametrize("section, message", [
        (LlmConfig(backend="scripted"), "judge_llm: scripted backend needs "
                                        "script_path"),
        (LlmConfig(backend="openai", model="m"), "judge_llm: openai backend "
                                                 "needs base_url and model"),
        (LlmConfig(backend="openai", base_url="http://127.0.0.1:9/v1"),
         "judge_llm: openai backend needs base_url and model"),
        (LlmConfig(), "judge_llm: backend must be 'openai' or 'scripted'"),
    ])
    def test_unusable_section_raises_config_error(self, section, message):
        with pytest.raises(ConfigError) as err:
            section.client("judge_llm")
        assert str(err.value) == message
