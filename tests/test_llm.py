import json
import logging
import threading

import pytest

from hopground.core import DecodingParams, Termination
from hopground.errors import (MalformedGrounding, ScriptExhausted,
                              TransportError)
from hopground.grounding import parse_grounding
from hopground.llm import (ChatMessage, Completion, OpenAIChatClient,
                           ScriptedClient, retry_parse)
from hopground.pipeline import BM25Retriever, PipelineConfig, answer_dataset
from hopground.retrieval import build_index

from helpers import (FESTIVAL_CORPUS, FESTIVAL_HOP1_REVISED,
                     FESTIVAL_QUESTION, FESTIVAL_SCRIPT, InFlightStub,
                     StubServer)

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
        client = ScriptedClient(["x", "y"])
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
        from concurrent.futures import ThreadPoolExecutor
        script = [f"reply {i}" for i in range(100)]
        client = ScriptedClient(script)
        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = list(pool.map(
                lambda _: client.complete(USER, PARAMS).text, range(100)))
        assert sorted(texts) == sorted(script)
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
        assert llm.remaining == 1

    def test_other_errors_are_not_retried(self):
        attempts = []
        with pytest.raises(ScriptExhausted):
            retry_parse(self.parse_next(ScriptedClient([]), attempts))
        assert len(attempts) == 1


class TestCompletion:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Completion(text="x", prompt_tokens=-1)


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


def make_client(stub, **kwargs):
    return OpenAIChatClient(base_url=stub.url, model="test-model",
                            api_key="sk-test", **kwargs)


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
        client = make_client(stub, max_attempts=3)
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

    def test_unusable_reply_carries_its_usage(self, stub):
        stub.queue(200, {"choices": [], "usage": {"prompt_tokens": 5,
                                                  "completion_tokens": 2}})
        with pytest.raises(TransportError) as err:
            make_client(stub).complete(USER, PARAMS)
        assert err.value.usage == (5, 2)

    def test_concurrent_calls_keep_every_connection(self, caplog):
        # 12 requests held in flight at once: more than one pool's 10 slots
        stub = InFlightStub(12)
        client = OpenAIChatClient(base_url=stub.url, model="m", api_key="k")
        replies = []

        def call():
            replies.append(client.complete(USER, PARAMS).text)

        threads = [threading.Thread(target=call) for _ in range(12)]
        try:
            with caplog.at_level(logging.WARNING, logger="urllib3"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
        finally:
            stub.close()
        assert not any(thread.is_alive() for thread in threads)
        assert replies == ["###Finish[x]"] * 12
        assert stub.most_in_flight == 12
        assert "Connection pool is full" not in caplog.text

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
