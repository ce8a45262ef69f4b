import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopground import transport
from hopground.core import DecodingParams
from hopground.errors import MalformedResponse, TransportError
from hopground.llm import ChatMessage, Completion, OpenAIChatClient
from hopground.retrieval import retrieve_external

from helpers import StubServer

USER = [ChatMessage(role="user", content="hello there")]


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture()
def sleeps(monkeypatch):
    waited = []
    monkeypatch.setattr(transport.time, "sleep", waited.append)
    return waited


def ok(stub):
    stub.queue(200, {"ok": True})
    return stub


class TestRetryAfter:
    @pytest.mark.parametrize("header, wait", [
        ("2", 2.0),
        (" 3 ", 3.0),
        ("0", None),  # shorter than the backoff
        ("3600", transport.MAX_RETRY_AFTER),
        ("soon", None),
        ("-5", None),
        ("1.5", None),
        ("Wed, 21 Oct 2015 07:28:00 GMT", None),
    ])
    def test_wait_is_longer_of_backoff_and_header(self, stub, sleeps, header,
                                                  wait):
        stub.queue(429, {"error": "slow down"}, {"Retry-After": header})
        resp = transport.post_json(ok(stub).url, {}, timeout=5)
        assert resp.json() == {"ok": True}
        assert sleeps == [transport.BACKOFF_BASE if wait is None else wait]

    def test_backoff_doubles_without_header(self, stub, sleeps):
        stub.queue(503, {})
        stub.queue(503, {})
        transport.post_json(ok(stub).url, {}, timeout=5)
        assert sleeps == [transport.BACKOFF_BASE, 2 * transport.BACKOFF_BASE]

    def test_header_applies_to_the_next_wait_only(self, stub, sleeps):
        stub.queue(503, {}, {"Retry-After": "4"})
        stub.queue(503, {})
        transport.post_json(ok(stub).url, {}, timeout=5)
        assert sleeps == [4.0, 2 * transport.BACKOFF_BASE]

    def test_no_wait_after_the_last_attempt(self, stub, sleeps):
        for _ in range(2):
            stub.queue(429, {}, {"Retry-After": "7"})
        with pytest.raises(TransportError, match="after 2 attempts"):
            transport.post_json(stub.url, {}, timeout=5, max_attempts=2)
        assert sleeps == [7.0]


class TestConnectionFailures:
    def test_refused_connection_is_retried(self, sleeps):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            url = "http://127.0.0.1:%d" % sock.getsockname()[1]
            with pytest.raises(TransportError, match="after 3 attempts"):
                transport.post_json(url, {}, timeout=5)
        assert len(sleeps) == 2

    def test_timeout_is_retried(self, sleeps):
        with socket.socket() as sock:  # accepts connections, never replies
            sock.bind(("127.0.0.1", 0))
            sock.listen(8)
            url = "http://127.0.0.1:%d" % sock.getsockname()[1]
            with pytest.raises(TransportError, match="timed out"):
                transport.post_json(url, {}, timeout=0.05)
        assert len(sleeps) == 2


# --- payload fuzz: each reply ends in a result or the client's typed error

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def maybe(shape):
    """``shape`` most of the time, any JSON value otherwise."""
    return shape | JSON


def obj(required, **optional):
    """A JSON object with the ``required`` keys and any of ``optional``."""
    return maybe(st.fixed_dictionaries(required, optional=optional))


CHAT_REPLIES = obj(
    {"choices": maybe(st.lists(obj({"message": obj(
        {"content": maybe(st.text())})}), max_size=2))},
    usage=obj({}, prompt_tokens=maybe(st.integers() | st.floats()),
              completion_tokens=maybe(st.integers() | st.floats())))

RETRIEVAL_REPLIES = obj({"results": maybe(st.lists(obj(
    {"id": maybe(st.text() | st.integers()), "body": maybe(st.text())},
    title=maybe(st.text()), score=JSON), max_size=3))})

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def fuzz_stub():
    server = StubServer()
    yield server
    server.close()


# a reply body is a JSON text (non-finite floats go out as NaN/Infinity)
# or any text at all
@FUZZ
@given(body=CHAT_REPLIES.map(json.dumps) | st.text())
def test_chat_reply_shapes(fuzz_stub, body):
    fuzz_stub.queue(200, body)
    client = OpenAIChatClient(base_url=fuzz_stub.url, model="m", api_key="k")
    try:
        assert isinstance(client.complete(USER, DecodingParams()), Completion)
    except TransportError:
        pass


@FUZZ
@given(body=RETRIEVAL_REPLIES.map(json.dumps) | st.text())
def test_retrieval_reply_shapes(fuzz_stub, body):
    fuzz_stub.queue(200, body)
    try:
        docs = retrieve_external(fuzz_stub.url, "q", top_k=2)
    except MalformedResponse:
        return
    results = json.loads(body)["results"]
    assert len(docs) == min(len(results), 2)
    for rank, (doc, result) in enumerate(zip(docs, results), start=1):
        assert doc.rank == rank
        assert doc.body == result["body"]
