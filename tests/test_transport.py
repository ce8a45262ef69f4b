import functools
import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopground import ExternalRetriever, transport
from hopground.core import DecodingParams
from hopground.errors import MalformedResponse, TransportError
from hopground.llm import ChatMessage, Completion, LlmConfig
from hopground.pipeline import RetrievalConfig

from helpers import StubServer, TrickleStub

USER = [ChatMessage(role="user", content="hello there")]
FIXTURES = Path(__file__).parent / "fixtures"


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


@pytest.fixture()
def attempts(monkeypatch):
    """Sets ``transport.MAX_ATTEMPTS`` for one test."""
    return functools.partial(monkeypatch.setattr, transport, "MAX_ATTEMPTS")


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
        body = transport.post_json(ok(stub).url, {}, timeout=5)
        assert json.loads(body) == {"ok": True}
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

    def test_no_wait_after_the_last_attempt(self, stub, sleeps, attempts):
        attempts(2)
        for _ in range(2):
            stub.queue(429, {}, {"Retry-After": "7"})
        with pytest.raises(TransportError, match="after 2 attempts"):
            transport.post_json(stub.url, {}, timeout=5)
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

    def test_connection_closed_while_idle_is_replaced_for_free(self, sleeps):
        stub = StubServer(keep_alive=True, hang_up=True)
        try:
            ok(ok(stub))
            transport.post_json(stub.url, {}, timeout=5)
            assert stub.closed.wait(timeout=5)
            transport.post_json(stub.url, {}, timeout=5)
        finally:
            stub.close()
        assert sleeps == []
        assert len(stub.requests) == 2


class TestTimeoutBoundsTheAttempt:
    def test_reply_that_trickles_in_fails_within_the_timeout(self, attempts):
        attempts(1)
        stub = TrickleStub(b"x" * 20, interval=0.3)  # 6 s to send it all
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                transport.post_json(stub.url, {}, timeout=0.5)
            assert time.monotonic() - start < 1.0
        finally:
            stub.close()

    def test_headers_that_trickle_in_fail_within_the_timeout(self, attempts):
        attempts(1)
        stub = TrickleStub(b"{}", interval=0.3, head=True)  # 11 s of headers
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                transport.post_json(stub.url, {}, timeout=0.5)
            assert time.monotonic() - start < 1.0
        finally:
            stub.close()

    def test_headers_in_pieces_within_the_timeout_are_read(self):
        stub = TrickleStub(b"{}", interval=0.001, piece=3, head=True)
        try:
            assert transport.post_json(stub.url, {}, timeout=5) == b"{}"
        finally:
            stub.close()

    def test_late_attempt_is_retried(self, sleeps, attempts):
        attempts(2)
        stub = TrickleStub(b"x" * 20, interval=0.3)
        try:
            with pytest.raises(TransportError, match="after 2 attempts"):
                transport.post_json(stub.url, {}, timeout=0.2)
        finally:
            stub.close()
        assert stub.requests == 2
        assert sleeps == [transport.BACKOFF_BASE]

    @pytest.mark.parametrize("chunked", [False, True])
    def test_body_in_pieces_within_the_timeout_is_read_whole(self, chunked):
        body = json.dumps({"ok": True, "pad": "y" * 40}).encode()
        stub = TrickleStub(body, interval=0.005, piece=7, chunked=chunked)
        try:
            assert transport.post_json(stub.url, {}, timeout=5) == body
        finally:
            stub.close()

    def test_body_shorter_than_its_length_fails(self, sleeps, attempts):
        attempts(1)
        stub = TrickleStub(b"x" * 20, interval=0, piece=20, length=30)
        try:
            with pytest.raises(TransportError, match="after 1 attempts"):
                transport.post_json(stub.url, {}, timeout=5)
        finally:
            stub.close()


class TestFailsAtOnce:
    @pytest.mark.parametrize("url", ["localhost:8000/v1", "ftp://x",
                                     "http://", "http://h:port/v1"])
    def test_malformed_url(self, sleeps, url):
        with pytest.raises(TransportError,
                           match="must be an http:// or https:// URL"):
            transport.post_json(url, {}, timeout=5)
        assert sleeps == []

    def test_non_finite_payload(self, stub, sleeps):
        with pytest.raises(TransportError, match="not JSON compliant"):
            transport.post_json(stub.url, {"temperature": float("inf")},
                                timeout=5)
        assert stub.requests == [] and sleeps == []

    def test_header_that_cannot_be_sent(self, stub, sleeps):
        with pytest.raises(TransportError, match="cannot send"):
            transport.post_json(stub.url, {}, timeout=5,
                                headers={"Authorization": "Bearer k\r\n"})
        assert stub.requests == [] and sleeps == []

    def test_redirect_is_not_followed(self, stub, sleeps):
        stub.queue(307, {"moved": True}, {"Location": f"{stub.url}/new"})
        with pytest.raises(TransportError, match="HTTP 307"):
            transport.post_json(ok(stub).url, {}, timeout=5)
        assert stub.targets == ["/"] and sleeps == []


def test_request_shape(stub):
    transport.post_json(ok(stub).url + "/v1/search?k=1", {"query": "q"},
                        timeout=5, headers={"Authorization": "Bearer k"})
    assert stub.targets == ["/v1/search?k=1"]
    assert stub.requests == [{"query": "q"}]
    headers = stub.headers[0]
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"].startswith("hopground/")
    assert headers["Authorization"] == "Bearer k"


def test_every_client_makes_the_transports_attempts(stub, attempts):
    # the count is read at each call, so the chat client and the retriever
    # both follow the one patched value
    attempts(2)
    for _ in range(6):
        stub.queue(503, {"error": "down"})
    chat = LlmConfig(backend="openai", base_url=stub.url, model="m",
                     api_key_env="HOPGROUND_NO_KEY").client("llm")
    with pytest.raises(TransportError, match="after 2 attempts"):
        chat.complete(USER, DecodingParams())
    retriever = ExternalRetriever(stub.url + "/search",
                                  RetrievalConfig().timeout)
    with pytest.raises(TransportError, match="after 2 attempts"):
        retriever.retrieve("q", 2)
    assert stub.targets == ["/chat/completions"] * 2 + ["/search"] * 2


@pytest.fixture()
def no_proxies(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.mark.usefixtures("no_proxies")
class TestProxies:
    def test_http_request_goes_to_the_proxy_in_absolute_form(
            self, stub, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", stub.url)
        url = "http://upstream.test:8080/v1/chat/completions"
        ok(stub)
        body = transport.post_json(url, {"a": 1}, timeout=5)
        assert json.loads(body) == {"ok": True}
        assert stub.targets == [url]
        assert stub.requests == [{"a": 1}]

    def test_no_proxy_match_bypasses_the_proxy(self, stub, monkeypatch):
        proxy = StubServer()
        try:
            monkeypatch.setenv("HTTP_PROXY", proxy.url)
            monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
            transport.post_json(ok(stub).url + "/direct", {}, timeout=5)
        finally:
            proxy.close()
        assert stub.targets == ["/direct"]
        assert proxy.targets == []

    @pytest.mark.parametrize("proxy", ["http://:3128", "proxy:abc",
                                       "socks5://proxy:1080"])
    def test_malformed_proxy_fails_at_once(self, sleeps, monkeypatch, proxy):
        monkeypatch.setenv("HTTP_PROXY", proxy)
        with pytest.raises(TransportError, match="bad proxy"):
            transport.post_json("http://bad-proxy.test/v1", {}, timeout=5)
        assert sleeps == []

    def test_https_request_tunnels_through_connect(self, stub, monkeypatch,
                                                  attempts):
        attempts(1)
        monkeypatch.setenv("HTTPS_PROXY", stub.url)
        with pytest.raises(TransportError, match="Tunnel connection failed"):
            transport.post_json("https://secure.test:8443/v1", {}, timeout=5)
        assert stub.targets == ["secure.test:8443"]
        assert stub.requests == []


@pytest.mark.usefixtures("no_proxies")
class TestTls:
    @pytest.fixture(autouse=True)
    def fresh_context(self, monkeypatch):
        # the context reads SSL_CERT_FILE once; each test builds its own
        monkeypatch.setattr(transport, "_tls_context", functools.cache(
            transport._tls_context.__wrapped__))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)

    @pytest.fixture()
    def tls_stub(self):
        server = StubServer(certfile=str(FIXTURES / "localhost.pem"))
        yield server
        server.close()

    def test_ssl_cert_file_names_the_trusted_store(self, tls_stub,
                                                   monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(FIXTURES / "localhost.pem"))
        url = ok(tls_stub).url.replace("127.0.0.1", "localhost")
        assert json.loads(transport.post_json(url, {}, timeout=5)) == {
            "ok": True}

    @pytest.mark.parametrize("host, trusted, reason", [
        ("127.0.0.1", True, r"not valid for '127\.0\.0\.1'"),
        ("localhost", False, "self.signed certificate"),
    ])
    def test_unverified_server_is_refused(self, tls_stub, monkeypatch, host,
                                          trusted, reason, attempts):
        attempts(1)
        if trusted:
            monkeypatch.setenv("SSL_CERT_FILE",
                               str(FIXTURES / "localhost.pem"))
        else:
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        url = tls_stub.url.replace("127.0.0.1", host)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"
                           ) as err:
            transport.post_json(url, {}, timeout=5)
        assert re.search(reason, str(err.value))
        assert tls_stub.requests == []


def _python(code: str, *args: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter that
    imports from ``src`` and ``tests``."""
    here = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60, check=True)
    return done.stdout


def test_cli_import_loads_no_requests():
    assert _python("import sys, hopground.cli; "
                   "print('requests' in sys.modules)").strip() == "False"


def test_cli_import_loads_no_numpy():
    assert _python("import sys, hopground.cli; "
                   "print('numpy' in sys.modules)").strip() == "False"


_NO_LOCAL_INDEX = """
import json, sys
from pathlib import Path
from hopground.cli import main
from helpers import (FESTIVAL_CORPUS, FESTIVAL_SCRIPT, StubServer, write_json,
                     write_festival_files, write_synth_files)

work = Path(sys.argv[1])
files = write_festival_files(work)
stub = StubServer()
try:
    for _ in range(2):
        stub.queue(200, {"results": [d.to_dict() for d in FESTIVAL_CORPUS]})
    config = write_json(work / "external.json", {
        "pipeline": {"concurrency": 1, "retriever": "external"},
        "llm": {"backend": "scripted", "script_path": str(files["script"])},
        "retrieval": {"external_endpoint": stub.url + "/search"}})
    codes = [main(["run", "--dataset", str(files["dataset"]),
                   "--config", str(config), "--out", str(files["out"])])]
finally:
    stub.close()
codes.append(main(["eval", "--dataset", str(files["dataset"]),
                   "--trajectories",
                   str(files["out"] / "trajectories.jsonl")]))
synth = write_synth_files(work)
codes.append(main(["synth", "--input", str(synth["input"]), "--seed", "7",
                   "--out", str(work / "synth.jsonl"),
                   "--config", str(synth["config"])]))
codes.append(main(["stats", "--corpus", str(work / "synth.jsonl")]))
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_commands_without_a_local_index_load_no_numpy(tmp_path):
    # run against an external retriever, eval, synth and stats
    out = _python(_NO_LOCAL_INDEX, str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [[0, 0, 0, 0], False]


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
def test_chat_reply_shapes(fuzz_stub, monkeypatch, body):
    monkeypatch.setenv("HOPGROUND_TEST_KEY", "k")
    fuzz_stub.queue(200, body)
    client = LlmConfig(backend="openai", base_url=fuzz_stub.url, model="m",
                       api_key_env="HOPGROUND_TEST_KEY").client("llm")
    try:
        assert isinstance(client.complete(USER, DecodingParams()), Completion)
    except TransportError:
        pass


@FUZZ
@given(body=RETRIEVAL_REPLIES.map(json.dumps) | st.text())
def test_retrieval_reply_shapes(fuzz_stub, body):
    fuzz_stub.queue(200, body)
    try:
        docs = ExternalRetriever(fuzz_stub.url, RetrievalConfig().timeout
                                 ).retrieve("q", 2)
    except MalformedResponse:
        return
    results = json.loads(body)["results"]
    assert len(docs) == min(len(results), 2)
    for rank, (doc, result) in enumerate(zip(docs, results), start=1):
        assert doc.rank == rank
        assert doc.body == result["body"]
