"""Loopback chat-completions and retrieval services for the HTTP workloads.

Both run in the benchmark's own process on one threaded HTTP/1.1 server.
The chat service answers through ``plan.Responder`` and holds each reply
for a simulated service time of base + per-prompt-token +
per-completion-token, scaled by a jitter that is a fixed function of the
seed and the prompt, so a request always costs the same.  The retrieval
service returns each sub-question's planned result list.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import threading
import time
from dataclasses import asdict, dataclass, field

from plan import count_tokens


@dataclass(frozen=True)
class Latency:
    base_ms: float = 8.0
    per_prompt_token_ms: float = 0.01
    per_completion_token_ms: float = 0.2
    jitter: float = 0.2          # service time varies by +-jitter/2
    search_ms: float = 2.0

    def scale(self, seed: int, key: str) -> float:
        digest = hashlib.blake2b(f"{seed}:{key}".encode(), digest_size=8)
        u = int.from_bytes(digest.digest(), "big") / 2 ** 64
        return 1.0 + self.jitter * (u - 0.5)

    def chat_ms(self, seed: int, prompt: str, prompt_tokens: int,
                completion_tokens: int) -> float:
        return self.scale(seed, prompt) * (
            self.base_ms + self.per_prompt_token_ms * prompt_tokens
            + self.per_completion_token_ms * completion_tokens)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PassStats:
    """What the services saw during one pass of the program."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    service_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    inflight: int = 0
    inflight_max: int = 0
    first_request: float | None = None
    items: dict = field(default_factory=dict)   # id -> [first in, last out]
    searches: int = 0
    fail_fast: bool = False   # answer every chat request with HTTP 400 at once


class SimServer:
    def __init__(self, responder, seed: int, latency: Latency,
                 search: dict | None = None):
        self.responder = responder
        self.seed = seed
        self.latency = latency
        self._search = {q: json.dumps(r).encode() for q, r in
                        (search or {}).items()}
        self._lock = threading.Lock()
        self.stats = PassStats()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True   # headers and body go out apart

            def do_POST(self):
                arrived = time.monotonic()
                body = self.rfile.read(int(self.headers["Content-Length"]))
                if self.path.endswith("/chat/completions"):
                    status, payload, item = server._chat(body, arrived)
                elif self.path == "/search":
                    status, payload, item = server._search_reply(body,
                                                                 arrived)
                else:
                    status, payload, item = 404, b"{}", None
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                self.wfile.flush()
                if item is not None:
                    server._done(item)

            def log_message(self, *args):
                pass

        self._httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                      Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_port}"

    def reset(self, fail_fast: bool = False) -> PassStats:
        """Start a new pass; returns the finished pass's stats."""
        with self._lock:
            finished, self.stats = self.stats, PassStats(fail_fast=fail_fast)
        self.responder.reset()
        return finished

    def _hold(self, arrived: float, planned_ms: float) -> float:
        remaining = arrived + planned_ms / 1000 - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        return (time.monotonic() - arrived) * 1000

    def _chat(self, body: bytes, arrived: float):
        request = json.loads(body)
        messages = request["messages"]
        prompt = "\n".join(m["content"] for m in messages)
        s = self.stats
        if s.fail_fast:
            with self._lock:
                if s.first_request is None:
                    s.first_request = arrived
            return 400, b'{"error": "setup probe"}', None
        with self._lock:
            s.inflight += 1
            s.inflight_max = max(s.inflight_max, s.inflight)
            if s.first_request is None:
                s.first_request = arrived
        text, item = self.responder.reply(prompt)
        prompt_tokens = sum(count_tokens(m["content"]) for m in messages)
        completion_tokens = count_tokens(text) if text is not None else 0
        planned = self.latency.chat_ms(self.seed, prompt, prompt_tokens,
                                       completion_tokens)
        actual = self._hold(arrived, planned)
        with self._lock:
            s.inflight -= 1
            s.calls += 1
            s.service_ms.append(actual)
            s.late_ms.append(actual - planned)
            s.items.setdefault(item, [arrived, arrived])
            if text is not None:
                s.prompt_tokens += prompt_tokens
                s.completion_tokens += completion_tokens
        if text is None:   # a planned transport failure
            return 400, b'{"error": "planned failure"}', (s, item)
        payload = {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": prompt_tokens,
                      "completion_tokens": completion_tokens},
        }
        return 200, json.dumps(payload).encode(), (s, item)

    def _search_reply(self, body: bytes, arrived: float):
        query = json.loads(body)["query"]
        reply = self._search.get(query)
        self._hold(arrived, self.latency.search_ms
                   * self.latency.scale(self.seed, query))
        with self._lock:
            self.stats.searches += 1
        if reply is None:
            return 404, b'{"error": "unplanned query"}', None
        return 200, reply, None

    def _done(self, token) -> None:
        stats, item = token
        with self._lock:
            stats.items[item][1] = time.monotonic()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
