"""Text-generation backends behind one ``complete()`` interface.

Two backends ship: an OpenAI-compatible chat-completions HTTP client, which
sends through ``transport.post_json`` and so retries as it does, and a
deterministic scripted backend for tests and offline replays.  Both are safe
to share between threads.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, Protocol, Sequence, TypeVar

from .core import (ConfigRecord, Count, DecodingParams, Positive, Record,
                   TokenCounts, loads_utf8)
from .errors import ConfigError, ParseError, ScriptExhausted, TransportError
from .transport import check_url, post_json

_T = TypeVar("_T")


@dataclass(frozen=True)
class ChatMessage(Record):
    role: Literal["system", "user", "assistant"]
    content: str


@dataclass(frozen=True)
class Completion(Record):
    text: str
    prompt_tokens: Count = 0
    completion_tokens: Count = 0

    @property
    def counts(self) -> TokenCounts:
        return TokenCounts(self.prompt_tokens, self.completion_tokens)


def _check_request(messages: Sequence[ChatMessage]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[-1].role != "user":
        raise ValueError("last message must have role=user")


class LlmClient(Protocol):
    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion: ...


def retry_parse(attempt: Callable[[], _T]) -> _T:
    """Call ``attempt()``, and once more if it raises ``ParseError``.

    This is the one retry policy for every structured model reply
    (deduction, grounding and judge): a second unusable reply propagates.
    """
    try:
        return attempt()
    except ParseError:
        return attempt()


class ScriptedClient:
    """Replays a fixed list of responses in order.

    Token counts are whitespace token counts of the request and response.
    A lock makes the consumption order total under concurrent callers.  The
    client keeps no request it has answered, so a long replay holds its
    script and nothing more.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self._cursor = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedClient":
        """Load a JSON array of response strings."""
        with open(path, encoding="utf-8") as f:
            responses = loads_utf8(f.read())
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise ValueError(f"{path}: script file must be a JSON array of strings")
        return cls(responses)

    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion:
        _check_request(messages)
        with self._lock:
            if self._cursor >= len(self._responses):
                raise ScriptExhausted(
                    f"script exhausted after {self._cursor} responses")
            text = self._responses[self._cursor]
            self._cursor += 1
        prompt_tokens = sum(len(m.content.split()) for m in messages)
        return Completion(text=text, prompt_tokens=prompt_tokens,
                          completion_tokens=len(text.split()))


class OpenAIChatClient:
    """Chat-completions client for any OpenAI-compatible endpoint, built
    by ``LlmConfig.client`` from the section it has checked.

    Requests go through ``transport.post_json``: 429/5xx replies and
    connection errors are retried up to ``transport.MAX_ATTEMPTS``
    attempts, as every outside request is, a 3xx reply is not followed,
    and each calling thread keeps one keep-alive connection to the
    endpoint.  ``timeout`` bounds each attempt from its start: its connect,
    send and reply, which may trickle in no longer than the time left; a
    retry gets a new ``timeout``.  The client sets no limit of its own on
    requests in flight: that is the number of threads calling it.
    """

    def __init__(self, config: LlmConfig):
        self.config = config
        self.url = f"{config.base_url.rstrip('/')}/chat/completions"
        self.api_key = os.environ.get(config.api_key_env, "")

    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion:
        _check_request(messages)
        payload = {
            "model": self.config.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        headers = ({"Authorization": f"Bearer {self.api_key}"}
                   if self.api_key else {})

        return self._parse_response(post_json(
            self.url, payload, self.config.timeout, headers))

    @staticmethod
    def _parse_response(body: bytes) -> Completion:
        usage = (0, 0)  # an error raised before usage is read reports none
        try:
            # strictly UTF-8, as every outside input: json.loads alone
            # accepts UTF-16, UTF-32 and a BOM.  Not loads_utf8, which
            # would reject a lone surrogate before the usage is read
            data = json.loads(body.decode("utf-8"))
            reported = data.get("usage") or {}
            counts = TokenCounts(int(reported.get("prompt_tokens", 0)),
                                 int(reported.get("completion_tokens", 0)))
            usage = (counts.prompt_tokens, counts.completion_tokens)
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, "
                                "not a string")
            text.encode("utf-8")  # a lone surrogate could not be written
        except (ValueError, AttributeError, LookupError, TypeError,
                OverflowError, RecursionError) as exc:
            raise TransportError(f"unusable completion payload: {exc}",
                                 usage) from exc
        return Completion(text, *usage)


class RecordingClient:
    """Wraps a client, accumulating call and token counts.

    A call that ends in ``TransportError`` counts too, with the tokens the
    server reported for its unusable reply.  The pipeline uses one per
    trajectory to split usage by hop.
    """

    def __init__(self, inner: LlmClient):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0
        self.totals = TokenCounts()

    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion:
        try:
            completion = self._inner.complete(messages, params)
        except TransportError as exc:
            self._add(TokenCounts(*exc.usage))
            raise
        self._add(completion.counts)
        return completion

    def _add(self, counts: TokenCounts) -> None:
        with self._lock:
            self.calls += 1
            self.totals = self.totals + counts

    def snapshot(self) -> TokenCounts:
        with self._lock:
            return self.totals


@dataclass(frozen=True)
class LlmConfig(ConfigRecord, section="llm"):
    """One model role's config section: ``llm`` (deducer and grounder),
    ``judge_llm``, ``student_llm`` or ``teacher_llm``."""

    backend: Literal["openai", "scripted"] | None = None
    script_path: str | None = None
    base_url: str | None = None
    model: str | None = None
    api_key_env: str = "OPENAI_API_KEY"
    timeout: Positive = 120.0

    def client(self, role: str) -> LlmClient:
        """The client this section configures; ``role`` is its key."""
        if self.backend == "scripted":
            if self.script_path is None:
                raise ConfigError(f"{role}: scripted backend needs script_path")
            try:
                return ScriptedClient.from_file(self.script_path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{role}: bad scripted backend: {exc}") from exc
        if self.backend == "openai":
            if not self.base_url or not self.model:
                raise ConfigError(f"{role}: openai backend needs base_url and model")
            try:
                check_url(self.base_url)
            except ValueError as exc:
                raise ConfigError(f"{role}.base_url {exc}") from exc
            return OpenAIChatClient(self)
        raise ConfigError(f"{role}: backend must be 'openai' or 'scripted'")
