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
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, TypeVar

from .core import DecodingParams, TokenCounts, require_int, require_positive
from .errors import ParseError, ScriptExhausted, TransportError
from .transport import DEFAULT_MAX_ATTEMPTS, post_json

if TYPE_CHECKING:
    from requests import Response

VALID_ROLES = ("system", "user", "assistant")

DEFAULT_TIMEOUT = 120.0

_T = TypeVar("_T")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in VALID_ROLES:
            raise ValueError(f"role must be one of {VALID_ROLES}, got {self.role!r}")

    def to_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")

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
    A lock makes the consumption order total under concurrent callers, and
    ``calls`` records every request for call-order assertions in tests.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self._cursor = 0
        self._lock = threading.Lock()
        self.calls: list[list[ChatMessage]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedClient":
        """Load a JSON array of response strings."""
        with open(path, encoding="utf-8") as f:
            responses = json.load(f)
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise ValueError(f"{path}: script file must be a JSON array of strings")
        return cls(responses)

    @property
    def remaining(self) -> int:
        with self._lock:
            return len(self._responses) - self._cursor

    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion:
        _check_request(messages)
        with self._lock:
            if self._cursor >= len(self._responses):
                raise ScriptExhausted(
                    f"script exhausted after {self._cursor} responses")
            text = self._responses[self._cursor]
            self._cursor += 1
            self.calls.append(list(messages))
        prompt_tokens = sum(len(m.content.split()) for m in messages)
        return Completion(text=text, prompt_tokens=prompt_tokens,
                          completion_tokens=len(text.split()))


class OpenAIChatClient:
    """Chat-completions client for any OpenAI-compatible endpoint.

    Requests go through ``transport.post_json``: 429/5xx replies and
    connection errors are retried up to ``max_attempts`` attempts, and each
    calling thread reuses its own pooled connection.  The client sets no
    limit of its own on requests in flight: that is the number of threads
    calling it.
    """

    def __init__(self, base_url: str, model: str, api_key: str | None = None,
                 api_key_env: str = "OPENAI_API_KEY",
                 timeout: float = DEFAULT_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        for name, value in (("base_url", base_url), ("model", model),
                            ("api_key_env", api_key_env)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        require_positive(timeout, "timeout")
        require_int(max_attempts, "max_attempts", 1)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(api_key_env, "")
        self.timeout = timeout
        self.max_attempts = max_attempts

    def complete(self, messages: Sequence[ChatMessage],
                 params: DecodingParams) -> Completion:
        _check_request(messages)
        payload = {
            "model": self.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        return self._parse_response(post_json(
            f"{self.base_url}/chat/completions", payload, self.timeout,
            headers, self.max_attempts))

    @staticmethod
    def _parse_response(resp: Response) -> Completion:
        usage = (0, 0)  # an error raised before usage is read reports none
        try:
            data = resp.json()
            reported = data.get("usage") or {}
            counts = TokenCounts(int(reported.get("prompt_tokens", 0)),
                                 int(reported.get("completion_tokens", 0)))
            usage = (counts.prompt_tokens, counts.completion_tokens)
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, "
                                "not a string")
        except (ValueError, AttributeError, LookupError, TypeError,
                OverflowError) as exc:
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
