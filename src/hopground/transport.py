"""The one HTTP path to outside services: a JSON POST with bounded retries.

The chat-completions client and the external retriever both send through
``post_json``.  Each calling thread keeps its own ``requests.Session``, so a
thread reuses its pooled connections whatever the number of threads.  A
``RETRYABLE_STATUS`` reply or a connection error is retried, up to
``max_attempts`` attempts in all, after an exponential backoff; a
``Retry-After`` header in delay-seconds (RFC 9110 §10.2.3) lengthens that
wait, up to ``MAX_RETRY_AFTER``.  Any other status but 200 fails at once.
Reading the 200 reply is left to the caller.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

import requests

from .errors import TransportError

DEFAULT_MAX_ATTEMPTS = 3
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
BACKOFF_BASE = 0.5  # seconds before the second attempt, doubled after each
MAX_RETRY_AFTER = 30.0  # longest wait a server's Retry-After can ask for

_local = threading.local()


def _session() -> requests.Session:
    if not hasattr(_local, "session"):
        _local.session = requests.Session()
    return _local.session


def _retry_after(resp: requests.Response) -> float:
    """The reply's ``Retry-After`` in seconds, capped; 0 unless delay-seconds.

    An HTTP-date, a missing header or any other value gives 0, which leaves
    the backoff alone.
    """
    value = resp.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), MAX_RETRY_AFTER)


def post_json(url: str, payload: Any, timeout: float,
              headers: Mapping[str, str] | None = None,
              max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> requests.Response:
    """POST ``payload`` as JSON to ``url`` and return the 200 reply.

    Raises ``TransportError`` on a status that is neither 200 nor
    retryable, and when every attempt failed.
    """
    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(max(BACKOFF_BASE * (2 ** (attempt - 1)), retry_after))
        retry_after = 0.0
        try:
            resp = _session().post(url, json=payload, headers=headers,
                                   timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in RETRYABLE_STATUS:
            last_error = TransportError(f"HTTP {resp.status_code} from {url}")
            retry_after = _retry_after(resp)
            continue
        if resp.status_code != 200:
            raise TransportError(
                f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
        return resp
    raise TransportError(
        f"request failed after {max_attempts} attempts: {last_error}")
