"""Client for an external retrieval service (dense retrievers, web search).

The service receives ``POST {"query": ..., "top_k": ...}`` and must answer
``{"results": [{"id", "title", "body", "score"?}, ...]}``.  Results keep the
service's ordering; ranks are set from position.  A result's ``body`` must
be a non-empty string; its ``id`` and ``title`` may be strings or numbers,
and a missing or null title reads as "".  Requests go through
``transport.post_json``, so they retry and reuse connections as the chat
client's do.
"""

from __future__ import annotations

from typing import Any

from ..core import Document
from ..errors import MalformedResponse
from ..transport import post_json

DEFAULT_TIMEOUT = 30.0


def _scalar_text(value: Any, name: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"{name} is {type(value).__name__}, not a string or number")
    return str(value)


def _document(result: Any, rank: int) -> Document:
    title = result.get("title")
    return Document(id=_scalar_text(result["id"], "id"),
                    title="" if title is None else _scalar_text(title, "title"),
                    body=result["body"], rank=rank)


def retrieve_external(endpoint: str, query: str, top_k: int = 10,
                      timeout: float = DEFAULT_TIMEOUT) -> list[Document]:
    """Fetch up to ``top_k`` documents from ``endpoint`` for ``query``.

    Raises ``TransportError`` when the request fails and
    ``MalformedResponse`` when the reply is unusable.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    resp = post_json(endpoint, {"query": query, "top_k": top_k}, timeout)
    try:
        results = resp.json()["results"]
        return [_document(r, rank)
                for rank, r in enumerate(results[:top_k], start=1)]
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise MalformedResponse(f"unusable payload from {endpoint}: {exc}") from exc
