"""Client for an external retrieval service (dense retrievers, web search).

The service receives ``POST {"query": ..., "top_k": ...}`` and must answer
``{"results": [{"id", "title", "body", "score"?}, ...]}``.  Results keep the
service's ordering; ranks are set from position.  Each result is read as a
corpus line is (see ``corpus.parse_document``).  Requests go through
``transport.post_json``, so they retry and reuse connections as the chat
client's do.
"""

from __future__ import annotations

from ..core import Document, loads_utf8
from ..errors import MalformedResponse
from ..transport import post_json
from .corpus import parse_document

DEFAULT_TIMEOUT = 30.0


def retrieve_external(endpoint: str, query: str, top_k: int = 10,
                      timeout: float = DEFAULT_TIMEOUT) -> list[Document]:
    """Fetch up to ``top_k`` documents from ``endpoint`` for ``query``.

    Raises ``TransportError`` when the request fails and
    ``MalformedResponse`` when the reply is unusable.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    body = post_json(endpoint, {"query": query, "top_k": top_k}, timeout)
    try:
        results = loads_utf8(body.decode("utf-8"))["results"]
        return [parse_document(r, rank)
                for rank, r in enumerate(results[:top_k], start=1)]
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise MalformedResponse(f"unusable payload from {endpoint}: {exc}") from exc
