"""Client for an external retrieval service (dense retrievers, web search).

The service receives ``POST {"query": ..., "top_k": ...}`` and must answer
``{"results": [{"id", "title", "body", "score"?}, ...]}``.  Results keep the
service's ordering; ranks are set from position.  Each result is read as a
corpus line is (see ``corpus.parse_document``).  Requests go through
``transport.post_json``, so they retry and reuse connections as the chat
client's do.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Document, loads_utf8
from ..errors import MalformedResponse
from ..transport import post_json
from .corpus import parse_document


@dataclass(frozen=True)
class ExternalRetriever:
    """The service at ``endpoint``; ``timeout`` bounds each request
    attempt, as ``retrieval.timeout`` in the config sets it."""

    endpoint: str
    timeout: float

    def retrieve(self, query: str, top_k: int) -> list[Document]:
        """Fetch up to ``top_k`` documents for ``query``.

        Raises ``TransportError`` when the request fails and
        ``MalformedResponse`` when the reply is unusable.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        body = post_json(self.endpoint, {"query": query, "top_k": top_k},
                         self.timeout)
        try:
            results = loads_utf8(body.decode("utf-8"))["results"]
            return [parse_document(r, rank)
                    for rank, r in enumerate(results[:top_k], start=1)]
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise MalformedResponse(
                f"unusable payload from {self.endpoint}: {exc}") from exc
