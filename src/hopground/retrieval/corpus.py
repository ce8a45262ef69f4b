"""Corpus file loading: JSON Lines, one document per line."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..core import Document, expect_type, read_jsonl, scalar_text


def parse_document(record: Any, rank: int | None = None) -> Document:
    """A document from one JSON object: ``id`` and ``title`` may be strings
    or numbers, a missing or null title reads as "", and ``body`` must be a
    non-empty string.  Anything else raises ``TypeError`` or ``ValueError``.
    """
    expect_type(record, dict, "document")
    title = record.get("title")
    return Document(id=scalar_text(record["id"], "id"),
                    title="" if title is None else scalar_text(title, "title"),
                    body=record["body"], rank=rank)


def load_corpus(path: str | Path) -> list[Document]:
    """Read documents from a JSONL file with fields id, title, body."""
    return read_jsonl(path, lambda record, _: parse_document(record))
