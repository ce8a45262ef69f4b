"""Corpus file loading: JSON Lines, one document per line."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

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
                    body=record["body"], rank=rank).require_body()


def load_corpus(path: str | Path) -> Iterator[Document]:
    """Yield the documents of a JSONL file with fields id, title, body.

    The file is read one line per document asked for, so a bad line raises
    ``MalformedDataset`` (with its line number) only when the reader
    reaches it, and a missing file raises ``OSError`` at the first document.
    """
    return read_jsonl(path, lambda record, _: parse_document(record))
