"""Corpus file loading: JSON Lines, one document per line."""

from __future__ import annotations

from pathlib import Path

from ..core import Document, read_jsonl


def load_corpus(path: str | Path) -> list[Document]:
    """Read documents from a JSONL file with fields id, title, body."""
    return read_jsonl(path, lambda record, _: Document(
        id=str(record["id"]), title=str(record.get("title", "")),
        body=str(record["body"])))
