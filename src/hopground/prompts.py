"""Prompt construction from editable template files.

Templates are plain text with ``{placeholder}`` slots (lowercase names).
Text outside those slots, other braces such as ``{X}``, ``{}`` or ``{{``
included, is sent verbatim, and a bound value is never scanned for slots.
The packaged defaults under ``hopground/templates/`` are best-effort
wordings, one file per template, worked examples inside ``deduction.txt``;
point ``TemplateLibrary.load`` at a directory to override any of them.  A
trailing newline in a template file is stripped on load so prompts end
exactly where the file's text does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .core import ConfigRecord, Document, HopRecord, Question
from .errors import ConfigError, EmptyBatch, MissingPlaceholder, PromptError
from .llm import ChatMessage

# each template's name and the placeholders its renderer binds
TEMPLATE_BINDINGS: dict[str, frozenset[str]] = {
    "deduction": frozenset({"question", "context", "next_index"}),
    "grounding": frozenset({"question", "sub_question", "immediate_answer",
                            "documents"}),
    "judge": frozenset({"question", "prediction", "gold_answer"}),
}
TEMPLATE_NAMES = tuple(TEMPLATE_BINDINGS)

# every grounding prompt, run's and synth's alike, cuts a body to this
DOC_CHAR_BUDGET = 1500

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_MARKUP_RE = re.compile(r"<(/?)(ref|revise)>", re.IGNORECASE)


def parse_template(name: str, text: str) -> tuple[str, ...]:
    """Split template text at its placeholders: literals at even positions,
    placeholder names at odd ones.

    Raises ``MissingPlaceholder`` for a placeholder that the template's
    renderer never binds, so a bad template fails on load, not per prompt.
    """
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template name {name!r}")
    parts = tuple(_PLACEHOLDER_RE.split(text))
    unbound = set(parts[1::2]) - TEMPLATE_BINDINGS[name]
    if unbound:
        raise MissingPlaceholder(
            f"template {name!r} has placeholders that are never bound: "
            f"{sorted(unbound)}; it may use {sorted(TEMPLATE_BINDINGS[name])}")
    return parts


def sanitize_markup(text: str) -> str:
    """Neutralize ref/revise tags in interpolated values.

    Keeps a model from being handed raw grounding tags inside question or
    document text, which could otherwise confuse the grounding parser.
    """
    return _MARKUP_RE.sub(r"[\1\2]", text)


def format_step(index: int, sub_question: str, answer: str) -> str:
    """One context pair in the deduction few-shot format."""
    return f"Question {index}: {sub_question}\nAnswer {index}: {answer}"


def _read_template_text(directory: Path | None, filename: str) -> str:
    path = directory / filename if directory is not None else None
    if path is None or not path.is_file():
        path = resources.files("hopground") / "templates" / filename
    return path.read_text(encoding="utf-8").removesuffix("\n")


@dataclass(frozen=True)
class TemplateLibrary:
    """Every template, split by ``parse_template``."""

    templates: dict[str, tuple[str, ...]]

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "TemplateLibrary":
        """Load templates from ``directory``, falling back to the packaged
        defaults file by file; any other ``*.txt`` file there, which would
        be ignored, raises ``PromptError``."""
        base = Path(directory) if directory is not None else None
        strays = [] if base is None else sorted(
            str(path) for path in base.glob("*.txt")
            if path.stem not in TEMPLATE_NAMES)
        if strays:
            raise PromptError(f"{', '.join(strays)}: not a template; a templates"
                              " dir holds only deduction.txt, grounding.txt "
                              "and judge.txt")
        return cls({
            name: parse_template(name, _read_template_text(base, f"{name}.txt"))
            for name in TEMPLATE_NAMES
        })


@dataclass(frozen=True)
class TemplatesConfig(ConfigRecord, section="templates"):
    dir: str | None = None

    def load(self) -> TemplateLibrary:
        if self.dir is not None and not Path(self.dir).is_dir():
            raise ConfigError(f"templates.dir {self.dir!r} is not a directory")
        try:
            return TemplateLibrary.load(self.dir)
        except (OSError, PromptError, ValueError) as exc:
            raise ConfigError(f"cannot load templates: {exc}") from exc


def _render(library: TemplateLibrary, name: str,
            bindings: dict[str, str]) -> list[ChatMessage]:
    """Fill template ``name``'s placeholders; the prompt is one user message."""
    parts = list(library.templates[name])
    parts[1::2] = [bindings[slot] for slot in parts[1::2]]
    return [ChatMessage(role="user", content="".join(parts))]


def render_deduction(library: TemplateLibrary, question: Question,
                     hops: Sequence[HopRecord]) -> list[ChatMessage]:
    """Build the deduction prompt: instruction, examples, question, context.

    The context block lists each prior hop's sub-question and revised answer
    in hop order; it is empty on the first hop.
    """
    context = "\n".join(
        format_step(hop.index, hop.sub_question, hop.revised_answer)
        for hop in hops)
    return _render(library, "deduction", {
        "question": question.text, "context": context,
        "next_index": str(len(hops) + 1)})


def render_grounding(library: TemplateLibrary, question: Question,
                     sub_question: str, immediate_answer: str,
                     batch: Sequence[Document]) -> list[ChatMessage]:
    """Build the grounding prompt over one batch of numbered documents,
    each body cut to ``DOC_CHAR_BUDGET`` characters; every text in it is
    sanitized.  A document stored without its body raises
    ``InvalidRecord``."""
    if not batch:
        raise EmptyBatch("grounding needs at least one document")
    blocks = []
    for i, doc in enumerate(batch, start=1):
        body = doc.require_body().body[:DOC_CHAR_BUDGET].rstrip()
        header = f"[{i}] {sanitize_markup(doc.title)}".rstrip()
        blocks.append(f"{header}\n{sanitize_markup(body)}")
    return _render(library, "grounding", {
        "question": sanitize_markup(question.text),
        "sub_question": sanitize_markup(sub_question),
        "immediate_answer": sanitize_markup(immediate_answer),
        "documents": "\n\n".join(blocks)})


def render_judge(library: TemplateLibrary, question: str, prediction: str,
                 gold_answer: str) -> list[ChatMessage]:
    """Build the yes/no correctness-judgment prompt."""
    bindings = {"question": question, "prediction": prediction,
                "gold_answer": gold_answer}
    for name, value in bindings.items():
        if not value.strip():
            raise MissingPlaceholder(f"judge {name} must be non-empty")
    return _render(library, "judge", bindings)
