"""Prompt construction from editable template files.

Templates are plain text with ``{placeholder}`` slots (lowercase names).
The packaged defaults under ``hopground/templates/`` are best-effort
wordings; point ``TemplateLibrary.load`` at a directory to override any of
them.  A trailing newline in a template file is stripped on load so prompts
end exactly where the file's text does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .core import ConfigRecord, Count, Document, HopRecord, Question
from .errors import ConfigError, EmptyBatch, MissingPlaceholder, PromptError
from .llm import ChatMessage

# each template's name and the placeholders its renderer binds
TEMPLATE_BINDINGS: dict[str, frozenset[str]] = {
    "deduction": frozenset({"question", "context", "examples", "next_index"}),
    "grounding": frozenset({"question", "sub_question", "immediate_answer",
                            "documents"}),
    "judge": frozenset({"question", "prediction", "gold_answer"}),
    "synthesis_teacher": frozenset({"question", "immediate_answer",
                                    "documents"}),
}
TEMPLATE_NAMES = tuple(TEMPLATE_BINDINGS)

DEFAULT_DOC_CHAR_BUDGET = 1500
DEFAULT_NUM_EXAMPLES = 2

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_MARKUP_RE = re.compile(r"<(/?)(ref|revise)>", re.IGNORECASE)
_EXAMPLE_SEPARATOR = "==="


@dataclass(frozen=True)
class PromptTemplate:
    """A parsed template: literal segments interleaved with placeholders."""

    name: str
    segments: tuple[tuple[str, str], ...]  # ("literal"|"placeholder", value)
    placeholders: frozenset[str]

    def render(self, **bindings: str) -> str:
        """Substitute every placeholder; all of them must be bound."""
        missing = self.placeholders - bindings.keys()
        if missing:
            raise MissingPlaceholder(
                f"template {self.name!r} is missing {sorted(missing)}")
        parts = []
        for kind, value in self.segments:
            parts.append(bindings[value] if kind == "placeholder" else value)
        return "".join(parts)


def parse_template(name: str, text: str) -> PromptTemplate:
    """Split template text into literal and placeholder segments.

    Raises ``MissingPlaceholder`` for a placeholder that the template's
    renderer never binds, so a bad template fails on load, not per prompt.
    """
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template name {name!r}")
    segments: list[tuple[str, str]] = []
    names: set[str] = set()
    pos = 0
    for match in _PLACEHOLDER_RE.finditer(text):
        if match.start() > pos:
            segments.append(("literal", text[pos:match.start()]))
        segments.append(("placeholder", match.group(1)))
        names.add(match.group(1))
        pos = match.end()
    if pos < len(text):
        segments.append(("literal", text[pos:]))
    unbound = names - TEMPLATE_BINDINGS[name]
    if unbound:
        raise MissingPlaceholder(
            f"template {name!r} has placeholders that are never bound: "
            f"{sorted(unbound)}; it may use {sorted(TEMPLATE_BINDINGS[name])}")
    return PromptTemplate(name=name, segments=tuple(segments),
                          placeholders=frozenset(names))


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
    if directory is not None:
        candidate = directory / filename
        if candidate.is_file():
            text = candidate.read_text(encoding="utf-8")
            return text[:-1] if text.endswith("\n") else text
    text = (resources.files("hopground") / "templates" / filename).read_text(
        encoding="utf-8")
    return text[:-1] if text.endswith("\n") else text


class TemplateLibrary:
    """All templates plus the deduction in-context examples."""

    def __init__(self, templates: dict[str, PromptTemplate],
                 deduction_examples: Sequence[str],
                 num_examples: int = DEFAULT_NUM_EXAMPLES,
                 doc_char_budget: int = DEFAULT_DOC_CHAR_BUDGET):
        for name in TEMPLATE_NAMES:
            if name not in templates:
                raise ValueError(f"missing template {name!r}")
        self.templates = dict(templates)
        self.deduction_examples = tuple(deduction_examples)
        self.num_examples = num_examples
        self.doc_char_budget = doc_char_budget

    def __getitem__(self, name: str) -> PromptTemplate:
        return self.templates[name]

    @classmethod
    def load(cls, directory: str | Path | None = None,
             num_examples: int = DEFAULT_NUM_EXAMPLES,
             doc_char_budget: int = DEFAULT_DOC_CHAR_BUDGET) -> "TemplateLibrary":
        """Load templates from ``directory``, falling back to the packaged
        defaults file by file."""
        base = Path(directory) if directory is not None else None
        templates = {
            name: parse_template(name, _read_template_text(base, f"{name}.txt"))
            for name in TEMPLATE_NAMES
        }
        examples_text = _read_template_text(base, "deduction_examples.txt")
        examples = [block.strip() for block in
                    re.split(rf"^{_EXAMPLE_SEPARATOR}\s*$", examples_text, flags=re.M)]
        examples = [b for b in examples if b]
        return cls(templates, examples, num_examples=num_examples,
                   doc_char_budget=doc_char_budget)


@dataclass(frozen=True)
class TemplatesConfig(ConfigRecord, section="templates"):
    dir: str | None = None
    num_examples: Count = DEFAULT_NUM_EXAMPLES
    doc_char_budget: Count = DEFAULT_DOC_CHAR_BUDGET  # 0: no budget

    def load(self) -> TemplateLibrary:
        try:
            return TemplateLibrary.load(self.dir, self.num_examples,
                                        self.doc_char_budget)
        except (OSError, PromptError, ValueError) as exc:
            raise ConfigError(f"cannot load templates: {exc}") from exc


def render_deduction(library: TemplateLibrary, question: Question,
                     hops: Sequence[HopRecord]) -> list[ChatMessage]:
    """Build the deduction prompt: instruction, examples, question, context.

    The context block lists each prior hop's sub-question and revised answer
    in hop order; it is empty on the first hop.
    """
    context = "\n".join(
        format_step(hop.index, hop.sub_question, hop.revised_answer)
        for hop in hops)
    examples = "\n\n".join(library.deduction_examples[:library.num_examples])
    rendered = library["deduction"].render(
        question=question.text,
        context=context,
        examples=examples,
        next_index=str(len(hops) + 1),
    )
    return [ChatMessage(role="user", content=rendered)]


def _format_documents(batch: Sequence[Document], char_budget: int) -> str:
    blocks = []
    for i, doc in enumerate(batch, start=1):
        body = doc.body[:char_budget].rstrip() if char_budget else doc.body
        header = f"[{i}] {sanitize_markup(doc.title)}".rstrip()
        blocks.append(f"{header}\n{sanitize_markup(body)}")
    return "\n\n".join(blocks)


def render_grounding(library: TemplateLibrary, question: Question,
                     sub_question: str, immediate_answer: str,
                     batch: Sequence[Document]) -> list[ChatMessage]:
    """Build the grounding prompt over one batch of documents."""
    if not batch:
        raise EmptyBatch("grounding needs at least one document")
    rendered = library["grounding"].render(
        question=sanitize_markup(question.text),
        sub_question=sanitize_markup(sub_question),
        immediate_answer=sanitize_markup(immediate_answer),
        documents=_format_documents(batch, library.doc_char_budget),
    )
    return [ChatMessage(role="user", content=rendered)]


def render_synthesis_teacher(library: TemplateLibrary, question_text: str,
                             immediate_answer: str,
                             batch: Sequence[Document]) -> list[ChatMessage]:
    """Grounding prompt variant for single-hop synthesis inputs."""
    if not batch:
        raise EmptyBatch("synthesis needs at least one document")
    rendered = library["synthesis_teacher"].render(
        question=sanitize_markup(question_text),
        immediate_answer=sanitize_markup(immediate_answer),
        documents=_format_documents(batch, library.doc_char_budget),
    )
    return [ChatMessage(role="user", content=rendered)]


def render_judge(library: TemplateLibrary, question: str, prediction: str,
                 gold_answer: str) -> list[ChatMessage]:
    """Build the yes/no correctness-judgment prompt."""
    bindings = {"question": question, "prediction": prediction,
                "gold_answer": gold_answer}
    for name, value in bindings.items():
        if not value.strip():
            raise MissingPlaceholder(f"judge {name} must be non-empty")
    return [ChatMessage(role="user", content=library["judge"].render(**bindings))]
