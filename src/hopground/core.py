"""Domain types shared by every module, and the one JSONL reader/writer.

All types are frozen dataclasses: immutable after construction and safe to
share between threads.  The records subclass ``Record``, which reads each
field's annotation once into one table: from it a record checks and stores
its fields and writes its JSON object as its field list, so JSON
round-trips are exact (``from_dict(to_dict(x)) == x``).
"""

from __future__ import annotations

import difflib
import enum
import functools
import json
import math
import operator
import os
import re
import threading
import types
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (Annotated, Any, Callable, Iterable, Iterator, Literal,
                    Mapping, TypeVar, Union, get_args, get_origin,
                    get_type_hints)

from .errors import InvalidRecord, MalformedDataset

__all__ = [
    "Record",
    "ConfigRecord",
    "Question",
    "Document",
    "GroundingKind",
    "GroundingOutcome",
    "HopRecord",
    "Termination",
    "TokenCounts",
    "TokenUsage",
    "Trajectory",
    "DecodingParams",
]

_T = TypeVar("_T")


class GroundingKind(str, enum.Enum):
    CITED = "cited"
    EMPTY = "empty"


class Termination(str, enum.Enum):
    FINISH_SIGNAL = "finish_signal"
    MAX_HOPS_REACHED = "max_hops_reached"
    PARSE_FAILURE = "parse_failure"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRecord(message)


# field types that carry a rule on top of their base type: an annotation's
# metadata is the noun its messages use and the predicate a value must meet
Count = Annotated[int, "an integer >= 0", lambda v: v >= 0]
PositiveInt = Annotated[int, "an integer >= 1", lambda v: v >= 1]
NonNegative = Annotated[float, "a finite number >= 0", lambda v: v >= 0]
# a timeout; one above TIMEOUT_MAX overflows the platform's clock in settimeout
Positive = Annotated[float,
                     f"a number > 0 and <= {int(threading.TIMEOUT_MAX)}",
                     lambda v: 0 < v <= threading.TIMEOUT_MAX]
Text = Annotated[str, "a non-blank string", str.strip]
# X or None, and not written while it is None: its key is left out of the
# JSON object, and a line without the key reads as the field's default
_UNWRITTEN = "not written when None"
Unwritten = Annotated[_T | None, _UNWRITTEN]

# a bool is no number here, so JSON true is not 1, and a float must be
# finite, so JSON 1e400, read as inf, is not one (an int is always finite,
# and math.isfinite overflows on a huge one); a class's own
# __instancecheck__ is isinstance() with the class bound
_PLAIN = {
    bool: (bool.__instancecheck__, "true or false"),
    int: (lambda v: type(v) is not bool and isinstance(v, int), "an integer"),
    float: (lambda v: type(v) is not bool and isinstance(v, int)
            or isinstance(v, float) and math.isfinite(v), "a finite number"),
    str: (str.__instancecheck__, "a string"),
}


def _none_or(f: Callable[[Any], Any] | None) -> Callable[[Any], Any] | None:
    """``f`` for a value that is not None; None keeps None."""
    return f and (lambda v: v if v is None else f(v))


def _field(hint: Any, name: str) -> tuple:
    """One annotation, read once: a field's encoder, decoder and store (each
    None keeps the value as it is), the predicate a value meets and the noun
    a message names it by.  An int is a float; ``X | None`` admits null, a
    ``Literal`` its values and ``tuple[X, ...]`` a list or tuple of X,
    stored as a tuple.  ``name`` starts the messages of a nested config
    section."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):  # X | None: null stays None
        *convert, ok, noun = _field(args[0], name)
        return (*map(_none_or, convert), (lambda v: v is None or ok(v)), noun)
    if origin is Annotated:
        if args[1] is _UNWRITTEN:  # the codec's concern: see _table
            return _field(args[0], name)
        (*convert, ok, _), noun, rule = _field(args[0], name), *args[1:]
        return (*convert, (lambda v: ok(v) and rule(v)), noun)
    if origin is Literal:
        return None, None, None, args.__contains__, f"one of {args}"
    if origin is tuple:
        encode, decode, _, ok, noun = _field(args[0], f"{name} item")
        return ((lambda v: [encode(x) for x in v]) if encode else list,
                (lambda v: tuple(map(decode, expect_type(v, list, name))))
                if decode else (lambda v: tuple(expect_type(v, list, name))),
                tuple,
                lambda v: isinstance(v, (list, tuple)) and all(map(ok, v)),
                f"a list, each item {noun}")
    check = _PLAIN.get(hint) or (hint.__instancecheck__, hint.__name__)
    if issubclass(hint, ConfigRecord):
        decode = functools.partial(hint.from_dict, name=name)
        return hint.to_dict, decode, None, *check
    if issubclass(hint, Record):
        return hint.to_dict, hint.from_dict, None, *check
    if issubclass(hint, enum.Enum):
        return operator.attrgetter("value"), hint, None, *check
    return None, None, None, *check


def scalar_text(value: Any, name: str) -> str:
    """A JSON string or number as text; any other value (a bool, null, a
    list or an object) raises ``TypeError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"{name} is {type(value).__name__}, not a string or number")
    return str(value)


class Record:
    """Base of the frozen dataclasses that serialize to a JSON object.

    Each field's annotation is read once per class into one table
    (``_table``).  Construction checks each field against it, then stores a
    list given for a tuple field as a tuple.  A subclass's
    ``__post_init__`` calls this one first, then checks the rules that span
    fields.  The JSON object's keys are the fields in declaration order,
    less an ``Unwritten`` field that is None: a nested record converts to
    its dict, a tuple to a list and an enum to its value; any other value
    is written as it is.  ``from_dict`` reverses this: a key it omits keeps
    the field's default, a key that names no field is ignored, and a value
    that is not a JSON object raises ``TypeError`` naming the class.
    """

    def __post_init__(self):
        checks, stores, _ = _table(type(self))
        for name, ok, noun in checks:  # the first bad field is named
            value = getattr(self, name)
            if not ok(value):
                raise InvalidRecord(f"{name} must be {noun}, got {value!r}")
        for name, store in stores:
            object.__setattr__(self, name, store(getattr(self, name)))

    def to_dict(self) -> dict[str, Any]:
        d = {}
        for name, encode, _, unwritten in _table(type(self))[2]:
            value = getattr(self, name)
            if not (unwritten and value is None):
                d[name] = value if encode is None else encode(value)
        return d

    @classmethod
    def from_dict(cls: type[_T], d: Any) -> _T:
        return cls(**_decoded(cls, expect_type(d, dict, cls.__name__)))


class ConfigRecord(Record):
    """A config file section: each field declares a key, its type and its
    default.  As in every record, each value is checked against its
    field's annotation; ``from_dict`` also rejects a non-object and an
    unknown key.  A message names a key as ``name.key``: ``name`` is the
    field that holds the section in its parent, or the class's own
    ``section`` at the top."""

    def __init_subclass__(cls, section: str = "", **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls.section = section

    @classmethod
    def from_dict(cls: type[_T], d: Any, name: str | None = None) -> _T:
        name = cls.section if name is None else name
        prefix = f"{name}." if name else ""
        _require(isinstance(d, dict),
                 f"{name or 'the config'} must be a JSON object")
        allowed = sorted(f.name for f in fields(cls))
        for key in d:
            if key not in allowed:
                close = difflib.get_close_matches(key, allowed, n=1)
                hint = f"; did you mean {prefix}{close[0]}?" if close else ""
                raise InvalidRecord(f"unknown config key {prefix}{key}{hint}")
        values = _decoded(cls, d)  # first: a nested section names its keys
        try:
            return cls(**values)
        except InvalidRecord as exc:  # its message starts with the key
            raise InvalidRecord(f"{prefix}{exc}") from None


def expect_type(value: Any, kind: type, name: str) -> Any:
    """``value`` if it is a JSON ``kind`` (list or dict), else a
    ``TypeError`` naming ``name``."""
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise TypeError(f"{name} is {type(value).__name__}, not {noun}")
    return value


@functools.cache
def _table(cls: type) -> tuple[tuple, tuple, tuple]:
    """A record class's fields from one ``get_type_hints`` call: the (name,
    predicate, noun) rows that check each field, the (name, store) rows of
    the fields stored converted, and the (name, encoder, decoder, unwritten)
    rows of the codec."""
    hints = get_type_hints(cls, include_extras=True)
    rows = [(f.name, *_field(hints[f.name], f.name),
             _UNWRITTEN in getattr(hints[f.name], "__metadata__", ()))
            for f in fields(cls)]
    return (tuple((name, ok, noun) for name, *_, ok, noun, _ in rows),
            tuple((name, store) for name, _, _, store, *_ in rows if store),
            tuple((name, encode, decode, unwritten)
                  for name, encode, decode, *_, unwritten in rows))


def _decoded(cls: type, d: dict) -> dict[str, Any]:
    """The keyword arguments of the record ``d`` encodes; a key ``d`` omits
    is left to the field's default."""
    return {name: d[name] if decode is None else decode(d[name])
            for name, _, decode, _ in _table(cls)[2] if name in d}


@dataclass(frozen=True)
class Question(Record):
    """One input question, optionally labeled with gold answers."""

    id: str
    text: Text
    gold_answers: tuple[Text, ...] = ()


@dataclass(frozen=True)
class Document(Record):
    """A retrievable text unit; ``rank`` is set on retrieval results.

    ``body`` is None only on a retrieved document that a trajectory stores
    outside the grounding windows the model read (see ``HopRecord``), with
    no ``body`` key.  Code that needs a body checks with ``require_body``.
    """

    id: str
    title: str
    body: Unwritten[Text] = None
    rank: PositiveInt | None = None

    def require_body(self) -> "Document":
        """This document, if it holds its body; else ``InvalidRecord``."""
        _require(self.body is not None,
                 "body must be a non-blank string, got None")
        return self


@dataclass(frozen=True)
class GroundingOutcome(Record):
    """Parsed grounding output: a citation plus revision, or the Empty signal.

    An Empty outcome has neither, and is written without their keys.
    ``raw_text`` keeps the unparsed model output verbatim for debugging.
    """

    kind: GroundingKind
    citation: Unwritten[str] = None
    revised_answer: Unwritten[str] = None
    raw_text: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.kind is GroundingKind.CITED:
            _require(bool(self.citation and self.revised_answer),
                     "cited outcome needs a citation and a revised answer")
        else:
            _require(self.citation is None and self.revised_answer is None,
                     "empty outcome carries no citation or revision")

    @classmethod
    def empty(cls, raw_text: str = "") -> "GroundingOutcome":
        return cls(kind=GroundingKind.EMPTY, raw_text=raw_text)


@dataclass(frozen=True)
class HopRecord(Record):
    """One completed iteration: sub-question, immediate answer, grounding.

    ``retrieved`` is the hop's whole ranked list.  Only the documents of the
    windows the model read, the first ``batches_consumed`` times the run's
    batch size, keep their bodies; the rest are stored without one.
    ``deduction_raw`` preserves the verbatim deduction output that produced
    this hop.  When every grounding window came back Empty, ``revised_answer``
    is byte-equal to ``immediate_answer``; when one was cited, to that
    outcome's ``revised_answer``.
    """

    index: PositiveInt
    sub_question: Text
    immediate_answer: Text
    retrieved: tuple[Document, ...]
    grounding: GroundingOutcome
    revised_answer: Text
    batches_consumed: Count
    deduction_raw: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.grounding.kind is GroundingKind.EMPTY:
            _require(self.revised_answer == self.immediate_answer,
                     "empty grounding must keep the immediate answer verbatim")
        else:
            _require(self.revised_answer == self.grounding.revised_answer,
                     "revised_answer must be the cited grounding's "
                     "revised_answer")


@dataclass(frozen=True)
class TokenCounts(Record):
    """Prompt/completion token totals for one or more LLM calls."""

    prompt_tokens: Count = 0
    completion_tokens: Count = 0

    def __add__(self, other: "TokenCounts") -> "TokenCounts":
        return TokenCounts(self.prompt_tokens + other.prompt_tokens,
                           self.completion_tokens + other.completion_tokens)

    def __sub__(self, other: "TokenCounts") -> "TokenCounts":
        return TokenCounts(self.prompt_tokens - other.prompt_tokens,
                           self.completion_tokens - other.completion_tokens)


@dataclass(frozen=True)
class TokenUsage(Record):
    """Per-hop and total token counts for one trajectory.

    ``total`` covers every LLM call made for the trajectory, including the
    final finish deduction and failed retries, so it can exceed the sum of
    ``per_hop``.
    """

    per_hop: tuple[TokenCounts, ...] = ()
    total: TokenCounts = TokenCounts()


@dataclass(frozen=True)
class Trajectory(Record):
    """The full reasoning trace for one question.

    ``hops`` holds the completed step hops in order; a question the model
    finishes on its very first deduction has zero hops.  Hop indices are
    always consecutive from 1.
    """

    question: Question
    hops: tuple[HopRecord, ...]
    final_answer: str
    termination: Termination
    token_usage: TokenUsage = TokenUsage()

    def __post_init__(self):
        super().__post_init__()
        for i, hop in enumerate(self.hops, start=1):
            _require(hop.index == i, "hop indices must run 1..n in order")
        if self.termination is Termination.FINISH_SIGNAL:
            _require(bool(self.final_answer.strip()),
                     "finish signal requires a non-empty final answer")


@dataclass(frozen=True)
class DecodingParams(ConfigRecord, section="decoding"):
    """Generation parameters; temperature defaults to 0 for determinism."""

    temperature: NonNegative = 0.0
    max_output_tokens: PositiveInt = 1024


# a "\ud800"-style JSON escape can decode to a lone surrogate, a str that
# UTF-8 cannot encode; only text holding such an escape is checked again
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def loads_utf8(text: str) -> Any:
    """``json.loads``, raising ``ValueError`` for a string that holds a lone
    surrogate, since no output file could then be written as UTF-8, and for
    nesting too deep to read."""
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc
    return value


def read_jsonl(path: str | Path,
               parse: Callable[[Any, int], _T]) -> Iterator[_T]:
    """Yield ``parse(record, line_no)`` for each non-blank line of a UTF-8
    file, reading a line only when the next record is asked for.

    Lines end at "\n" only, so a raw U+2028 or U+0085 stays in its line.  A
    line that is not UTF-8 or not JSON, that holds a string UTF-8 cannot
    encode, or that ``parse`` rejects with ``KeyError``, ``TypeError`` or
    ``ValueError``, raises ``MalformedDataset`` at its line, when it is
    reached.  The file closes when the generator ends or is closed.
    """
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = parse(loads_utf8(line), line_no)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedDataset(f"{path}: {exc}",
                                       line=line_no) from exc
            yield record


def write_json(value: Any, path: str | Path) -> None:
    """Write ``value`` as UTF-8 JSON indented by 2, ending in a newline; a
    value that cannot be encoded raises before any file is opened.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a process killed mid-write leaves the old file or the new one; on any
    exception the temporary file is removed and ``path`` is left as it was.
    """
    data = json.dumps(value, indent=2, ensure_ascii=False).encode("utf-8")
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "wb") as f:
            f.write(data + b"\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_jsonl(records: Iterable[Mapping[str, Any]], path: str | Path) -> int:
    """Write one compact UTF-8 JSON object per line; return the line count.

    Each line is flushed to the file once written, so a process killed
    while ``records`` computes the next one keeps every finished line.
    """
    written = 0
    with open(path, "w", encoding="utf-8") as f:
        for written, record in enumerate(records, start=1):
            f.write(json.dumps(record, ensure_ascii=False,
                               separators=(",", ":")) + "\n")
            f.flush()
    return written
