"""Exception hierarchy shared across hopground modules."""


class HopgroundError(Exception):
    """Base class for all hopground errors."""


class InvalidRecord(HopgroundError, ValueError):
    """A domain object violates one of its invariants."""


class ConfigError(HopgroundError):
    """A config file, or what one of its sections configures, is unusable."""


# --- LLM client ---

class LlmError(HopgroundError):
    """Base class for text-generation backend failures."""


class TransportError(LlmError):
    """Network/HTTP failure that survived the bounded retries.

    ``usage`` is the (prompt, completion) token count the server reported
    for an unusable reply, and (0, 0) when no reply was read.
    """

    def __init__(self, message: str, usage: tuple[int, int] = (0, 0)):
        super().__init__(message)
        self.usage = usage


class ScriptExhausted(LlmError):
    """The scripted backend ran out of canned responses."""


# --- retrieval ---

class RetrievalError(HopgroundError):
    """Base class for retrieval failures."""


class EmptyCorpus(RetrievalError):
    """Cannot build an index over zero documents."""


class DuplicateDocId(RetrievalError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class EmptyQuery(RetrievalError):
    """The query tokenizes to zero terms."""


class MalformedResponse(RetrievalError):
    """External retrieval service returned an unusable payload."""


# --- prompts ---

class PromptError(HopgroundError):
    """Base class for template loading/rendering failures."""


class MissingPlaceholder(PromptError):
    """A template placeholder that its renderer never binds, or a judge
    value that is empty."""


class EmptyBatch(PromptError):
    """Grounding prompts need at least one document."""


# --- structured-output parsing ---

class ParseError(HopgroundError):
    """Base class for LLM-output parsing failures; ``text`` is the reply."""

    def __init__(self, message: str, text: str):
        super().__init__(message)
        self.text = text


class DeductionParseError(ParseError):
    """Deduction output matches neither the step nor the finish pattern."""


class UnclosedFinish(DeductionParseError):
    """A finish marker opens a bracket that never closes."""


class MalformedGrounding(ParseError):
    """Grounding output lacks a usable tag pair."""


class MissingRevision(MalformedGrounding):
    """Grounding output cites evidence but has no usable revise span."""


# --- evaluation ---

class MissingGold(HopgroundError):
    """Metric called with an empty gold-answer list."""


class UnparseableVerdict(ParseError):
    """Judge output starts with neither yes nor no."""


class MalformedDataset(HopgroundError):
    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class EmptyRecords(HopgroundError):
    """Aggregation or statistics called with no records."""
