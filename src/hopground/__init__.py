"""Iterative deduce-and-ground question answering.

A library and CLI that answers multi-hop questions by alternating two
phases: deduce a single-hop sub-question and answer it from the model's own
knowledge, then ground that answer in retrieved documents, revising it
against cited evidence.  Also ships the evaluation harness and the
grounding-distillation corpus synthesizer.
"""

__version__ = "0.1.0"  # before the imports: transport reads it

from .core import (DecodingParams, Document, GroundingKind, GroundingOutcome,
                   HopRecord, Question, Termination, TokenCounts, TokenUsage,
                   Trajectory)
from .pipeline import (BM25Retriever, ExternalRetriever, PipelineConfig,
                       answer_dataset, answer_question)

__all__ = [
    "BM25Retriever",
    "DecodingParams",
    "Document",
    "ExternalRetriever",
    "GroundingKind",
    "GroundingOutcome",
    "HopRecord",
    "PipelineConfig",
    "Question",
    "Termination",
    "TokenCounts",
    "TokenUsage",
    "Trajectory",
    "answer_dataset",
    "answer_question",
    "__version__",
]
