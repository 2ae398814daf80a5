"""Bridge between the GP engine and chat-completion language models."""
from .extract import ExtractionResult, RejectedCandidate, extract_heuristics
from .prompts import (
    PromptSpec,
    ReferenceHeuristic,
    build_explain_prompt,
    build_init_prompt,
    build_transfer_prompt,
)
from .provider import (
    ProviderAuthError,
    ProviderConfig,
    ProviderError,
    ProviderProtocolError,
    ProviderTimeoutError,
    query,
)
from .report import ReportResult, generate_report

__all__ = [
    "PromptSpec",
    "ReferenceHeuristic",
    "build_init_prompt",
    "build_transfer_prompt",
    "build_explain_prompt",
    "ProviderConfig",
    "ProviderError",
    "ProviderAuthError",
    "ProviderTimeoutError",
    "ProviderProtocolError",
    "query",
    "ExtractionResult",
    "RejectedCandidate",
    "extract_heuristics",
    "ReportResult",
    "generate_report",
]
