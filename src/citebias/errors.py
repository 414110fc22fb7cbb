"""Exception types and exclusion records shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass


class CitebiasError(Exception):
    """Base class for all package errors."""


class TransportError(CitebiasError):
    """A network-level failure talking to an external service.

    ``retryable`` distinguishes transient conditions (timeouts, 429, 5xx)
    from permanent ones.
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class IndexParseError(CitebiasError):
    """An index response could not be parsed; names the offending record."""

    def __init__(self, message: str, record: object = None):
        super().__init__(message)
        self.record = record


class TexError(CitebiasError):
    """LaTeX source could not be processed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TableParseError(CitebiasError):
    """No usable markdown table found in an LLM response."""


class MockResponseMissing(CitebiasError):
    """The replay store has no response for a prompt hash."""

    def __init__(self, digest: str, store: str):
        super().__init__(f"no mock response for prompt {digest} in {store}")
        self.digest = digest


class ProviderRefusal(CitebiasError):
    """The provider returned an empty or filtered response."""


class CalibrationError(CitebiasError):
    """The labelled set cannot support calibration (e.g. one class only)."""


class ConfigError(CitebiasError):
    """Invalid pipeline configuration."""


class PipelineError(CitebiasError):
    """A stage failed hard; the manifest records the failure point."""


@dataclass(frozen=True)
class Exclusion:
    """A paper (or reference) dropped from the corpus, with a reason code.

    Exclusions are recorded, never silent: attrition must be reportable.
    """

    code: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}" if self.detail else self.code


# Reason codes used by the corpus and docprep stages, the only codes an
# Exclusion carries.
EXCL_NO_MAIN = "no-main"
EXCL_MULTIPLE_MAINS = "multiple-mains"
EXCL_NO_BIB = "no-bib"
EXCL_COMPILE_ERROR = "compile-error"
EXCL_NOT_FOUND = "index-not-found"
EXCL_AMBIGUOUS = "index-ambiguous"
EXCL_DUPLICATE = "duplicate-resolution"

