"""Exception hierarchy for the TiLT reproduction.

Every error raised by the library derives from :class:`TiltError` so callers
can catch a single base class.  Sub-classes are grouped by pipeline stage:
query construction, IR validation, boundary resolution, compilation, and
runtime execution.
"""

from __future__ import annotations


class TiltError(Exception):
    """Base class for all errors raised by this library."""


class QueryBuildError(TiltError):
    """The frontend query description is malformed (bad operator arguments,
    unknown input, incompatible window parameters, ...)."""


class ValidationError(TiltError):
    """A TiLT IR program failed structural validation."""


class BoundaryResolutionError(TiltError):
    """Temporal lineage could not be resolved to finite boundary margins."""


class CompilationError(TiltError):
    """Lowering the IR to an executable kernel failed."""


class AnalysisError(CompilationError):
    """The static analyzer found error-severity findings (e.g. a windowed
    access not covered by the resolved partition margins); the program is
    refused before any kernel is generated.  ``report`` carries the full
    :class:`~repro.analysis.findings.ProgramReport`."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ExecutionError(TiltError):
    """A compiled query failed while running."""


class QueueClosedError(ExecutionError):
    """A producer tried to ``put`` into a closed :class:`BoundedIngestQueue`.

    ``enqueued`` is the length of the prefix that was accepted before the
    close was observed (0 when the queue was already closed on entry); those
    events stay enqueued and will still be delivered to the consumer.
    """

    def __init__(self, message: str, enqueued: int = 0):
        super().__init__(message)
        self.enqueued = int(enqueued)


class AdmissionError(TiltError):
    """The multi-tenant query service refused to admit a new tenant
    (the configured tenant limit is reached; free a slot by cancelling or
    draining an existing tenant)."""


class UnsupportedOperationError(TiltError):
    """An engine was asked to run an operator it does not implement (the
    Trill-like baseline raises it for a frontend node it has no event-centric
    operator for)."""


class OverlappingEventsError(TiltError):
    """An event stream contains events with overlapping validity intervals
    where the operation requires disjoint intervals."""


class StreamOrderError(TiltError):
    """Events were supplied out of (start-time) order."""
