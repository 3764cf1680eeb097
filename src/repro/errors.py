"""Exception hierarchy shared by every DISCO subsystem.

The paper distinguishes several failure classes that surface to different
users: parse errors (DBI/DBA mistakes in ODL or OQL text), type conflicts
between a mediator type and a data-source type (resolved by maps, Section
2.2.2), capability violations (a logical expression pushed to a wrapper that
the wrapper's grammar does not accept, Section 3.2), and unavailable data
sources (Section 4).  Each gets its own exception so callers can react
differently: unavailability, in particular, is *not* an error for the
mediator -- it triggers partial evaluation.
"""

from __future__ import annotations


class DiscoError(Exception):
    """Base class for every error raised by the repro package."""


class ParseError(DiscoError):
    """Raised when ODL or OQL text cannot be parsed.

    Carries the offending line/column so tooling can point at the source.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class NameResolutionError(DiscoError):
    """An identifier in a query does not name any extent, view, type or attribute."""


class TypeConflictError(DiscoError):
    """The mediator type and the data-source type disagree.

    The paper (Section 2.2.2) specifies that this is detected at run time by
    the wrapper, and that the DBA resolves it with a local transformation map.
    """


class SchemaError(DiscoError):
    """Invalid schema definition: duplicate interface, unknown supertype, cyclic view, ..."""


class CapabilityError(DiscoError):
    """A logical expression was submitted to a wrapper whose grammar rejects it.

    Transformation rules are supposed to prevent this (Section 3.2); raising it
    therefore indicates an optimizer bug or a hand-built plan that violates the
    wrapper's declared functionality.
    """


class UnavailableSourceError(DiscoError):
    """A data source did not respond within the designated time period.

    The run-time system converts this into a partial answer rather than
    propagating it to the user (Section 4).
    """

    def __init__(self, source_name: str, message: str | None = None):
        super().__init__(message or f"data source {source_name!r} is unavailable")
        self.source_name = source_name


class WrapperError(DiscoError):
    """A wrapper failed while translating or executing a submitted expression."""


class AdmissionError(DiscoError):
    """A query was refused by admission control instead of being executed.

    Raised by the serving layer (:class:`~repro.serving.MediatorServer`, the
    one admission path) when every worker is busy and the wait queue is
    full, when a query's deadline expires while it is still queued, or when
    the server closes first.  ``verdict`` is the machine-readable reason --
    ``"rejected"`` (queue full), ``"queue timeout"`` (deadline passed before
    a worker freed up) or ``"closed"``.
    """

    def __init__(self, message: str, verdict: str = "rejected"):
        super().__init__(message)
        self.verdict = verdict


class QueryExecutionError(DiscoError):
    """The run-time system could not evaluate a physical plan."""


class OptimizationError(DiscoError):
    """The optimizer could not produce any legal physical plan for a query."""


class ViewDefinitionError(SchemaError):
    """A view (``define ... as``) is malformed or introduces a cyclic reference."""


class RepositoryError(DiscoError):
    """A repository address is malformed or the repository rejected a connection."""
