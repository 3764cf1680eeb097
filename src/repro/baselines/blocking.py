"""The blocking / all-or-nothing query semantics baseline.

Paper Section 1: "to answer a query involving N databases, all N databases
must be available.  If some database is unavailable, either no answer is
returned, or some partial answer is returned.  The availability of answers in
the system declines as the number of databases rises."

This baseline wraps a DISCO mediator but discards partial answers: a query is
either complete or it fails.  It also provides the analytical model
``p ** n`` of the decline that Section 1 describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mediator import Mediator
from repro.core.result import QueryResult
from repro.errors import UnavailableSourceError


def complete_answer_probability(per_source_availability: float, sources: int) -> float:
    """Probability that a query over ``sources`` independent sources completes."""
    if not 0.0 <= per_source_availability <= 1.0:
        raise ValueError("per_source_availability must be within [0, 1]")
    if sources < 0:
        raise ValueError("sources must be non-negative")
    return per_source_availability ** sources


@dataclass
class BlockingSemantics:
    """All-or-nothing execution on top of a DISCO mediator."""

    mediator: Mediator
    raise_on_unavailable: bool = True

    def query(self, text: str, timeout: float | None = None) -> QueryResult:
        """Run ``text``; an unavailable source means no answer at all."""
        result = self.mediator.query(text, timeout=timeout)
        return self._enforce(text, result)

    def query_stream(self, text: str, timeout: float | None = None) -> QueryResult:
        """Run ``text`` with the streaming engine, still all-or-nothing.

        Blocking semantics cannot deliver rows before knowing every source
        answered, so the stream is drained first -- which is exactly the
        point of the comparison: the DISCO result streams, this one cannot.
        """
        result = self.mediator.query_stream(text, timeout=timeout)
        result.rows()  # drain; failures surface on the result afterwards
        return self._enforce(text, result)

    def _enforce(self, text: str, result: QueryResult) -> QueryResult:
        """Apply the all-or-nothing rule to a settled result."""
        if not result.is_partial:
            return result
        if self.raise_on_unavailable:
            raise UnavailableSourceError(
                ",".join(result.unavailable_sources),
                "blocking semantics: query aborted because "
                f"{len(result.unavailable_sources)} source(s) did not respond",
            )
        return QueryResult(
            query_text=text,
            data=None,
            is_partial=True,
            unavailable_sources=result.unavailable_sources,
            reports=result.reports,
        )

    def answered(self, text: str, timeout: float | None = None) -> bool:
        """True when the query completed, False when any source was unavailable."""
        try:
            result = self.query(text, timeout=timeout)
        except UnavailableSourceError:
            return False
        return not result.is_partial
