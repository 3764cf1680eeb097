"""A unified-global-schema integration baseline (Pegasus / UniSQL-M style).

The paper's related-work section: "Scalability was not explicitly addressed,
and will pose problems, since the unified schema must be substantially
modified as new sources are integrated."  This module models that process so
the DBA's effort can be compared: every new source must be reconciled
against every virtual class already in the global schema, and the global
population queries (which union all sources of a class) must be rewritten.

The model counts *statements touched* -- the unit the DISCO side also reports
(one extent declaration per new same-type source).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VirtualClass:
    """One homogenised entity in the global unified schema."""

    name: str
    attributes: tuple[str, ...]
    member_sources: list[str] = field(default_factory=list)
    population_query_version: int = 0


@dataclass
class IntegrationReport:
    """How much work one source integration required."""

    source_name: str
    statements_touched: int
    conflicts_resolved: int
    population_queries_rewritten: int


class UnifiedSchemaIntegrator:
    """Simulates DBA work of integrating sources into one unified schema."""

    def __init__(self):
        self._classes: dict[str, VirtualClass] = {}
        self.reports: list[IntegrationReport] = []

    # -- integration ---------------------------------------------------------------------
    def integrate_source(
        self,
        source_name: str,
        class_name: str,
        attributes: tuple[str, ...],
        conflicting_attributes: int = 0,
    ) -> IntegrationReport:
        """Integrate one source exposing ``class_name`` with ``attributes``.

        Work performed (and counted as touched statements):

        * define or extend the virtual class -- compare against every existing
          virtual class to place it in the generalisation hierarchy (one
          statement per existing class inspected, the conflict analysis of
          UniSQL/M);
        * resolve attribute conflicts (one statement each);
        * rewrite the population query of the class, which unions every member
          source, so its size is proportional to the number of sources already
          in the class;
        * import-type statements for the new source itself.
        """
        inspected = len(self._classes)
        virtual_class = self._classes.get(class_name)
        if virtual_class is None:
            virtual_class = VirtualClass(name=class_name, attributes=attributes)
            self._classes[class_name] = virtual_class
            class_statements = 1 + len(attributes)
        else:
            merged = tuple(dict.fromkeys(virtual_class.attributes + attributes))
            class_statements = len(set(merged) - set(virtual_class.attributes))
            virtual_class.attributes = merged
        virtual_class.member_sources.append(source_name)
        virtual_class.population_query_version += 1
        population_statements = len(virtual_class.member_sources)
        statements = (
            inspected  # generalisation-conflict analysis against existing classes
            + class_statements
            + conflicting_attributes
            + population_statements
            + 1  # the import declaration of the source itself
        )
        report = IntegrationReport(
            source_name=source_name,
            statements_touched=statements,
            conflicts_resolved=conflicting_attributes,
            population_queries_rewritten=1,
        )
        self.reports.append(report)
        return report

    # -- inspection -----------------------------------------------------------------------
    def classes(self) -> list[VirtualClass]:
        """Every virtual class in the unified schema."""
        return list(self._classes.values())

    def total_statements(self) -> int:
        """Total statements touched across every integration so far."""
        return sum(report.statements_touched for report in self.reports)

    def cumulative_statements(self) -> list[int]:
        """Running total of statements touched, one entry per integrated source."""
        totals: list[int] = []
        running = 0
        for report in self.reports:
            running += report.statements_touched
            totals.append(running)
        return totals
