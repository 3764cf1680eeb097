"""Algebraic machine of the DISCO mediator (paper Section 3).

* :mod:`repro.algebra.expressions` -- scalar expressions (paths, constants,
  comparisons, boolean connectives, arithmetic, aggregate calls, struct and
  bag constructors, nested subqueries) shared by the OQL AST and the algebra;
* :mod:`repro.algebra.logical` -- logical operators: ``get``, ``project``,
  ``select``, ``join``, ``union``, ``flatten``, ``apply``, ``bag`` and the
  DISCO-specific ``submit(source, expression)``;
* :mod:`repro.algebra.physical` -- physical algorithms: ``exec``, ``mkproj``,
  ``filter``, ``hash-join``, ``nested-loop-join``, ``mkunion``, ...;
* :mod:`repro.algebra.capabilities` -- wrapper capability descriptions: one
  operator set per wrapper, and the grammar of Section 3.2 it describes;
* :mod:`repro.algebra.rules` and :mod:`repro.algebra.rewriter` -- the
  transformation rules (push-downs into ``submit``) and the rule engine;
* :mod:`repro.algebra.unparser` -- turning logical plans back into OQL text,
  which is what makes partial answers expressible as queries (Section 4).
"""

from repro.algebra import expressions
from repro.algebra import logical
from repro.algebra import physical
from repro.algebra.capabilities import CapabilitySet, grammar_for
from repro.algebra.rewriter import Rewriter
from repro.algebra.unparser import logical_to_oql

__all__ = [
    "expressions",
    "logical",
    "physical",
    "CapabilitySet",
    "grammar_for",
    "Rewriter",
    "logical_to_oql",
]
