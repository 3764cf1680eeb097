"""Baselines the experiments compare DISCO against.

* :mod:`repro.baselines.blocking` -- the conventional query semantics the
  paper argues against: with no replication, a query over N sources returns
  nothing (or blocks) unless *every* source answers;
* :mod:`repro.baselines.unified_schema` -- a Pegasus/UniSQL-style integration
  process where every new source must be reconciled into one global unified
  schema, so integration effort grows with the number of sources already
  integrated;
* :mod:`repro.baselines.no_pushdown` -- a mediator that never pushes work to
  wrappers (every wrapper is treated as get-only), isolating the benefit of
  DISCO's capability-aware push-down.
"""

from repro.baselines.blocking import BlockingSemantics, complete_answer_probability
from repro.baselines.unified_schema import UnifiedSchemaIntegrator
from repro.baselines.no_pushdown import GetOnlyWrapper

__all__ = [
    "BlockingSemantics",
    "complete_answer_probability",
    "UnifiedSchemaIntegrator",
    "GetOnlyWrapper",
]
