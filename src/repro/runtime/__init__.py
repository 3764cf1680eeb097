"""The mediator run-time system (paper Sections 3.3 and 4).

* :mod:`repro.runtime.operators` -- row-level implementations shared by the
  physical-plan executor and the partial-answer simplifier;
* :mod:`repro.runtime.executor` -- executes physical plans: dispatches every
  ``exec`` call in parallel, applies local transformation maps, records call
  costs in the history, evaluates the mediator-side operators and assembles
  the answer;
* :mod:`repro.runtime.streaming` -- the engine: a :class:`StreamingExecution`
  is one run of one plan, which both entry points return (``execute``
  finished, ``execute_stream`` live); ``QueryResult`` reads it in one place;
* :mod:`repro.runtime.namespace` -- name-space planning: a pushdown into the
  source's vocabulary and its rows back into the mediator's (the local
  transformation maps of Section 2.1), functions of a registry;
* :mod:`repro.runtime.partial_eval` -- when some sources are unavailable,
  collapses the partially evaluated plan in one pass (obtained rows as data
  around the unavailable calls): its OQL text, the answer, is itself a query.
"""

from repro.runtime.answercache import AnswerCache
from repro.runtime.executor import Executor, ExecReport
from repro.runtime.partial_eval import PartialAnswerBuilder
from repro.runtime.operators import Env
from repro.runtime.streaming import StreamingExecution

__all__ = [
    "AnswerCache",
    "Executor",
    "ExecReport",
    "PartialAnswerBuilder",
    "Env",
    "StreamingExecution",
]
