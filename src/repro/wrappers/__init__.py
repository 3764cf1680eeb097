"""Wrappers: the component interface to data sources (paper Sections 1.4 and 3.2).

Every wrapper implements two calls:

* ``submit_functionality()`` -- return the capability set describing which
  logical operators (and which compositions) the wrapper understands;
* ``submit(expression)`` -- evaluate a logical expression, already translated
  into the *source's* name space, and return rows.

The concrete wrappers differ in capability and in how they execute:

=========================  ==========================================  =====================
wrapper                    underlying source                           capabilities
=========================  ==========================================  =====================
:class:`RelationalWrapper` :class:`~repro.sources.RelationalEngine`    configurable, full by default
:class:`SqlWrapper`        :class:`~repro.sources.sql.SqlEngine`       every operator SQL can write, a tree only when it renders as SQL text
:class:`KeyValueWrapper`   :class:`~repro.sources.KeyValueStore`       get only
:class:`TextSearchWrapper` :class:`~repro.sources.TextStore`           get + equality select (keyword search), no composition
:class:`CsvWrapper`        :class:`~repro.sources.CsvStore`            get + project
:class:`MediatorWrapper`   another DISCO mediator                      full (distributed mediator composition)
=========================  ==========================================  =====================
"""

from repro.wrappers.base import RESUME_REPLAY, AlgebraEvaluator, Wrapper
from repro.wrappers.generator import GeneratorWrapper
from repro.wrappers.relational import RelationalWrapper
from repro.wrappers.sqlwrapper import SqlWrapper
from repro.wrappers.keyvalue import KeyValueWrapper
from repro.wrappers.textsearch import TextSearchWrapper
from repro.wrappers.csvsource import CsvWrapper
from repro.wrappers.mediator_wrapper import MediatorWrapper

__all__ = [
    "Wrapper",
    "AlgebraEvaluator",
    "RESUME_REPLAY",
    "GeneratorWrapper",
    "RelationalWrapper",
    "SqlWrapper",
    "KeyValueWrapper",
    "TextSearchWrapper",
    "CsvWrapper",
    "MediatorWrapper",
]
