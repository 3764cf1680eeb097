"""Wrappers: the component interface to data sources (paper Sections 1.4 and 3.2).

Every wrapper implements two calls:

* ``submit_functionality()`` -- return the capability set describing which
  logical operators (and which compositions) the wrapper understands;
* ``submit(expression)`` -- evaluate a logical expression, already translated
  into the *source's* name space, and return rows.

The concrete wrappers differ in capability.  Every wrapper over a store
(relational, key-value, text, CSV) evaluates what it is pushed one way,
:meth:`~repro.wrappers.base.StoreWrapper._execute`: one server call running
the source-side :class:`AlgebraEvaluator`; only the SQL wrapper ships text
instead, and the text wrapper answers an equality select by keyword search.


=========================  ==========================================  =====================
wrapper                    underlying source                           capabilities
=========================  ==========================================  =====================
:class:`RelationalWrapper` :class:`~repro.sources.RelationalEngine`    configurable, full by default
:class:`SqlWrapper`        :class:`~repro.sources.sql.SqlEngine`       every operator SQL can write, a tree only when it renders as SQL text
:class:`KeyValueWrapper`   :class:`~repro.sources.KeyValueStore`       get only
:class:`TextSearchWrapper` :class:`~repro.sources.TextStore`           get + select, no composition (an equality select is a keyword search)
:class:`CsvWrapper`        :class:`~repro.sources.CsvStore`            get + project
:class:`GeneratorWrapper`  lazily produced rows (cursors, feeds)       configurable, full by default (evaluated as the consumer pulls)
:class:`MediatorWrapper`   another DISCO mediator                      get + select (distributed mediator composition)
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
