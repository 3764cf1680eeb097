"""The repo's own analysis spec: locks, hierarchies, dispatch sites, drift.

This file is the single machine-readable statement of the invariants the
rest of the codebase documents in prose:

* the **lock spec** mirrors (and generates) the lock-discipline map in
  ``docs/ARCHITECTURE.md``: every component lock, the attributes it guards,
  and its rank in the acquisition hierarchy (hold rank *r*, acquire only
  strictly greater ranks);
* the **dispatch sites** are every ``isinstance`` ladder that must stay
  complete over the logical/physical/expression hierarchies -- with the
  deliberate gaps spelled out per-site, each with its justification;
* the **drift spec** names the documented knob/report surfaces.

A new operator class added to ``repro.algebra`` makes every ladder that
ignores it fail the suite until it is handled or exempted here -- the
static half of the coverage contract whose dynamic half is the
differential harness (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

from repro.analysis.core import Spec
from repro.analysis.dispatch import DispatchSite, Hierarchy
from repro.analysis.drift import DriftSpec
from repro.analysis.lockspec import LockComponent, LockDecl

# --------------------------------------------------------------------------- locks
#
# Rank convention: 10-19 engine/serving front doors, 30-39 scheduling
# queues, 40-49 catalog/optimizer state and row transport, 50+ source
# simulation leaves.  No call path should acquire downward.
LOCK_COMPONENTS: tuple[LockComponent, ...] = (
    LockComponent(
        module="src/repro/serving/server.py",
        cls="MediatorServer",
        locks=(
            LockDecl(
                attr="_state",
                kind="Condition",
                guards=(
                    "_closed",
                    "_inflight",
                    "_submitted",
                    "_rejected",
                    "_timed_out",
                    "_completed",
                    "_queue_wait_total",
                ),
                rank=10,
                guards_doc="closed flag, in-flight count, server counters",
            ),
        ),
        notes="never held while executing a query or blocking on a client; "
        "futures and row queues carry their own locks.",
    ),
    LockComponent(
        module="src/repro/runtime/executor.py",
        cls="Executor",
        locks=(
            LockDecl(
                attr="_pool_lock",
                kind="Lock",
                guards=("_pool",),
                rank=14,
                guards_doc="pool lifecycle",
            ),
            LockDecl(
                attr="_types_lock",
                kind="Lock",
                guards=("_type_checked_extents", "_type_checked_version"),
                rank=15,
                guards_doc="the type-check verdict cache",
                notes="wrapper type checks run *outside* `_types_lock`; "
                "re-insertion is version-guarded.",
            ),
            LockDecl(
                attr="_active",
                kind="Condition",
                guards=("_active_streams",),
                rank=16,
                guards_doc="registry of live runs (streams and `execute()` calls) for `close()`",
            ),
            LockDecl(
                attr="_probe_lock",
                kind="Lock",
                guards=("probe_cache_hits", "probe_cache_misses"),
                rank=17,
                guards_doc="probe-cache statistics folded in by probe runners",
            ),
        ),
        notes="all four are leaf-level within the executor: none is held "
        "while parsing, planning, or calling wrapper code.",
    ),
    LockComponent(
        module="src/repro/runtime/admission.py",
        cls="FairQueue",
        locks=(
            LockDecl(
                attr="_condition",
                kind="Condition",
                guards=("_classes", "_size", "_closed", "max_depth"),
                rank=30,
                guards_doc="priority classes, depth, closed flag, high-water mark",
            ),
        ),
        notes="`pop` blocks only on its own condition; entries leave in "
        "weighted-fair order.",
    ),
    LockComponent(
        module="src/repro/core/registry.py",
        cls="Registry",
        locks=(
            LockDecl(
                attr="_lock",
                kind="RLock",
                guards=("schema", "_schema_version"),
                rank=40,
                guards_doc="interfaces, extents, repositories, views, "
                "`schema_version`",
                notes="re-entrant because view expansion re-enters the "
                "registry; every mutation bumps `schema_version` under the "
                "lock.",
            ),
        ),
        held_in=(("_bump", "_lock"),),
    ),
    LockComponent(
        module="src/repro/optimizer/plancache.py",
        cls="VersionedCache",
        locks=(
            LockDecl(
                attr="_lock",
                kind="RLock",
                guards=("_entries", "hits", "misses", "invalidations", "evictions"),
                rank=None,
                guards_doc="the LRU map and hit/miss/eviction/invalidation "
                "counters",
                notes="the base of both query caches: an entry is served only "
                "under the `schema_version` it was built under, and a lookup "
                "under another drops it.  Each cache has its own lock, ranked "
                "by its subclass's row; the subclass rows inherit these guards.",
            ),
        ),
        held_in=(("_fetch", "_lock"), ("_insert", "_lock"), ("_remove", "_lock")),
    ),
    LockComponent(
        module="src/repro/optimizer/plancache.py",
        cls="PlanCache",
        locks=(
            LockDecl(
                attr="_lock",
                kind="RLock",
                guards=("_keys",),
                rank=41,
                guards_doc="the mediator's one text -> canonical key memo",
                notes="the lazy cache: a stale plan is dropped on its next "
                "lookup.",
            ),
        ),
    ),
    LockComponent(
        module="src/repro/optimizer/optimizer.py",
        cls="OptimizedPlan",
        locks=(),
        notes="`exec_calls`, the run-time system's compiled-call slot "
        "(`Executor.compile_call`), is lock-free: each exec node's entry is "
        "written once per schema version, by whichever run gets to the node "
        "first; two runs racing a cached plan's first execution compile equal "
        "values from the same immutable node and the same schema, each "
        "store is one dict assignment, and the later one changes nothing -- "
        "the argument `_check_types` makes for its verdict set.  The "
        "kernel of each per-element chain (`runtime.kernels.chain_kernel`, "
        "under the identity of the chain's top node) and of each "
        "mediator-side grouping (`runtime.kernels.group_kernel`, under its "
        "`mkgroupby` node's identity) is "
        "stored the same way: two racing runs bind equal kernels from the "
        "same node, and a kernel holds nothing of a run (a grouping's "
        "groups live in the generator of one invocation), so either store "
        "serves both.  Nothing "
        "but the plan refers to the slot, so dropping the plan (eviction, "
        "a schema change, the mediator going away) drops what was compiled.",
    ),
    LockComponent(
        module="src/repro/optimizer/history.py",
        cls="ExecCallHistory",
        locks=(
            LockDecl(
                attr="_lock",
                kind="Lock",
                guards=("_exact", "_close", "_availability", "failures"),
                rank=42,
                guards_doc="the per-`(source, shape)` deques (two LRU tables "
                "of at most `MAX_SIGNATURES`) and availability EWMAs",
                notes="`record()` appends and `estimate()` aggregates under "
                "the lock; both render their signatures *before* taking it. "
                "The cost model reads through this interface only.",
            ),
        ),
        held_in=(("_observe_availability", "_lock"),),
    ),
    LockComponent(
        module="src/repro/runtime/answercache.py",
        cls="AnswerCache",
        locks=(
            LockDecl(
                attr="_lock",
                kind="RLock",
                guards=(
                    "_by_plan",
                    "_total_rows",
                    "_held",
                    "subsumption_hits",
                    "patches",
                    "stores",
                ),
                rank=43,
                guards_doc="the plan-text subsumption index, the row budget, "
                "the subsumption/patch/store counters and the one-mediator claim",
                notes="never held while planning, executing, replaying "
                "deltas or reading the registry; `add_extent`/`drop_extent` "
                "sweep stale entries out (`evict_stale`), and partial patches "
                "re-validate their pin after executing.",
            ),
        ),
        held_in=(("_added", "_lock"), ("_removed", "_lock")),
    ),
    LockComponent(
        module="src/repro/runtime/backpressure.py",
        cls="BoundedRowQueue",
        locks=(
            LockDecl(
                attr="_condition",
                kind="Condition",
                guards=(
                    "_rows",
                    "_closed",
                    "_finished",
                    "_error",
                    "delivered",
                    "stalls",
                ),
                rank=45,
                guards_doc="the row deque, delivered/stall counters, closed "
                "flag",
                notes="producer blocks at capacity; consumer close wakes and "
                "cancels the producer with `StreamClosed`.",
            ),
        ),
    ),
    LockComponent(
        module="src/repro/sources/network.py",
        cls="NetworkProfile",
        locks=(
            LockDecl(
                attr="_lock",
                kind="Lock",
                guards=("_rng",),
                rank=50,
                guards_doc="the seeded RNG",
            ),
        ),
        notes="under concurrency the *multiset* of injected faults is "
        "reproducible; their assignment to calls is scheduling-dependent.",
    ),
    LockComponent(
        module="src/repro/sources/network.py",
        cls="AvailabilityModel",
        locks=(
            LockDecl(
                attr="_lock",
                kind="Lock",
                guards=("_rng", "_forced_failures", "_forced_crashes", "_forced_kills"),
                rank=51,
                guards_doc="the seeded RNG and armed failure/crash/kill lists",
            ),
        ),
        notes="`available` is a deliberately unguarded hard switch: a plain "
        "bool flipped by tests, torn reads impossible.",
    ),
)

# --------------------------------------------------------------------------- dispatch
# Algebra nodes are immutable: `to_text()` is kept on the node after its
# first rendering (see `TextCachedNode`), and the optimizer's groups share
# subtrees between plans, so an in-place edit would go unseen under a stale text.
HIERARCHIES: tuple[Hierarchy, ...] = (
    Hierarchy(name="logical", module="src/repro/algebra/logical.py", root="LogicalOp", frozen=True),
    Hierarchy(name="physical", module="src/repro/algebra/physical.py", root="PhysicalOp", frozen=True),
    Hierarchy(name="expr", module="src/repro/algebra/expressions.py", root="Expr", frozen=True),
)

# Not a site: `runtime/namespace.py` `_translate` (the ladder behind
# `to_source_namespace`) renames what it knows and rebuilds every other
# operator through `with_children`, so a new operator cannot fall out of it.
# Nor are the logical<->physical correspondence and the cost functions: each
# physical class states `implements` and `cost`, and `PhysicalOp` refuses one
# that omits either when it is defined; `degrade._STRIPPABLE` is derived from
# the logical classes.
#: why Field never needs a dispatch arm (shared by several physical sites)
_FIELD = "Field is the source placeholder inside Exec, never a plan root"
#: the operators that only exist above the wrapper boundary
_MEDIATOR_ONLY = "mediator-side only: the planner never pushes it below the wrapper boundary"
#: why an operator is a kernel's input or consumer, never part of its chain
_NOT_PER_ELEMENT = "not one element in, at most one out, without state: compose_rows runs it"
#: why an expression kind runs its compile() closure inside a kernel
_DELEGATED = "run through its own compile() closure, made once per kernel run"

DISPATCH_SITES: tuple[DispatchSite, ...] = (
    DispatchSite(
        name="unparser.unparse",
        module="src/repro/algebra/unparser.py",
        hierarchy="logical",
        functions=("_Unparser.unparse",),
    ),
    DispatchSite(
        name="unparser.decompose",
        module="src/repro/algebra/unparser.py",
        hierarchy="logical",
        functions=("_Unparser._decompose",),
    ),
    DispatchSite(
        name="operators.compose_rows",
        module="src/repro/runtime/operators.py",
        hierarchy="physical",
        functions=("compose_rows",),
        exempt=(("Field", _FIELD),),
    ),
    DispatchSite(
        name="kernels.chain",
        module="src/repro/runtime/kernels.py",
        hierarchy="physical",
        functions=("_shape",),
        exempt=(("Field", _FIELD),)
        + tuple(
            (name, _NOT_PER_ELEMENT)
            for name in ("Exec", "MkBag", "MkBindJoin", "ProbeJoin", "MkUnion", "MkFlatten")
            + ("MkDistinct", "MkGroupBy", "MkLimit")
        ),
    ),
    DispatchSite(
        name="kernels.expr",
        module="src/repro/runtime/kernels.py",
        hierarchy="expr",
        functions=("_expr_shape",),
        exempt=(
            ("InList", _DELEGATED + " (which hashes all-constant items once)"),
            ("Arithmetic", _DELEGATED + " (its error message renders the node)"),
            ("BagExpr", _DELEGATED + " (builds a collection, no per-row branch to save)"),
            ("FunctionCall", _DELEGATED + " (dispatches on the function name)"),
            ("Subquery", _DELEGATED + " (the run's evaluator is a kernel argument)"),
        ),
    ),
    DispatchSite(
        name="kernels.group",
        module="src/repro/runtime/kernels.py",
        hierarchy="expr",
        functions=("_group_shape", "_expr_shape"),
        exempt=(
            ("InList", _DELEGATED + ": a key or argument that is a membership test"),
            ("Arithmetic", _DELEGATED + ": a computed key or argument, e.g. sum(x.a * x.b)"),
            ("BagExpr", _DELEGATED + ": a collection-valued key groups by its hashable stand-in"),
            ("FunctionCall", _DELEGATED + ": a nested call as an aggregate's argument"),
            ("Subquery", _DELEGATED + ": a correlated key or argument asks the run's evaluator per row"),
        ),
    ),
    DispatchSite(
        name="wrappers.evaluate_stream",
        module="src/repro/wrappers/base.py",
        hierarchy="logical",
        functions=("AlgebraEvaluator.evaluate_stream",),
        exempt=(
            ("Submit", _MEDIATOR_ONLY),
            ("BindJoin", _MEDIATOR_ONLY),
            ("Apply", _MEDIATOR_ONLY),
            ("Distinct", "no `distinct` capability terminal exists; the grammar never routes it here"),
            ("Union", "no `union` capability terminal exists: one submit ranges over one extent"),
            ("Flatten", "no `flatten` capability terminal exists; the grammar never routes it here"),
        ),
    ),
    DispatchSite(
        name="sqlwrapper.render",
        module="src/repro/wrappers/sqlwrapper.py",
        hierarchy="logical",
        exempt=(
            ("Submit", _MEDIATOR_ONLY),
            ("BindJoin", _MEDIATOR_ONLY),
            ("Apply", _MEDIATOR_ONLY),
            ("Distinct", "no `distinct` terminal in the Sql grammar"),
            ("Union", "no `union` terminal in the Sql grammar"),
            ("Flatten", "no `flatten` terminal in the Sql grammar"),
            ("BagLiteral", "no `bag` terminal in the Sql grammar"),
        ),
    ),
    DispatchSite(
        name="sqlwrapper.render-expr",
        module="src/repro/wrappers/sqlwrapper.py",
        hierarchy="expr",
        exempt=(
            ("Arithmetic", "not in the Sql predicate vocabulary; `SqlCapabilitySet` refuses it at plan time"),
            ("StructExpr", "not in the Sql predicate vocabulary"),
            ("BagExpr", "not in the Sql predicate vocabulary"),
            ("FunctionCall", "aggregates reach SQL through GroupBy's aggregate list, never as a bare predicate"),
            ("Subquery", "never pushed below the wrapper boundary"),
        ),
    ),
)

# --------------------------------------------------------------------------- assembly
HYGIENE_SCAN: tuple[str, ...] = (
    "src/repro/runtime/",
    "src/repro/serving/",
    "src/repro/wrappers/",
    "src/repro/sources/",
)


def repo_spec() -> Spec:
    return Spec(
        scan=("src/repro",),
        lock_components=LOCK_COMPONENTS,
        hierarchies=HIERARCHIES,
        dispatch_sites=DISPATCH_SITES,
        hygiene_scan=HYGIENE_SCAN,
        drift=DriftSpec(),
        baseline="analysis-baseline.txt",
    )
