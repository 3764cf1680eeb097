"""The machine-readable lock spec and the docs table generated from it.

A :class:`LockComponent` names one class, its lock attributes, what each
lock guards, and the lock's **rank** in the acquisition hierarchy: a thread
holding a lock of rank *r* may only acquire locks of strictly greater rank.
A component whose class subclasses another component's inherits that
component's guards for the same lock; a base class's lock has no rank of its
own (each instance's lock is ranked by its subclass's row).
The lock checker enforces the spec against the code; ``--write-docs``
renders the same spec into the lock-discipline table in
``docs/ARCHITECTURE.md``, so the prose map can no longer drift from what is
enforced (a drift rule diffs the two).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class LockDecl:
    """One lock attribute of a component class."""

    attr: str  #: attribute name, e.g. "_lock"
    kind: str  #: "Lock" | "RLock" | "Condition"
    guards: tuple[str, ...]  #: self-attributes this lock guards
    rank: int | None = 50  #: acquisition hierarchy; acquire strictly increasing
    guards_doc: str = ""  #: prose for the docs table (defaults to guards)
    notes: str = ""  #: prose notes for the docs table


@dataclass(frozen=True)
class LockComponent:
    """One class whose locking discipline the checker enforces."""

    module: str  #: repo-relative posix path
    cls: str
    locks: tuple[LockDecl, ...]
    #: methods that run with a lock already held by the caller -- writes to
    #: that lock's guarded state inside them are not findings.  The
    #: docstring of each such method must say so; the mapping is
    #: method-name -> lock attr.
    held_in: tuple[tuple[str, str], ...] = ()
    #: guarded attributes that specific methods may touch without the lock,
    #: each with a one-line justification: ((method, attr, why), ...)
    unguarded_ok: tuple[tuple[str, str, str], ...] = ()
    notes: str = ""  #: component-level prose for the docs table

    def lock_for(self, attr: str) -> LockDecl | None:
        for decl in self.locks:
            if decl.attr == attr:
                return decl
        return None

    def inherit(self, base: LockComponent) -> LockComponent:
        """This component with ``base``'s guards added to the locks both declare."""
        locks = tuple(
            replace(d, guards=d.guards + b.guards) if (b := base.lock_for(d.attr)) else d
            for d in self.locks
        )
        return replace(self, locks=locks)

    def guard_of(self, state_attr: str) -> LockDecl | None:
        for decl in self.locks:
            if state_attr in decl.guards:
                return decl
        return None


LOCK_TABLE_BEGIN = "<!-- lock-spec:begin (generated by `python -m repro.analysis --write-docs`; do not edit by hand) -->"
LOCK_TABLE_END = "<!-- lock-spec:end -->"


def render_lock_table(components: tuple[LockComponent, ...]) -> str:
    """The markdown lock-discipline table, generated from the spec.

    One row per component; the rank column documents the acquisition
    hierarchy the checker enforces (hold rank *r*, acquire only > *r*).
    """
    lines = [
        "| component | lock (rank) | guards | notes |",
        "| --- | --- | --- | --- |",
    ]
    for comp in components:
        module = comp.module.removeprefix("src/repro/")
        # A component with no lock declares why its shared state needs none.
        locks = "; ".join(
            f"`{d.attr}` {d.kind} ({'per subclass' if d.rank is None else d.rank})"
            for d in comp.locks
        ) or "none"
        guards = "; ".join(
            d.guards_doc or ", ".join(f"`{g}`" for g in d.guards) for d in comp.locks
        ) or "--"
        notes_parts = [comp.notes] + [d.notes for d in comp.locks if d.notes]
        notes = " ".join(p for p in notes_parts if p)
        lines.append(f"| `{module}` `{comp.cls}` | {locks} | {guards} | {notes} |")
    return "\n".join(lines)
