"""The rule engine: equivalence groups of logical subtrees (paper Section 3.2).

:meth:`Rewriter.alternatives` sorts every subtree the rules reach from a plan
into **groups** of interchangeable subtrees (Volcano/Cascades in miniature),
so the rules see each distinct subtree once, not once per whole plan it
appears in; the optimizer then costs each group once.  As in Cascades, an
(operator, operand) pair is bound only when some rule's ``pattern`` admits it.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from operator import is_
from typing import Iterable

from repro.algebra.logical import Get, LogicalOp, Submit, transform_bottom_up
from repro.algebra.rules import (
    DEFAULT_RULES,
    CapabilityResolver,
    TransformationRule,
)

#: a group member: a node whose operands are members of the listed groups
Member = tuple[LogicalOp, tuple[int, ...]]
#: (operator class, operand class) -> the rules whose pattern admits it, in order
Patterns = dict[tuple[type, type], tuple[TransformationRule, ...]]


def _patterns(rules: tuple[TransformationRule, ...]) -> Patterns:
    table: Patterns = {}
    for rule in rules:
        for pair in product(*rule.pattern):
            table[pair] = table.get(pair, ()) + (rule,)
    return table


def _operands(node: LogicalOp) -> tuple[LogicalOp, ...]:
    """A node's subtrees that are groups of their own: never a submit's
    argument, which is the wrapper's -- the rules that move work across the
    boundary check the wrapper accepts what they build, nothing rewrites below."""
    return () if isinstance(node, Submit) else node.children()


class Memo:
    """The groups of one :meth:`Rewriter.alternatives` call, numbered from 0.

    A member's key is its text with each operand written as its group's slot
    (``get(#n)``: OQL cannot name such an extent), so a key never embeds a
    subtree -- a union spine, a partial answer's rows -- and two rewrites
    reaching one operator over the same groups reach one member.  A node
    seen before is found by identity.  Groups refer to each other by number,
    so the memo is freed the moment its search drops it.
    """

    def __init__(
        self, root: LogicalOp, rules: tuple[TransformationRule, ...], capabilities: CapabilityResolver
    ):
        #: members explored
        self.size = 0
        self._members: list[list[Member]] = []
        #: per group: (group, member, its operand groups) of each member over it
        self._parents: list[list[tuple[int, LogicalOp, tuple[int, ...]]]] = []
        self._merged: list[int] = []
        self._slots: list[Get] = []
        self._keys: dict[str, tuple[int, LogicalOp, LogicalOp]] = {}
        #: id(node) -> (group, the member it equals, node: keeps the id taken)
        self._seen: dict[int, tuple[int, LogicalOp, LogicalOp]] = {}
        #: (group, binding, the rules its pattern pair admits)
        self._pending: deque[tuple[int, LogicalOp, tuple[TransformationRule, ...]]] = deque()
        self._patterns = _patterns(rules)
        group, _ = self._insert(root)
        pending, insert, find = self._pending, self._insert, self.find
        while pending:
            into, binding, matching = pending.popleft()
            for rule in matching:
                for rewritten in rule.apply(binding, capabilities):
                    insert(rewritten, find(into))
        self.root = find(group)

    def find(self, group: int) -> int:
        """The group ``group`` is now part of (itself unless merged)."""
        while self._merged[group] != group:
            group = self._merged[group]
        return group

    def members(self, group: int) -> list[Member]:
        """The members of ``group`` and of every group merged with it."""
        return self._members[self.find(group)]

    def _insert(self, node: LogicalOp, into: int | None = None) -> tuple[int, LogicalOp]:
        """The group and member ``node`` equals, new if need be; ``into`` merges."""
        seen = self._seen.get(id(node))
        if seen is None:
            children = _operands(node)
            placed = [self._insert(child) for child in children]
            operands = tuple([group for group, _ in placed])
            key = self._key(node, operands)
            seen = self._keys.get(key)
            if seen is None:
                equals = [member for _, member in placed]
                member = node if all(map(is_, equals, children)) else node.with_children(equals)
                if into is None:
                    into = len(self._members)
                    self._members.append([])
                    self._parents.append([])
                    self._merged.append(into)
                    self._slots.append(Get(f"#{into}"))
                self._keys[key] = self._seen[id(node)] = (into, member, node)
                self._add(into, member, operands)
                return into, member
            self._seen[id(node)] = (seen[0], seen[1], node)
        group = self.find(seen[0])
        if into is not None and group != into:
            group = self._merge(into, group)
        return group, seen[1]

    def _add(self, group: int, member: LogicalOp, operands: tuple[int, ...]) -> None:
        self.size += 1
        self._members[group].append((member, operands))
        for parent in self._parents[group]:
            self._bind(*parent, member)
        for operand in operands:
            self._parents[operand].append((group, member, operands))
        self._bind(group, member, operands)

    def _key(self, node: LogicalOp, operands: tuple[int, ...]) -> str:
        if not operands:
            return node.to_text()
        return node.with_children([self._slots[self.find(g)] for g in operands]).to_text()

    def _merge(self, into: int, other: int) -> int:
        """Make ``other`` part of ``into``; then, since a member over ``other``
        is now one over ``into``, key such members anew: one whose key a kept
        member holds is dropped, and the two members' groups merge too.  The
        dropped one was shown with ``other``'s members; its twin is not again."""
        merged, pending = into, [(into, other)]
        members, parents = self._members, self._parents
        while pending:
            into, other = map(self.find, pending.pop())
            if into == other:
                continue
            self._merged[other] = into
            dropped, twins = set(), set()
            for group, member, operands in parents[other]:
                kept = self._keys.setdefault(self._key(member, operands), (group, member, member))
                if kept[1] is not member:
                    dropped.add(id(member))
                    twins.add(id(kept[1]))
                    pending.append((kept[0], group))
            if dropped:
                for group in range(len(members)):
                    members[group] = [m for m in members[group] if id(m[0]) not in dropped]
                    parents[group] = [p for p in parents[group] if id(p[1]) not in dropped]
            for over, under in ((parents[into], members[other]), (parents[other], members[into])):
                for parent in over:
                    if id(parent[1]) not in twins:
                        for member, _ in under:
                            self._bind(*parent, member)
            members[into] += members[other]
            parents[into] += parents[other]
        return self.find(merged)

    def _bind(
        self, group: int, member: LogicalOp, operands: tuple[int, ...], new: LogicalOp | None = None
    ) -> None:
        """Queue ``member`` over each operand member not yet shown with it
        (``new``, else all) whose pair some rule's pattern admits.  A pattern
        is an operator over one operand, so a union or a join is never bound."""
        if len(operands) != 1:
            return
        (child,) = member.children()
        for operand in [equal for equal, _ in self.members(operands[0])] if new is None else (new,):
            matching = self._patterns.get((type(member), type(operand)))
            if matching:
                binding = member if operand is child else member.with_children((operand,))
                self._pending.append((group, binding, matching))


class Rewriter:
    """Applies transformation rules under a wrapper-capability resolver."""

    def __init__(
        self,
        capabilities: CapabilityResolver,
        rules: Iterable[TransformationRule] | None = None,
    ):
        self.capabilities = capabilities
        self.rules: tuple[TransformationRule, ...] = DEFAULT_RULES if rules is None else tuple(rules)

    # -- greedy fixpoint -------------------------------------------------------------
    def rewrite_greedy(self, root: LogicalOp) -> LogicalOp:
        """Apply rules bottom-up until a fixpoint is reached: at each node the
        first rule whose pattern admits it and that fires."""
        by_pair = _patterns(self.rules)

        def visit(node: LogicalOp) -> LogicalOp:
            children = node.children()
            for rule in by_pair.get((type(node), type(children[0])), ()) if len(children) == 1 else ():
                alternatives = rule.apply(node, self.capabilities)
                if alternatives:
                    return alternatives[0]
            return node

        current = root
        for _ in range(100):  # fixpoint bound; the rule sets used here terminate quickly
            rewritten = transform_bottom_up(current, visit)
            if rewritten == current:
                return current
            current = rewritten
        return current

    # -- equivalence groups ------------------------------------------------------------
    def alternatives(self, root: LogicalOp) -> Memo:
        """The groups of every subtree the rules reach from ``root``.

        A rule sees a member once over each operand member its pattern
        admits; a rewrite whose key names another group merges the two.  Nothing
        is kept: rules, capabilities and schema are read afresh by the next call.
        """
        return Memo(root, self.rules, self.capabilities)
