"""The rule engine that drives logical-plan rewriting.

Two modes, both used by the optimizer:

* :meth:`Rewriter.rewrite_greedy` applies the rules bottom-up until no rule
  fires anywhere -- this yields the "maximum push-down" plan the paper's
  default cost model favours (everything done at a data source costs 0);
* :meth:`Rewriter.alternatives` enumerates the closure of single-rule
  applications (bounded), which is the search space handed to the cost-based
  optimizer.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.logical import LogicalOp, transform_bottom_up
from repro.algebra.rules import (
    DEFAULT_RULES,
    CapabilityResolver,
    TransformationRule,
)


#: id(node) -> (node, its single-step variants); the node rides along so that
#: its id cannot be reused by a later node while the entry exists
_VariantMemo = dict[int, tuple[LogicalOp, list[LogicalOp]]]


class Rewriter:
    """Applies transformation rules under a wrapper-capability resolver."""

    def __init__(
        self,
        capabilities: CapabilityResolver,
        rules: Iterable[TransformationRule] | None = None,
        max_alternatives: int = 64,
    ):
        self.capabilities = capabilities
        self.rules: tuple[TransformationRule, ...] = tuple(rules or DEFAULT_RULES)
        self.max_alternatives = max_alternatives

    # -- greedy fixpoint -------------------------------------------------------------
    def rewrite_greedy(self, root: LogicalOp) -> LogicalOp:
        """Apply rules bottom-up until a fixpoint is reached."""
        current = root
        for _ in range(100):  # fixpoint bound; the rule sets used here terminate quickly
            rewritten = self._one_pass(current)
            if rewritten == current:
                return current
            current = rewritten
        return current

    def _one_pass(self, root: LogicalOp) -> LogicalOp:
        def visit(node: LogicalOp) -> LogicalOp:
            for rule in self.rules:
                alternatives = rule.apply(node, self.capabilities)
                if alternatives:
                    return alternatives[0]
            return node

        return transform_bottom_up(root, visit)

    # -- exhaustive enumeration ---------------------------------------------------------
    def alternatives(self, root: LogicalOp) -> list[LogicalOp]:
        """Return the closure of rule applications starting from ``root``.

        Always includes ``root`` itself; bounded by ``max_alternatives`` so a
        pathological rule set cannot blow up the search space.

        The single-step variants of a plan -- every plan one rule application
        at one node away, nodes in pre-order -- are built per *node* and
        memoised by node identity for the duration of this call: a plan popped
        from the frontier differs from the plan it was derived from along one
        path, shares every other node with it, and so pays rule applications
        for that path only.  The memo is a local: rules, capabilities and
        schema are read afresh by the next call.
        """
        memo: _VariantMemo = {}
        seen: dict[str, LogicalOp] = {root.to_text(): root}
        frontier: list[LogicalOp] = [root]
        while frontier and len(seen) < self.max_alternatives:
            for variant in self._variants(frontier.pop(), memo):
                key = variant.to_text()
                if key not in seen:
                    seen[key] = variant
                    frontier.append(variant)
                if len(seen) >= self.max_alternatives:
                    break
        return list(seen.values())

    def _variants(self, node: LogicalOp, memo: _VariantMemo) -> list[LogicalOp]:
        """Every plan one rule application away from ``node``, nodes in pre-order:
        the rewrites of ``node`` itself, then each child's variants lifted
        through ``with_children``."""
        known = memo.get(id(node))
        if known is not None:
            return known[1]
        capabilities = self.capabilities
        found = [
            rewritten for rule in self.rules for rewritten in rule.apply(node, capabilities)
        ]
        children = node.children()
        for index, child in enumerate(children):
            for variant in self._variants(child, memo):
                found.append(
                    node.with_children(children[:index] + (variant,) + children[index + 1 :])
                )
        memo[id(node)] = (node, found)
        return found
