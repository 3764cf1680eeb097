"""A miniature operator hierarchy for the dispatch fixture."""

from dataclasses import dataclass


class Node:
    pass


class Add(Node):
    pass


class Sub(Node):
    pass


class Mul(Node):
    pass


class Leaf:
    """Root of a hierarchy the spec declares frozen."""


@dataclass(frozen=True)
class Pinned(Leaf):
    value: int


@dataclass
class Loose(Leaf):  # seed: mutable-node
    value: int


class Plain(Leaf):  # seed: mutable-node
    pass
