"""Machine-speed calibration: a fixed kernel ticked between the ops.

The shared 2-vCPU box this benchmark runs on has slow stretches, from single
rounds to whole hours: one and the same kernel of interpreter work takes 0.40
to 0.80 ms, and ten identical runs of ``adhoc_cold`` spread by 22% in ops/s.
No statistic taken inside a 20 s run removes a slow hour.  What does is
measuring the machine next to the program: after every op of a single-client
phase the client runs this small pure-Python kernel -- object allocation,
attribute and dict access, generators, ``isinstance``, string formatting: the
interpreter work the mediator itself is made of, and nothing of ``repro`` --
and times it on the thread's own CPU clock, off the op's clock.  The mean tick
of a phase says how fast the machine was *while that phase ran*, and every
time the phase measured is scaled to what it would have been at the reference
tick (spread of the same ten runs: 5%).

Where this holds and where it does not is measured in the README: the main
lists' wall time is 97-99% process CPU time and follows the tick with slope
0.7-0.9; a time that is whole interpreter switch intervals does not and is
left alone (``Workload.unscaled``); a phase with two clients is never ticked
(the tick would hold the interpreter against the other client's query) and
borrows the ticks of the single-client phases around it.

The kernel is part of the benchmark, not of the program: a change to the
program cannot move it, so it cannot hide or fake a gain.
"""

from __future__ import annotations

import math
import time

#: Tick of the kernel on the reference box in its fast state.  It only fixes
#: the unit scaled times are read in (that box at that speed) and cancels out
#: of every comparison between two runs; changing it would rescale every
#: committed baseline.
REFERENCE_TICK_S = 0.40e-3
#: one tick per this much measured op time (and at least one per op), so the
#: ticks sample the machine in proportion to where the round spent its time
TICK_EVERY_S = 0.025
MAX_TICKS_PER_OP = 12


class _Node:
    __slots__ = ("kind", "children", "value")

    def __init__(self, kind: str, children: tuple = (), value: object = None):
        self.kind = kind
        self.children = children
        self.value = value

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def kernel(iterations: int = 100) -> int:
    """A fixed amount of interpreter work; the result only defeats dead-code removal."""
    seen: dict[str, int] = {}
    total = 0
    for i in range(iterations):
        leaves = tuple(_Node("const", value=i + j) for j in range(4))
        tree = _Node("select", (_Node("union", leaves), _Node("get", value=f"person{i % 8}")))
        for node in tree.walk():
            if isinstance(node.value, int):
                total += node.value
            elif isinstance(node.value, str):
                seen[node.value] = seen.get(node.value, 0) + 1
        row = {"id": i, "name": f"n_{i}", "salary": i % 500}
        if row["salary"] > 250:
            total += len(row["name"])
    return total + len(seen)


def tick(after_seconds: float) -> tuple[float, int]:
    """Tick the kernel after an op that took ``after_seconds``.

    Returns the summed thread-CPU time of the ticks and how many there were.
    The thread clock leaves out time spent waiting for the interpreter lock,
    so a tick means the same with one client or two.
    """
    count = min(max(1, math.ceil(after_seconds / TICK_EVERY_S)), MAX_TICKS_PER_OP)
    start = time.thread_time()
    for _ in range(count):
        kernel()
    return time.thread_time() - start, count


def factor(ticks: list[tuple[float, int]]) -> float:
    """What to multiply a measured time by to read it at reference speed.

    1 when nothing ticked (a phase without ops).
    """
    total = sum(seconds for seconds, _ in ticks)
    count = sum(n for _, n in ticks)
    return REFERENCE_TICK_S * count / total if count else 1.0
