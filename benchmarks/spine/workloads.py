"""The five named workloads: seeded op lists over the two federations.

Every workload is a closed loop (the paper's applications call the mediator
and wait for the answer).  A round's op list is a pure function of
``(workload, seed, scale)``: the *mix* of a list -- how many ops of each
shape, which server pairs go down, how often each template is drawn -- is
fixed, and the seed decides the data, the constants and the order.  That is
what keeps a metric's spread across seeds inside its regression bound.

Names are fixed; later issues cite them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from benchmarks.spine.federation import FED4X2500, FED8, FederationSpec

#: op kinds
QUERY = "query"  # Mediator.query(text).rows()
STREAM = "stream"  # Mediator.query_stream(text), iterated to the end
OUTAGE = "outage"  # servers down -> partial answer -> servers up -> resubmit
WRITE = "write"  # DBA: add_extent/drop_extent of audit0, alternately

ZIPF_ALPHA = 1.1


@dataclass(frozen=True)
class Op:
    """One client operation."""

    kind: str
    #: the OQL text submitted (empty for writes)
    text: str = ""
    #: label for per-kind latency breakdowns (shape or traffic class)
    label: str = ""
    #: the query whose twin-federation answer this op is checked against, when
    #: it is not ``text`` itself: the text without its ``limit`` clause (a
    #: limit answer is a sub-multiset of the unlimited one, of exact length)
    #: and without the always-true conjunct that makes an ad hoc text unique
    reference: str = ""
    limit: int | None = None
    #: indexes of the person servers taken down (outage ops)
    down: tuple[int, ...] = ()

    @property
    def reference_text(self) -> str:
        return self.reference or self.text

    def as_kind(self, kind: str, label: str | None = None, down: tuple[int, ...] = ()) -> "Op":
        return replace(self, kind=kind, label=self.label if label is None else label, down=down)


def _limited(kind: str, base: str, limit: int, label: str) -> Op:
    return Op(kind, f"{base} limit {limit}", label, reference=base, limit=limit)


# -- the 64 repeated templates (the shapes of bench_e16) -----------------------------


def templates() -> list[Op]:
    """64 distinct queries over ``person`` in popularity-rank order.

    Five shapes (bare select, projection, struct projection, ``distinct``,
    ``limit``) interleaved, so the hot head of a Zipfian draw mixes shapes
    instead of repeating one.
    """
    shapes: list[list[Op]] = [
        [Op(QUERY, f"select x from x in person where x.salary > {25 * i}", "select") for i in range(16)],
        [Op(QUERY, f"select x.name from x in person where x.salary > {25 * i}", "project") for i in range(16)],
        [
            Op(
                QUERY,
                "select struct(n: x.name, s: x.salary) from x in person "
                f"where x.salary <= {25 * i + 15}",
                "struct",
            )
            for i in range(16)
        ],
        [Op(QUERY, f"select distinct x.name from x in person where x.salary > {50 * i}", "distinct") for i in range(8)],
        [
            _limited(QUERY, "select x.name from x in person where x.salary > 100", 5 * i + 5, "limit")
            for i in range(8)
        ],
    ]
    ranked = [op for group in itertools.zip_longest(*shapes) for op in group if op is not None]
    assert len(ranked) == 64
    return ranked


def zipfian_counts(n_items: int, draws: int) -> list[int]:
    """Exact Zipfian(ZIPF_ALPHA) draw counts by rank (largest remainder).

    The frequencies are the distribution's expectation, not a sample of it:
    the seed shuffles the arrival order only, so two seeds issue the same
    multiset of queries.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(n_items)]
    total = sum(weights)
    shares = [draws * w / total for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(n_items), key=lambda i: shares[i] - counts[i], reverse=True)
    for i in by_remainder[: draws - sum(counts)]:
        counts[i] += 1
    return counts


def zipfian_ops(items: list[Op], draws: int, rng: random.Random) -> list[Op]:
    ops = [op for op, count in zip(items, zipfian_counts(len(items), draws)) for _ in range(count)]
    rng.shuffle(ops)
    return ops


# -- never-seen ad hoc texts ----------------------------------------------------------


class AdhocTexts:
    """Seeded generator of unique query texts over six shapes.

    Every text carries a constant no other text of the run has (an always-true
    ``id <`` bound), so neither the plan cache nor the answer cache can hit.
    The salary constants come from a small grid: what a text costs then
    depends on its shape and grid point, not on the seed, and the reference
    answers (one per shape and grid point) stay cheap to compute.
    """

    SHAPES = ("filter", "struct", "distinct", "limit", "groupby", "join")
    SALARIES = (120, 160, 200, 240, 280)

    LIMITS = (5, 10, 20, 40)

    def __init__(self, spec: FederationSpec, rng: random.Random, first_serial: int):
        self.spec = spec
        self.rng = rng
        self.serial = first_serial
        self._made: dict[str, int] = {}

    def next(self, shape: str, kind: str = QUERY) -> Op:
        self.serial += 1
        # Grid points cycle per shape: the mix of a batch is seed-independent.
        made = self._made[shape] = self._made.get(shape, 0) + 1
        salary = self.SALARIES[made % len(self.SALARIES)]
        if shape == "join":
            extent = made % self.spec.person_extents
            head = f"select struct(n: x.name, d: d.dname) from x in person{extent}, d in dept0 where x.id = d.id and x.salary > {salary}"
            return Op(kind, f"{head} and d.id < {10_000_000 + self.serial}", shape, reference=head)
        head = {
            "filter": f"select x.name from x in person where x.salary > {salary}",
            "struct": f"select struct(n: x.name, s: x.salary) from x in person where x.salary <= {salary + 100}",
            "distinct": f"select distinct x.salary from x in person where x.salary > {salary}",
            "limit": f"select x.name from x in person where x.salary > {salary}",
            "groupby": f"select struct(s: x.salary, n: count(x)) from x in person where x.salary > {salary}",
        }[shape]
        text = f"{head} and x.id < {10_000_000 + self.serial}"
        if shape == "groupby":
            return Op(kind, f"{text} group by s: x.salary", shape, reference=f"{head} group by s: x.salary")
        if shape == "limit":
            limit = self.LIMITS[made % len(self.LIMITS)]
            return Op(kind, f"{text} limit {limit}", shape, reference=head, limit=limit)
        return Op(kind, text, shape, reference=head)

    def batch(self, count: int, kind: str = QUERY, shapes: tuple[str, ...] = SHAPES) -> list[Op]:
        """``count`` texts with the shapes in equal shares, order shuffled."""
        ops = [self.next(shapes[i % len(shapes)], kind) for i in range(count)]
        self.rng.shuffle(ops)
        return ops


#: shapes a streamed probe may use: a satisfied ``limit`` cancels in-flight
#: source calls, which would make the source counters timing-dependent
STREAMABLE = ("filter", "struct", "distinct")
#: shapes an outage probe may use: every person server feeds the answer, so
#: whichever servers go down the answer is partial
OVER_UNION = ("filter", "struct", "distinct", "limit", "groupby")
#: shapes that cost about the same to plan and run: the never-seen share of
#: serve_mixed is one cluster, so its p95 does not sit between two shapes
SIMILAR_COST = ("filter", "struct", "distinct", "limit")


# -- the workloads ----------------------------------------------------------------------


@dataclass
class Workload:
    """A named workload: its federation, op lists and load shape."""

    name: str
    spec: FederationSpec
    clients: int = 1
    #: serve through MediatorServer with an AnswerCache (serve_mixed only)
    served: bool = False
    #: traffic class ``query_p50_ms`` is taken over (None = every op)
    p50_label: str | None = None
    #: op shape whose *median* stands in for ``query_p95_ms`` where the list is
    #: too short to carry a 95th percentile (None = the percentile over every op)
    p95_label: str | None = None
    #: latency metrics that are whole interpreter switch intervals (5 ms of wall
    #: clock whatever the machine's speed) and little else.  They are left as
    #: the clock read them, not scaled to reference machine speed; the value
    #: says how an op's times across the rounds combine into the op's time
    #: (elsewhere: their median).
    unscaled: dict[str, Callable[[Iterable[float]], float]] = field(default_factory=dict)
    #: per-client main op lists, the warm-up list and the tail probe lists
    main: list[list[Op]] = field(default_factory=list)
    warm_up: list[Op] = field(default_factory=list)
    stream_tail: list[Op] = field(default_factory=list)
    outage_tail: list[Op] = field(default_factory=list)

    @property
    def all_ops(self) -> list[Op]:
        ops = [op for client in self.main for op in client]
        return ops + self.warm_up + self.stream_tail + self.outage_tail


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def _outages(texts: list[Op], spec: FederationSpec, rng: random.Random) -> list[Op]:
    """``texts`` as outage ops, cycling every choice of down servers in seeded order.

    fed8 loses 2 of its 8 person servers per op, fed4x2500 1 of its 4.
    """
    size = 2 if spec.person_extents >= 8 else 1
    choices = list(itertools.combinations(range(spec.person_extents), size))
    rng.shuffle(choices)
    return [op.as_kind(OUTAGE, down=choices[i % len(choices)]) for i, op in enumerate(texts)]


SCAN_CYCLE = (
    # (a) barrier equi-join person x dept0: batched ``in``-list probes
    Op(QUERY, "select struct(n: x.name, d: d.dname) from x in person, d in dept where x.id = d.id", "join"),
    # (b) streamed filter-project over the union
    Op(STREAM, "select x.name from x in person where x.salary > 250", "filter"),
    # (c) barrier group by with count/max: two-phase through the union
    Op(
        QUERY,
        "select struct(s: x.salary, n: count(x), hi: max(x.id)) from x in person group by s: x.salary",
        "groupby",
    ),
    # (d) streamed distinct
    Op(STREAM, "select distinct x.salary from x in person where x.salary > 100", "distinct"),
)

#: One scan_heavy round: 5 joins, 12 group-bys, 6 filters, 6 distincts.  The
#: shapes cost 290, 43, 58 and 47 ms, so each engine path gets a comparable
#: share of the round's time, there are a dozen first-row samples, and the
#: median op sits inside a shape's cluster, not on the edge between two.
_A, _B, _C, _D = SCAN_CYCLE
SCAN_ORDER = (_A, _C, _B, _C, _D) * 5 + (_B, _C, _D, _C)

#: ops of one full-size round (all clients together).
#: Sized so that five rounds measure for ~15 s on the 2-core reference box, and
#: never under 200 where the 95th percentile is taken over the ops (10 beyond it).
OPS_PER_ROUND = {"adhoc_cold": 204, "repeat_warm": 500, "scan_heavy": len(SCAN_ORDER), "outage_partial": 250, "serve_mixed": 200}
#: (streamed, outage) ops of the two tail probes
TAIL_OPS = {
    "adhoc_cold": (12, 12),
    "repeat_warm": (56, 40),
    "scan_heavy": (0, 10),
    "outage_partial": (56, 0),
    "serve_mixed": (12, 8),
}
NAMES = tuple(OPS_PER_ROUND)


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` with its op lists generated from ``seed``.

    ``scale`` shrinks the op lists (smoke tests run 2% of them).
    """
    if name not in OPS_PER_ROUND:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    spec = FED4X2500 if name == "scan_heavy" else FED8
    w = Workload(name, spec)
    texts = AdhocTexts(spec, rng, first_serial=0)
    # A scaled-down run also draws from fewer templates, so its warm-up shrinks.
    ranked = templates()[: _scaled(64, scale, 8)]
    streamable = [op for op in ranked if op.limit is None]
    stream_tail, outage_tail = (_scaled(count, scale, 2) for count in TAIL_OPS[name])

    if name == "adhoc_cold":
        w.warm_up = texts.batch(12)
        w.main = [texts.batch(_scaled(OPS_PER_ROUND[name], scale, 6))]
        w.stream_tail = texts.batch(stream_tail, STREAM, STREAMABLE)
        w.outage_tail = _outages(texts.batch(outage_tail, shapes=OVER_UNION), spec, rng)
    elif name == "repeat_warm":
        w.warm_up = ranked + ranked
        w.main = [zipfian_ops(ranked, _scaled(OPS_PER_ROUND[name], scale, 8), rng)]
        w.stream_tail = [op.as_kind(STREAM) for op in streamable[:stream_tail]]
        w.outage_tail = _outages(ranked[:outage_tail], spec, rng)
    elif name == "scan_heavy":
        # 29 ops carry no 95th percentile (1.4 samples beyond it); the slowest
        # shape's median is the tail a client of this workload sees.
        w.p95_label = "join"
        # The first row comes once one of four pool threads, which take turns
        # at the interpreter, has scanned its extent: after one interval (5.7 ms)
        # or, in a round where the scan did not fit its first turn, two.  The
        # op's time is the fewest intervals it can wait: its minimum.
        w.unscaled = {"ttfr_p50_ms": min}
        w.warm_up = list(SCAN_CYCLE) * (2 if scale >= 1.0 else 1)
        count = _scaled(OPS_PER_ROUND[name], scale, 4)
        w.main = [[SCAN_ORDER[i % len(SCAN_ORDER)] for i in range(count)]]
        # Outage probes over the filter scan: its partial answer embeds ~3 800 rows.
        w.outage_tail = _outages([SCAN_CYCLE[1].as_kind(QUERY)] * outage_tail, spec, rng)
    elif name == "outage_partial":
        order = list(ranked)
        rng.shuffle(order)
        count = _scaled(OPS_PER_ROUND[name], scale, 4)
        w.main = [_outages([order[i % len(order)] for i in range(count)], spec, rng)]
        w.warm_up = ranked + ranked + w.main[0][:4]
        w.stream_tail = [op.as_kind(STREAM) for op in streamable[:stream_tail]]
    else:  # serve_mixed
        # Over every op the median sits on a cliff: 45% of the ops are cache
        # hits answered in under 1 ms, the next 15% waited one 5 ms interpreter
        # switch interval behind the other client, and which side the 100th of
        # 200 falls on changes with the seed (5.4 or 3.2 ms).  The never-seen
        # texts are one cluster (planning, beside the other client's ops).
        w.clients, w.served, w.p50_label = 2, True, "adhoc"
        per_client = _scaled(OPS_PER_ROUND[name] // w.clients, scale, 10)
        adhoc = round(per_client * 0.195)
        streamed = round(per_client * 0.20)
        for client in range(w.clients):
            ops = (
                [op.as_kind(QUERY, "hot") for op in zipfian_ops(ranked, per_client - adhoc - streamed, rng)]
                + [op.as_kind(STREAM, "stream") for op in zipfian_ops(streamable, streamed, rng)]
                + [op.as_kind(QUERY, "adhoc") for op in texts.batch(adhoc, shapes=SIMILAR_COST)]
            )
            rng.shuffle(ops)
            w.main.append(ops)
        # DBA writes: 0.5% of the ops.  A write invalidates every cached plan
        # and answer, so how much re-planning follows depends on where it
        # falls: the positions are fixed, evenly spread over the clients'
        # common timeline.
        writes = max(1, round(per_client * w.clients * 0.005))
        for k in range(writes):
            ops = w.main[k % w.clients]
            ops.insert(round((k + 0.5) / writes * len(ops)), Op(WRITE, label="write"))
        # The warm-up's two writes (add, then drop) come first: each one
        # invalidates every cached plan and answer, and the main list has to
        # start with the caches the rest of the warm-up filled.
        w.warm_up = (
            [Op(WRITE, label="write")] * 2
            + ranked
            + ranked
            + [op.as_kind(STREAM) for op in streamable[:16]]
            + texts.batch(6)
        )
        # The main list's streamed submits race the other client for the
        # interpreter; first-row time is probed by one client alone.
        w.stream_tail = texts.batch(stream_tail, STREAM, STREAMABLE)
        w.outage_tail = _outages(texts.batch(outage_tail, shapes=OVER_UNION), spec, rng)
    return w
