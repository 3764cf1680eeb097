"""Rounds: build, warm up, run the seeded op list, verify, measure.

One *round* builds a fresh federation, runs an untimed warm-up that issues
every op shape at least twice (so history-driven plan choice has settled),
executes the workload's main op list under the clock, then two short *tail
probes* -- streamed queries and outage/resubmit cycles drawn from the same
workload -- that give ``ttfr_p50_ms`` and ``resubmit_p50_ms`` a meaning on the
workloads whose main list has no such op.  Every answer of every phase is
checked outside its clock -- as soon as the op returns or, with two clients,
once the phase is over -- against reference multisets computed once per run
from a fault-free, cache-off twin federation.

Noise rules (measured, see README).  (1) Every time is scaled to reference
machine speed by calibration ticks (:mod:`benchmarks.spine.calibration`): one
client's phase by the ticks run after each of its ops, the two-client phase --
no tick may hold the interpreter against the other client's query -- by those
of the single-client phases right before and after it in its round.  A time
that is whole 5 ms interpreter switch intervals whatever the machine's speed
stays as the clock read it (``Workload.unscaled``).  (2) Rounds run the
identical op list, so each op has one scaled time per round: the op's time is
the *median* of them.  Latency percentiles are taken over those per-op
medians, and ``throughput_qps``, ``rows_per_s`` and ``cpu_ms_per_query`` are
built from their sum -- the round in which every op took its median time.
They describe the query mix's intrinsic cost, not the machine's mood;
``setup_s`` is the median round.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro import AnswerCache

from benchmarks.spine import calibration, federation, layers
from benchmarks.spine.trace import Tracer
from benchmarks.spine.workloads import OUTAGE, QUERY, STREAM, WRITE, Op, Workload

#: rounds of a full untraced run; a run stops earlier once its ``--seconds``
#: are used up, but never before MIN_ROUNDS (a median wants three values)
ROUNDS = 5
MIN_ROUNDS = 3
TRACED_ROUNDS = 2
CLIENT_TIMEOUT = 120.0

References = dict[str, Counter]


@dataclass
class Sample:
    """What one op did, as its client saw it."""

    op: Op
    #: call -> every row in hand (outage ops: the partial-answer query alone)
    latency: float = 0.0
    #: call -> first row (streamed ops)
    ttfr: float | None = None
    #: Mediator.resubmit -> every row in hand (outage ops)
    resubmit: float | None = None
    #: wall and process-CPU time of the whole op (outage: both halves)
    wall: float = 0.0
    cpu: float = 0.0
    #: the answer; dropped once verified, ``row_count`` stays
    rows: list[Any] | None = None
    row_count: int = 0
    exec_calls: int = 0
    #: wrapper calls beyond the first per exec call (queries without probe joins)
    retries: int = 0
    replanned: int = 0
    partial: bool = False
    #: ServerReport times of a served op
    queue_wait: float | None = None
    execution_time: float | None = None
    stalls: int = 0
    #: why the op counts as failed (raised, refused, or answered wrongly)
    failure: str | None = None
    #: the partial answer's plan, kept for the unparse replica timing
    partial_plan: Any = None
    #: calibration ticks run when the op was checked: (thread-CPU seconds, count)
    tick: tuple[float, int] = (0.0, 0)


@dataclass
class Phase:
    """One timed phase of a round."""

    samples: list[list[Sample]]  # per client
    wall: float
    cpu: float
    #: calibration ticks that tell how fast the machine was during the phase:
    #: those run after each of its ops or, with several clients (a tick may not
    #: run beside the other client's query), those of the single-client
    #: phases right before and after it
    ticks: list[tuple[float, int]] | None = None

    @property
    def flat(self) -> list[Sample]:
        return [s for client in self.samples for s in client]

    @property
    def factor(self) -> float:
        """Scales this phase's times to reference machine speed."""
        ticks = self.ticks if self.ticks is not None else [s.tick for s in self.flat]
        return calibration.factor(ticks)


def _phase(samples: list[Sample]) -> Phase:
    """A single-client phase: wall and CPU are summed over the ops, so the
    benchmark's own answer checking and calibration stay off the clock."""
    return Phase([samples], sum(s.wall for s in samples), sum(s.cpu for s in samples))


@dataclass
class RoundResult:
    setup_s: float
    #: scales ``setup_s`` to reference machine speed (the warm-up's ticks)
    setup_factor: float
    main: Phase
    #: the tail probes (empty in traced rounds)
    stream_tail: Phase
    outage_tail: Phase
    counters: dict[str, float]
    failed: int
    attempted: int
    first_failure: str | None
    #: traced rounds only: per-layer metrics, wrap points not found, raw spans
    layer: dict[str, float] | None = None
    absent: list[str] = field(default_factory=list)
    spans: list[Any] | None = None


class Round:
    """A live federation (and server) for one round of one workload."""

    def __init__(self, workload: Workload, seed: int, refs: References):
        self.refs = refs
        cache = AnswerCache(max_entries=256) if workload.served else None
        self.fed = federation.build(workload.spec, seed, answer_cache=cache)
        self.mediator = self.fed.mediator
        self.server = (
            self.mediator.serve(workers=workload.clients, max_queue_depth=None)
            if workload.served
            else None
        )
        # DBA writes alternate add/drop whatever the client interleaving is.
        self._write_lock = threading.Lock()
        self._audit_present = False
        self.tracer: Tracer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.fed.close()

    # -- one op -------------------------------------------------------------------------
    def run(self, op: Op, served: bool = False) -> Sample:
        """Execute ``op`` under the clock; :meth:`check` must follow, off the clock."""
        sample = Sample(op)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if self.tracer is not None and op.kind != WRITE:
                with self.tracer.span("spine.op", root=True):
                    self._dispatch(op, sample, served)
            else:
                self._dispatch(op, sample, served)
        except Exception as exc:  # a raised op is a failed op, never a crashed run
            sample.failure = f"{type(exc).__name__}: {exc}"
        finally:
            sample.wall = time.perf_counter() - start
            sample.cpu = time.process_time() - cpu
            if op.kind == OUTAGE:
                for index in op.down:
                    self.fed.person_servers[index].bring_up()
        return sample

    def check(self, sample: Sample, tick: bool = True) -> Sample:
        """Verify the answer of ``sample``, drop its rows, tick the calibration kernel."""
        if sample.failure is None:
            sample.failure = verify(sample, self.refs)
        sample.row_count = len(sample.rows or ())
        sample.rows = None
        if tick:
            sample.tick = calibration.tick(sample.wall)
        return sample

    def _dispatch(self, op: Op, sample: Sample, served: bool) -> None:
        if op.kind == WRITE:
            self._write()
        elif op.kind == OUTAGE:
            self._outage(op, sample)
        elif served:
            self._served(op, sample)
        elif op.kind == QUERY:
            start = time.perf_counter()
            result = self.mediator.query(op.text)
            sample.rows = result.rows()
            sample.latency = time.perf_counter() - start
            _account(sample, result)
        elif op.kind == STREAM:
            start = time.perf_counter()
            result = self.mediator.query_stream(op.text)
            if self.tracer is not None:
                with self.tracer.span("spine.drain"):
                    sample.rows, sample.ttfr = _pull(result.iter_rows(), start)
            else:
                sample.rows, sample.ttfr = _pull(result.iter_rows(), start)
            sample.latency = time.perf_counter() - start
            _account(sample, result)
        else:
            raise ValueError(op.kind)

    def _outage(self, op: Op, sample: Sample) -> None:
        for index in op.down:
            self.fed.person_servers[index].take_down()
        start = time.perf_counter()
        partial = self.mediator.query(op.text)
        sample.latency = time.perf_counter() - start
        _account(sample, partial)
        was_partial = partial.is_partial
        sample.partial_plan = partial.partial_plan
        for index in op.down:
            self.fed.person_servers[index].bring_up()
        start = time.perf_counter()
        full = self.mediator.resubmit(partial)
        sample.rows = full.rows()
        sample.resubmit = time.perf_counter() - start
        _account(sample, full)
        sample.partial = was_partial
        if full.is_partial:
            sample.failure = "resubmission with every source up is still partial"

    def _served(self, op: Op, sample: Sample) -> None:
        assert self.server is not None
        start = time.perf_counter()
        future = self.server.submit(op.text, stream=op.kind == STREAM)
        if op.kind == STREAM:
            sample.rows, sample.ttfr = _pull(future.rows(), start)
        result = future.result(timeout=CLIENT_TIMEOUT)
        if op.kind != STREAM:
            sample.rows = result.rows()
        sample.latency = time.perf_counter() - start
        _account(sample, result)
        report = future.report
        if report is None or report.verdict != "admitted":
            sample.failure = f"refused: {report.verdict if report else 'no report'}"
            return
        sample.queue_wait = report.queue_wait
        sample.execution_time = report.execution_time
        sample.stalls = report.stalls

    def _write(self) -> None:
        with self._write_lock:
            if self._audit_present:
                self.mediator.drop_extent("audit0")
            else:
                self.mediator.add_extent("audit0", "Audit", "waudit", "r-waudit")
            self._audit_present = not self._audit_present

    # -- a phase --------------------------------------------------------------------------
    def phase(self, op_lists: list[list[Op]], served: bool = False) -> Phase:
        """Run one op list per client, closed loop.

        One client checks each answer as soon as it has it.  Several clients
        share the process's CPU clock, so there the phase is timed as a whole,
        from a common start to the last client's last answer, and the answers
        are checked once it is over: the benchmark's own work neither runs on
        that clock nor holds the interpreter against the other client's query.
        """
        if len(op_lists) == 1:
            return _phase([self.check(self.run(op, served)) for op in op_lists[0]])
        per_client: list[list[Sample]] = [[] for _ in op_lists]
        gate = threading.Barrier(len(op_lists) + 1)

        def client(index: int) -> None:
            gate.wait()
            per_client[index] = [self.run(op, served) for op in op_lists[index]]

        threads = [
            threading.Thread(target=client, args=(i,), name=f"spine-client-{i}")
            for i in range(len(op_lists))
        ]
        for thread in threads:
            thread.start()
        gate.wait()
        cpu = time.process_time()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        phase = Phase(per_client, time.perf_counter() - start, time.process_time() - cpu)
        for sample in phase.flat:
            self.check(sample, tick=False)
        return phase


_NOTHING = object()


def _pull(rows: Any, start: float) -> tuple[list[Any], float]:
    """Drain ``rows``; the second value is the time the first row took."""
    iterator = iter(rows)
    first = next(iterator, _NOTHING)
    ttfr = time.perf_counter() - start
    if first is _NOTHING:
        return [], ttfr
    collected = [first]
    collected.extend(iterator)
    return collected, ttfr


def _account(sample: Sample, result: Any) -> None:
    """Fold one QueryResult's exec reports into the op's sample."""
    sample.partial = result.is_partial
    sample.exec_calls += len(result.reports)
    sample.replanned += sum(1 for report in result.reports if report.replanned)
    if "probejoin(" not in (result.physical_plan or ""):
        sample.retries += sum(report.attempts - 1 for report in result.reports)


# -- the answer oracle ----------------------------------------------------------------------


def references(workload: Workload, seed: int) -> References:
    """Reference multiset per distinct query text, from a twin federation.

    The twin has the same data, no faults and no answer cache.  ``limit``
    shapes are referenced by their unlimited text: a limit answer must be a
    sub-multiset of it with exactly ``min(limit, len)`` rows (which rows a
    union delivers first is up to the engine).
    """
    twin = federation.build(workload.spec, seed)
    try:
        texts = {op.reference_text for op in workload.all_ops if op.kind != WRITE}
        return {text: Counter(twin.mediator.query(text).rows()) for text in sorted(texts)}
    finally:
        twin.close()


def verify(sample: Sample, refs: References) -> str | None:
    """Why ``sample`` counts as failed, or None when it answered correctly."""
    op = sample.op
    if op.kind == WRITE:
        return None
    if op.kind == OUTAGE:
        if not sample.partial:
            return "expected a partial answer with sources down"
    elif sample.partial:
        return "partial answer with every source up"
    want = refs[op.reference_text]
    rows = sample.rows or []
    got = Counter(rows)
    if op.limit is None:
        return None if got == want else f"wrong answer: {len(rows)} rows, expected {sum(want.values())}"
    expected = min(op.limit, sum(want.values()))
    if len(rows) != expected or got - want:
        return f"wrong limit answer: {len(rows)} rows, expected {expected} drawn from the reference"
    return None


# -- one round ------------------------------------------------------------------------------


def run_round(
    workload: Workload, seed: int, refs: References, traced: bool, keep_spans: bool = False
) -> RoundResult:
    """One round; traced rounds skip the tail probes and return layer metrics."""
    setup_start = time.perf_counter()
    live = Round(workload, seed, refs)
    try:
        warm = [live.check(live.run(op, served=workload.served)) for op in workload.warm_up]
        setup_s = time.perf_counter() - setup_start
        tracer = layers.install(live) if traced else None
        before = layers.counters(live)
        try:
            live.tracer = tracer
            main = live.phase(workload.main, served=workload.served)
        finally:
            live.tracer = None
            if tracer is not None:
                tracer.restore()
        counted = layers.counter_delta(before, layers.counters(live), main.flat)
        stream_tail = outage_tail = _phase([])
        if not traced:
            stream_tail = live.phase([workload.stream_tail], served=workload.served)
            outage_tail = live.phase([workload.outage_tail])
        if workload.clients > 1:
            main.ticks = [s.tick for s in warm + stream_tail.flat + outage_tail.flat]
        layer = layers.metrics(live, tracer, main, counted) if tracer is not None else None
    finally:
        live.close()
    checked = warm + main.flat + stream_tail.flat + outage_tail.flat
    failures = [f"{s.failure} -- {s.op.text or s.op.kind}" for s in checked if s.failure is not None]
    return RoundResult(
        setup_s=setup_s,
        setup_factor=calibration.factor([s.tick for s in warm]),
        main=main,
        stream_tail=stream_tail,
        outage_tail=outage_tail,
        counters=counted,
        failed=len(failures),
        attempted=len(checked),
        first_failure=failures[0] if failures else None,
        layer=layer,
        absent=tracer.absent if tracer is not None else [],
        spans=tracer.spans if tracer is not None and keep_spans else None,
    )


# -- statistics over rounds -----------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Percentile of ``values`` (``share`` in 0..1), linear between ranks."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def per_op(rounds: list[list[float]], summary: Any = statistics.median) -> list[float]:
    """Element-wise ``summary`` (the median) across rounds of identical op lists."""
    return [summary(column) for column in zip(*rounds)]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaled(phase: Phase, value: Any, normalised: bool) -> list[float]:
    """``value(sample)`` of the phase's samples that have one, at reference speed."""
    factor = phase.factor if normalised else 1.0
    return [v * factor for s in phase.flat if (v := value(s)) is not None]


def _latency_series(label: str | None) -> Any:
    """Latencies of the main list's queries, of one traffic class or of all."""

    def series(r: RoundResult, normalised: bool) -> list[float]:
        def latency(s: Sample) -> float | None:
            if s.op.kind == WRITE or (label is not None and s.op.label != label):
                return None
            return s.latency

        return _scaled(r.main, latency, normalised)

    return series


def _tail_or_main(attribute: str, tail: str) -> Any:
    """A time of the tail probe's ops, else the same time of the main list's."""

    def series(r: RoundResult, normalised: bool) -> list[float]:
        probe = _scaled(getattr(r, tail), lambda s: getattr(s, attribute), normalised)
        return probe or _scaled(r.main, lambda s: getattr(s, attribute), normalised)

    return series


def end_to_end(
    workload: Workload, rounds: list[RoundResult], normalised: bool = True
) -> tuple[dict[str, float], dict[str, list[float]], dict[str, dict[str, int]]]:
    """The end-to-end metrics of an untraced run.

    Returns the values, each metric's per-round series (what one round alone
    would have reported), and for each latency percentile the number of per-op
    samples behind it (``n``) and beyond it (``beyond``).  ``normalised=False``
    gives every time as the clock read it, for the record.
    """
    ops = len(rounds[0].main.flat)
    rows = sum(s.row_count for s in rounds[0].main.flat)
    factors = [r.main.factor if normalised else 1.0 for r in rounds]
    if workload.clients == 1:
        # The round in which every op took its median time.
        wall = sum(per_op([_scaled(r.main, lambda s: s.wall, normalised) for r in rounds]))
        cpu = sum(per_op([_scaled(r.main, lambda s: s.cpu, normalised) for r in rounds]))
    else:
        # Concurrent clients: per-op CPU cannot be told apart and the phase
        # ends with its slowest client, so the median round stands in.
        wall = statistics.median(r.main.wall * f for r, f in zip(rounds, factors))
        cpu = statistics.median(r.main.cpu * f for r, f in zip(rounds, factors))
    attempted = sum(r.attempted for r in rounds)
    values = {
        "setup_s": statistics.median(r.setup_s * (r.setup_factor if normalised else 1.0) for r in rounds),
        "throughput_qps": ops / wall,
        "rows_per_s": rows / wall,
        "cpu_ms_per_query": 1000.0 * cpu / ops,
        "peak_rss_mb": peak_rss_mb(),
        "answered_share": (attempted - sum(r.failed for r in rounds)) / attempted,
    }
    per_round = {
        "setup_s": [r.setup_s * (r.setup_factor if normalised else 1.0) for r in rounds],
        "throughput_qps": [ops / (r.main.wall * f) for r, f in zip(rounds, factors)],
        "rows_per_s": [rows / (r.main.wall * f) for r, f in zip(rounds, factors)],
        "cpu_ms_per_query": [1000.0 * r.main.cpu * f / ops for r, f in zip(rounds, factors)],
    }
    latency_series = {
        # A workload may name the class its median is taken over (serve_mixed:
        # the never-seen texts) and, where its list is too short for a 95th
        # percentile, the shape whose median stands in for it (scan_heavy: the
        # joins).
        "query_p50_ms": (_latency_series(workload.p50_label), 0.50),
        "query_p95_ms": (_latency_series(workload.p95_label), 0.50 if workload.p95_label else 0.95),
        "resubmit_p50_ms": (_tail_or_main("resubmit", "outage_tail"), 0.50),
        "ttfr_p50_ms": (_tail_or_main("ttfr", "stream_tail"), 0.50),
    }
    samples = {}
    for name, (series, share) in latency_series.items():
        # A time that is whole interpreter switch intervals is not scaled, and
        # the workload says how an op's rounds combine (see Workload.unscaled).
        across_rounds = workload.unscaled.get(name)
        by_round = [[1000.0 * v for v in series(r, normalised and across_rounds is None)] for r in rounds]
        values[name] = percentile(per_op(by_round, across_rounds or statistics.median), share)
        per_round[name] = [percentile(one, share) for one in by_round]
        count = len(by_round[0])
        samples[name] = {"n": count, "beyond": count - 1 - int(share * (count - 1))}
    return values, per_round, samples


def per_layer(reference: RoundResult, traced: list[RoundResult]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are scaled to reference machine speed and averaged over the traced
    rounds; counts and rates are the last round's.  ``reference`` is the
    untraced round of the same process that the tracing overhead is measured
    against.
    """
    layered = [(r.layer, r.main.factor) for r in traced if r.layer is not None]
    out = dict(layered[-1][0])
    for name in out:
        if name.endswith("_ms"):
            out[name] = statistics.fmean(layer[name] * factor for layer, factor in layered)
    traced_cpu = statistics.fmean(r.main.cpu * r.main.factor for r in traced)
    out["spine.trace_overhead_share"] = traced_cpu / (reference.main.cpu * reference.main.factor) - 1.0
    out["spine.machine_speed"] = statistics.fmean(factor for _, factor in layered)
    return out


def determinism(workload: Workload, rounds: list[RoundResult]) -> dict[str, Any]:
    """Same seed, same counts: asserted on the single-client workloads.

    With concurrent clients the interleaving moves cache hits and evictions
    around, so ``serve_mixed`` reports the spread instead.  Rows shipped are
    reported, not asserted, everywhere: the cost model ranks plans by
    *measured* exec latencies, which at zero simulated latency is scheduler
    noise, so which sources get a pushed-down filter differs round to round.
    """
    spread = {
        name: sorted({r.counters[name] for r in rounds})
        for name in layers.DETERMINISTIC + layers.PLAN_DEPENDENT
    }
    varying = {name: values for name, values in spread.items() if len(values) > 1}
    shown = ", ".join(f"{n} {v[0]:g}..{v[-1]:g}" for n, v in varying.items()) or "none"
    broken = [name for name in varying if name in layers.DETERMINISTIC]
    if workload.clients > 1:
        summary = f"not asserted with {workload.clients} clients; varied across rounds: {shown}"
    elif broken:
        summary = f"FAILED, counters differ across rounds: {shown}"
    else:
        summary = (
            f"{len(layers.DETERMINISTIC)} counters identical across {len(rounds)} rounds; "
            f"plan-choice dependent, varied: {shown}"
        )
    return {"ok": workload.clients > 1 or not broken, "summary": summary, "varying": varying}
