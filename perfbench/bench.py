"""Set-ups, the timed pass, the answer oracle and the traced replay.

Every pass a measurement times runs on the first system built in its
process: a discarded system stays reachable after ``close()`` and a
full collection, and each later build in the same process runs
measurably slower.  So the traced run replays the stream in its own
process against a record the untraced pass wrote from another
(``record``); only the oracle's fresh build, whose timing feeds
nothing but ``setup_s``, is a second build.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import statistics
import sys
import time
import traceback

import replay
import workload as W
from repro.obs import MetricsRegistry, set_default_registry
from repro.perf.window import RECORD_ID, windows_for

QUICK_QUESTIONS = 60
QUICK_PROBE_WRITES = 20

#: Seconds between two timings of the reference loop during a pass.
SPEED_INTERVAL = 0.1
#: Reference timings on each side of a segment whose median scales it.
SPEED_WINDOW = 6
#: A segment is a burst when a reference timing at either end of it
#: exceeds that median by this factor; percentiles leave its ops out.
BURST = 1.3
#: The reference loop's time on a quiet machine of the kind this
#: benchmark was tuned on (2-core Xeon at 2.1 GHz, Python 3.11).
NOMINAL_REFERENCE_S = 0.00105


def error(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p99(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def _reference_work() -> float:
    """A fixed slice of interpreter work: build, sort and scan dicts."""
    rows = [
        {"id": i, "price": (i * 7919) % 10007 * 1.5, "name": "x%d" % (i % 97)}
        for i in range(1500)
    ]
    rows.sort(key=lambda row: (row["name"], row["price"]))
    total = 0.0
    for row in rows:
        if row["price"] > 5000.0:
            total += row["price"] ** 0.5
    return total


def reference_seconds() -> float:
    """The fastest of three timings of :func:`_reference_work`, with the
    cyclic collector off so that a collection the program owes does
    not land in the reference."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - began)
    finally:
        if collecting:
            gc.enable()
    return best


class SpeedClock:
    """Wall time scaled to the machine's nominal speed.

    The machine this benchmark runs on slows all code down, for seconds
    to minutes at a time, by up to 1.8x, in wall and CPU time alike.
    So the reference loop is timed between operations, at most every
    ``SPEED_INTERVAL`` seconds, and the time between two such marks is
    scaled by ``NOMINAL_REFERENCE_S`` over the median of the
    ``2 * SPEED_WINDOW`` reference timings around it: one timing is off
    by up to a tenth even on a quiet machine, the slow spells last
    longer than the window.  Bursts shorter than the window are not
    scaled away, so a segment whose own reference timings show one is
    marked (:meth:`burst`) for the percentiles to leave out.  The time
    spent in the reference loop itself falls between segments and
    counts nowhere.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []  # (before, reference, after)
        self._factors: list[float] = []
        self._bursts: list[bool] = []
        self.mark(force=True)

    def mark(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self.marks[-1][2] < SPEED_INTERVAL:
            return
        reference = reference_seconds()
        self.marks.append((now, reference, time.perf_counter()))

    def _settle(self) -> None:
        if len(self._factors) == len(self.marks):
            return
        references = [reference for _, reference, _ in self.marks]
        last = len(references) - 1
        self._factors, self._bursts = [], []
        for index in range(len(references)):
            local = statistics.median(
                references[max(0, index + 1 - SPEED_WINDOW):index + 1 + SPEED_WINDOW]
            )
            self._factors.append(NOMINAL_REFERENCE_S / local)
            ends = max(references[index], references[min(index + 1, last)])
            self._bursts.append(ends > BURST * local)

    def factor(self, segment: int) -> float:
        """The scale of the time between mark *segment* and the next."""
        self._settle()
        return self._factors[segment]

    def burst(self, segment: int) -> bool:
        """Whether the machine ran in a burst during *segment*."""
        self._settle()
        return self._bursts[segment]

    def segment(self) -> int:
        """The segment the clock is in now (the one after the last mark)."""
        return len(self.marks) - 1

    def scaled(self, start: float, end: float, calm: bool = False) -> float:
        """Scaled seconds of the interval [*start*, *end*]; reference
        timings inside it, and with *calm* bursts, are left out."""
        total = 0.0
        for index, (_, _, began) in enumerate(self.marks):
            ended = self.marks[index + 1][0] if index + 1 < len(self.marks) else end
            overlap = min(end, ended) - max(start, began)
            if overlap > 0 and not (calm and self.burst(index)):
                total += overlap * self.factor(index)
        return total

    def speeds(self) -> list[float]:
        return [NOMINAL_REFERENCE_S / reference for _, reference, _ in self.marks]


def kind_breakdown(kinds: list[str], samples: list[float]) -> dict:
    """Question count and p50 per question kind (a diagnostic)."""
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(kinds, samples):
        by_kind.setdefault(kind, []).append(elapsed)
    return {
        kind: {"count": len(values), "p50_ms": round(_ms(statistics.median(values)), 4)}
        for kind, values in sorted(by_kind.items())
    }


class Bench:
    """One workload and seed: builds systems and drives the op stream."""

    def __init__(self, workload, seed: int, quick: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.failed = 0

    # -- set-up ---------------------------------------------------------
    def setup(self):
        """Build the system and answer every distinct question once.

        Returns ``(system, service, pools, seconds)``; the seconds are
        scaled (:class:`SpeedClock`) and exclude generating the question
        pool, which is the benchmark's own work.
        """
        clock = SpeedClock()
        started = time.perf_counter()
        system = W.build(self.workload, self.seed)
        service = system.service()
        built = time.perf_counter()
        clock.mark(force=True)
        pools = W.question_pools(system, self.workload, self.seed)
        clock.mark(force=True)
        warming = time.perf_counter()
        for question in self.distinct(pools):
            clock.mark()
            self.attempt(service.answer, question.request())
        warmed = time.perf_counter()
        clock.mark(force=True)
        return system, service, pools, clock.scaled(started, built) + clock.scaled(warming, warmed)

    @staticmethod
    def distinct(pools):
        return [question for pool in pools.values() for question in pool]

    @staticmethod
    def discard(system) -> None:
        system.close()
        gc.collect()

    def attempt(self, call, *args):
        """``(True, call(*args))``, or ``(False, None)`` when it raised."""
        try:
            return True, call(*args)
        except Exception:
            if not self.failed:
                error(f"{getattr(call, '__name__', call)}{args!r} raised:\n"
                      f"{traceback.format_exc()}")
            self.failed += 1
            return False, None

    # -- the timed pass -------------------------------------------------
    def run_pass(self, system, pools, answer, write, digest=None,
                 seconds=None, questions=None, probe_writes=None):
        """Ask questions with ``answer(question, op)``, and after every
        ``write_every`` of them make one ``write(w, op)``, until
        *seconds* pass or *questions* were asked; then make the
        workload's probe writes, with an untimed question after every
        ``probe_writes_per_question`` of them.  ``digest(result,
        elapsed)`` runs untimed after each answer and its values are
        kept.

        Op times in the returned ``q`` and ``w`` are scaled by a
        :class:`SpeedClock`, ``q_calm`` and ``w_calm`` are those outside
        bursts, and ``q_raw`` and ``w_raw`` are the wall times.
        """
        stream = W.question_stream(pools, self.seed)
        writes = W.WriteSource(system, self.workload, self.seed)
        every = self.workload.write_every
        if questions is None and self.quick:
            questions = QUICK_QUESTIONS
        if probe_writes is None:
            probe_writes = (
                min(QUICK_PROBE_WRITES, self.workload.write_probe)
                if self.quick else self.workload.write_probe
            )
        clock = SpeedClock()
        # Per op: (wall seconds, clock segment).
        timed = {"q": [], "w": []}
        run = {"writes": [], "kinds": [], "digests": [], "probe_writes": probe_writes}
        ops = itertools.count()

        def timed_write():
            planned = writes.next()
            clock.mark()
            began = time.perf_counter()
            landed, result = self.attempt(write, planned, next(ops))
            elapsed = time.perf_counter() - began
            if landed:
                writes.applied(planned, result)
                timed["w"].append((elapsed, clock.segment()))
                run["writes"].append(planned)

        started = time.perf_counter()
        while True:
            if questions is not None:
                if len(timed["q"]) >= questions:
                    break
            elif time.perf_counter() - started >= seconds:
                break
            question = next(stream)
            clock.mark()
            began = time.perf_counter()
            _, result = self.attempt(answer, question, next(ops))
            elapsed = time.perf_counter() - began
            timed["q"].append((elapsed, clock.segment()))
            run["kinds"].append(question.kind)
            if digest is not None:
                run["digests"].append(digest(result, elapsed) if result is not None else None)
            if every and len(timed["q"]) % every == 0:
                timed_write()
        ended = time.perf_counter()
        # Untimed questions between probe writes keep the stream mixed,
        # so that the collections the interpreter owes fall on questions
        # as well as on writes: with writes alone, every collection
        # lands in a write and the p99 of writes sits on the edge of the
        # ~1% that pay for one.
        for index in range(1, probe_writes + 1):
            timed_write()
            if index % self.workload.probe_writes_per_question == 0:
                self.attempt(answer, next(stream), next(ops))
        clock.mark(force=True)
        for key, samples in timed.items():
            run[key + "_raw"] = [elapsed for elapsed, _ in samples]
            run[key] = [elapsed * clock.factor(segment) for elapsed, segment in samples]
            run[key + "_calm"] = [
                elapsed * clock.factor(segment)
                for elapsed, segment in samples
                if not clock.burst(segment)
            ]
        run["wall_calm"] = clock.scaled(started, ended, calm=True)
        run["wall_raw"] = ended - started
        run["speeds"] = clock.speeds()
        return run

    def untraced(self, system, service, pools, seconds, digest=None):
        return self.run_pass(
            system,
            pools,
            lambda question, op: service.answer(question.request()),
            lambda planned, op: W.apply_write(system, planned),
            digest=digest,
            seconds=seconds,
        )

    # -- the answer oracle ----------------------------------------------
    def signatures(self, service, pools, clock=None) -> dict[str, str | None]:
        out = {}
        for question in self.distinct(pools):
            if clock is not None:
                clock.mark()
            ok, result = self.attempt(service.answer, question.request())
            out[question.text] = replay.signature(*replay.result_parts(result)) if ok else None
        return out

    def oracle(self, warm: dict, writes: list) -> tuple[int, float]:
        """Answer every distinct question on a fresh build that saw the
        write log and no questions, so every cache is built cold over
        the final rows; returns ``(mismatches, scaled set-up seconds)``."""
        clock = SpeedClock()
        started = time.perf_counter()
        system = W.build(self.workload, self.seed)
        service = system.service()
        built = time.perf_counter()
        clock.mark(force=True)
        pools = W.question_pools(system, self.workload, self.seed)
        for planned in writes:
            self.attempt(W.apply_write, system, planned)
        clock.mark(force=True)
        answering = time.perf_counter()
        cold = self.signatures(service, pools, clock)
        answered = time.perf_counter()
        clock.mark(force=True)
        mismatches = sum(cold[text] is None or warm[text] != cold[text] for text in cold)
        if mismatches:
            error(f"answer oracle: {mismatches} of {len(cold)} answers differ")
        self.discard(system)
        return mismatches, clock.scaled(started, built) + clock.scaled(answering, answered)


def _latencies(prefix: str, samples: list[float]) -> dict:
    if not samples:
        return {}
    return {
        f"{prefix}_p50_ms": (_ms(statistics.median(samples)), "ms"),
        f"{prefix}_p99_ms": (_ms(_p99(samples)), "ms"),
    }


def measure(workload, seed: int, seconds: float, quick: bool) -> dict:
    """The untraced run: end-to-end metrics and the answer oracle."""
    bench = Bench(workload, seed, quick)
    system, service, pools, setup_s = bench.setup()
    setups = [setup_s]
    gc.collect()
    run = bench.untraced(system, service, pools, seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm = bench.signatures(service, pools)
    bench.discard(system)
    mismatches, setup_s = bench.oracle(warm, run["writes"])
    setups.append(setup_s)
    questions = run["q"]
    metrics = {
        **_latencies("question", run["q_calm"]),
        "questions_per_s": (len(run["q_calm"]) / run["wall_calm"], "1/s"),
        **_latencies("write", run["w_calm"]),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    raw = {
        **_latencies("question", run["q_raw"]),
        "questions_per_s": (len(questions) / run["wall_raw"], "1/s"),
        **_latencies("write", run["w_raw"]),
    }
    speeds = run["speeds"]
    counts = {
        "questions": len(questions),
        "writes": len(run["w"]),
        "oracle_questions": len(warm),
        "setups": len(setups),
        "speed_marks": len(speeds),
        "calm_questions": len(run["q_calm"]),
        "calm_writes": len(run["w_calm"]),
    }
    return {
        "metrics": metrics,
        "attempted": len(questions) + len(run["w"]) + len(warm),
        "failed": bench.failed + mismatches,
        "counts": counts,
        "kinds": kind_breakdown(run["kinds"], questions),
        "unscaled": {
            "metrics": {name: round(value, 4) for name, (value, _) in raw.items()},
            "speed": {
                "median": round(statistics.median(speeds), 4),
                "min": round(min(speeds), 4),
                "max": round(max(speeds), 4),
            },
        },
    }


def record(workload, seed: int, seconds: float, quick: bool, path) -> int:
    """The untraced pass of a traced run: write what the replay needs —
    the question and probe-write counts, each answer's signature and
    pipeline-external time, and the op timings — to *path*."""
    bench = Bench(workload, seed, quick)
    system, service, pools, _ = bench.setup()
    gc.collect()
    run = bench.untraced(
        system, service, pools, seconds,
        digest=lambda result, elapsed: (
            replay.signature(*replay.result_parts(result)),
            elapsed - result.elapsed_seconds,
        ),
    )
    bench.discard(system)
    path.write_text(json.dumps({
        "questions": len(run["q"]),
        "probe_writes": run["probe_writes"],
        "q": run["q"],
        "w": run["w"],
        "kinds": run["kinds"],
        "digests": run["digests"],
        "failed": bench.failed,
    }))
    return 0


def trace(workload, seed: int, recorded: dict, quick: bool) -> tuple[dict, replay.Tracer]:
    """The traced run: replay the recorded stream on a fresh build,
    layer by layer, and derive the per-layer metrics from the spans."""
    registry = MetricsRegistry()
    set_default_registry(registry)
    bench = Bench(workload, seed, quick)
    system, _, pools, _ = bench.setup()
    engine = system.cqads
    fragments = engine.fragment_cache
    before = registry.snapshot()
    fragment_before = (fragments.hits, fragments.misses, fragments.evictions)
    tracer = replay.Tracer()
    counts = replay.LayerCounts()

    def traced_write(planned, op):
        with tracer.span(f"write.{planned.kind}", op):
            return W.apply_write(system, planned)

    gc.collect()
    run = bench.run_pass(
        system,
        pools,
        lambda question, op: replay.answer_traced(engine, question, tracer, op, counts),
        traced_write,
        digest=lambda parts, elapsed: replay.signature(*parts),
        questions=recorded["questions"],
        probe_writes=recorded["probe_writes"],
    )
    after = registry.snapshot()
    expected = [digest[0] if digest else None for digest in recorded["digests"]]
    mismatches = sum(
        got is None or got != want for got, want in zip(run["digests"], expected)
    )
    if mismatches:
        error(f"traced replay: {mismatches} answers differ from AnswerService")

    questions = max(counts.questions, 1)
    relaxed = max(counts.relaxed, 1)
    self_times = tracer.self_times()

    def per_question_ms(name):
        return _ms(self_times.get(name, 0.0)) / questions

    def cache_requests(snapshot, cache, outcome):
        return snapshot.counter_value("repro_cache_requests_total", cache=cache, outcome=outcome)

    def replay_ratio(cache):
        hits = cache_requests(after, cache, "hit") - cache_requests(before, cache, "hit")
        misses = cache_requests(after, cache, "miss") - cache_requests(before, cache, "miss")
        return hits / (hits + misses) if hits + misses else 0.0

    def scatter(snapshot):
        samples = [h for h in snapshot.histograms if h.name == "repro_shard_scatter_seconds"]
        return sum(h.sum for h in samples), sum(h.count for h in samples)

    def write_ms(kind):
        durations = tracer.durations(f"write.{kind}")
        return _ms(statistics.mean(durations)) if durations else 0.0

    fragment_hits = fragments.hits - fragment_before[0]
    fragment_misses = fragments.misses - fragment_before[1]
    rows_max_over_mean = 1.0
    window_rebuilds = 0
    for table in engine.database:
        windows = windows_for(table)
        for column in [*table.schema.column_names(), RECORD_ID]:
            window_rebuilds += windows.rebuild_count(column)
        shards = getattr(table, "shards", None)
        if shards:
            sizes = [len(shard) for shard in shards]
            rows_max_over_mean = max(sizes) / (sum(sizes) / len(sizes))
    api = [digest[1] for digest in recorded["digests"] if digest]
    untraced_wall = sum(recorded["q"]) + sum(recorded["w"])
    traced_wall = sum(run["q"]) + sum(run["w"])
    metrics = {
        "classify.ms": (per_question_ms("classify"), "ms"),
        "tag.ms": (per_question_ms("tag"), "ms"),
        "interpret.ms": (per_question_ms("interpret"), "ms"),
        "execute.ms": (per_question_ms("execute"), "ms"),
        "execute.rows": (counts.execute_rows / questions, "rows"),
        **{
            f"execute.path.{path}": (counts.paths[path] / questions, "count")
            for path in replay.ACCESS_PATHS
        },
        "candidates.ms": (per_question_ms("candidates"), "ms"),
        "candidates.pool_rows": (counts.pool_rows / relaxed, "rows"),
        "fragment.hit_ratio": (
            fragment_hits / (fragment_hits + fragment_misses)
            if fragment_hits + fragment_misses else 0.0,
            "ratio",
        ),
        "fragment.entries": (len(fragments), "count"),
        "fragment.evictions": (fragments.evictions - fragment_before[2], "count"),
        "rank.ms": (per_question_ms("rank"), "ms"),
        "rank.rows_scored": (counts.pool_rows / questions, "rows"),
        "rank.whole_table_share": (counts.whole_table / relaxed, "ratio"),
        "relax.skipped_share": (1.0 - counts.relaxed / questions, "ratio"),
        "window.hit_ratio": (replay_ratio("window"), "ratio"),
        "window.rebuilds": (window_rebuilds, "count"),
        "write.update_ms": (write_ms("update"), "ms"),
        "write.insert_ms": (write_ms("insert"), "ms"),
        "write.delete_ms": (write_ms("delete"), "ms"),
        "plan.lookups": (
            sum(cache_requests(after, "plan", outcome) for outcome in ("hit", "miss")),
            "count",
        ),
        "shard.scatter_ms": (_ms(scatter(after)[0] - scatter(before)[0]) / questions, "ms"),
        "shard.scatter_calls": ((scatter(after)[1] - scatter(before)[1]) / questions, "count"),
        "shard.rows_max_over_mean": (rows_max_over_mean, "ratio"),
        "api.ms": (_ms(statistics.mean(api)) if api else 0.0, "ms"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
    }
    bench.discard(system)
    outcome = {
        "metrics": metrics,
        "attempted": len(run["q"]) + len(run["w"]),
        "failed": recorded["failed"] + bench.failed + mismatches,
        "counts": {
            "questions": len(run["q"]),
            "writes": len(run["w"]),
            "spans": len(tracer.spans),
            "replay_mismatches": mismatches,
        },
        "kinds": kind_breakdown(recorded["kinds"], recorded["q"]),
    }
    return outcome, tracer
