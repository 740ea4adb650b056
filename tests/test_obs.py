"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the three submodules (registry, trace, export) in isolation,
the satellite wiring (plan-trace drop accounting, recovery metrics),
concurrent requests' separate trees, and the integration
acceptance criterion: one traced request through a sharded,
WAL-backed system yields a single connected span tree covering
stage → executor leaf → shard scatter → cache → WAL spans.

Hook-driven metrics land in the **process-default** registry, so every
test that asserts on them installs a fresh registry and restores the
previous one afterwards (the ``registry`` fixture).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import AnswerRequest, SystemBuilder
from repro.datagen.questions import make_generator
from repro.obs import (
    CACHE_FAMILIES,
    InMemoryTraceSink,
    MetricsRegistry,
    Observability,
    Tracer,
    current_span,
    parse_prometheus_text,
    render_prometheus,
    set_default_registry,
    span,
)
from repro.obs.registry import Histogram
from tests.conftest import SMALL_CAR_ROWS, run_together, small_car_schema


@pytest.fixture()
def registry():
    """A fresh process-default registry, restored on teardown."""
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


# ----------------------------------------------------------------------
# registry: counters, gauges, histograms
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create_and_label_canonicalisation(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", cache="answer", outcome="hit")
        b = registry.counter("hits", outcome="hit", cache="answer")
        assert a is b  # keyword order is canonicalised away
        a.inc()
        a.value += 2
        snapshot = registry.snapshot()
        assert snapshot.counter_value("hits", cache="answer", outcome="hit") == 3
        assert snapshot.counter_value("hits", cache="answer", outcome="miss") == 0
        assert len(registry) == 1

    def test_kind_mismatch_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError, match="registered as Counter"):
            registry.histogram("thing")
        with pytest.raises(TypeError, match="registered as Counter"):
            registry.gauge("thing")

    def test_callback_gauge_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        depth = [0]
        registry.gauge_fn("queue_depth", lambda: depth[0])
        depth[0] = 7
        assert registry.snapshot().gauges[0].value == 7.0

        def dead():
            raise RuntimeError("gone")

        registry.gauge_fn("broken", dead)
        broken = registry.snapshot().gauges[1]
        assert math.isnan(broken.value)  # a dead callback can't kill snapshots

    def test_histogram_percentiles(self):
        histogram = Histogram("latency")
        assert histogram.percentile(0.5) is None
        for _ in range(98):
            histogram.observe(0.0002)  # le=0.00025 bucket
        histogram.observe(0.08)  # le=0.1
        histogram.observe(20.0)  # +Inf overflow
        p50 = histogram.percentile(0.50)
        assert p50 is not None and 0.0001 <= p50 <= 0.00025
        assert histogram.percentile(0.99) == pytest.approx(0.1)
        # +Inf observations report the largest finite bound, not inf.
        assert histogram.percentile(1.0) == histogram.buckets[-1]
        assert histogram.count == 100
        sample = histogram.sample()
        assert sample.percentile(0.50) == p50  # frozen side agrees
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_snapshot_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc()
        registry.histogram("h").observe(0.003)
        payload = registry.snapshot().as_dict()
        assert payload["counters"] == {"c{kind=x}": 1}
        assert payload["histograms"]["h"]["count"] == 1
        assert set(payload["histograms"]["h"]) == {"count", "sum", "p50", "p95", "p99"}


# ----------------------------------------------------------------------
# export: Prometheus text render + parse
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("repro_cache_requests_total", cache="plan", outcome="hit").inc(4)
        registry.gauge("repro_queue_depth").set(3)
        registry.histogram("repro_stage_seconds", stage="execute").observe(0.004)
        rendered = render_prometheus(registry)
        assert "# TYPE repro_cache_requests_total counter" in rendered
        assert "# TYPE repro_stage_seconds histogram" in rendered
        parsed = parse_prometheus_text(rendered)
        assert parsed["types"]["repro_stage_seconds"] == "histogram"
        key = ("repro_cache_requests_total", (("cache", "plan"), ("outcome", "hit")))
        assert parsed["samples"][key] == 4.0
        # Cumulative buckets: +Inf equals _count.
        inf_key = ("repro_stage_seconds_bucket", (("le", "+Inf"), ("stage", "execute")))
        count_key = ("repro_stage_seconds_count", (("stage", "execute"),))
        assert parsed["samples"][inf_key] == parsed["samples"][count_key] == 1.0

    def test_label_escaping_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c", q='say "hi"\n\\now').inc()
        parsed = parse_prometheus_text(render_prometheus(registry))
        ((_, labels),) = [k for k in parsed["samples"]]
        assert dict(labels)["q"] == 'say "hi"\n\\now'

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("what even is this line")
        with pytest.raises(ValueError):
            parse_prometheus_text('c{unquoted=oops} 1')

    def test_render_accepts_snapshot_too(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert render_prometheus(registry.snapshot()) == render_prometheus(registry)

    def test_stats_check_requires_every_stage(self):
        from repro.__main__ import _check_stats_export

        registry = MetricsRegistry()
        for stage in ("classify", "tag", "interpret", "execute"):
            registry.histogram("repro_stage_seconds", stage=stage).observe(0.001)
        failures = _check_stats_export(render_prometheus(registry))
        stage_failures = [f for f in failures if f.startswith("stage ")]
        assert stage_failures == ["stage 'relax' recorded no latencies"]


# ----------------------------------------------------------------------
# trace: spans, sinks, slow log
# ----------------------------------------------------------------------
class TestTrace:
    def test_span_without_trace_is_a_shared_noop(self):
        assert current_span() is None
        first = span("anything", key="value")
        second = span("else")
        assert first is second  # the shared null context
        with first as node:
            assert node is None
        assert current_span() is None

    def test_trace_builds_one_connected_tree(self):
        sink = InMemoryTraceSink()
        tracer = Tracer([sink])
        with tracer.trace("request", question="q") as root:
            with span("stage.execute") as stage:
                stage.set_attribute("rows", 3)
                stage.add_event("cache", cache="window", outcome="hit")
                with span("executor.evaluate"):
                    pass
            # tracer.trace nests as a child when a span is active
            with tracer.trace("inner"):
                pass
        assert sink.last() is root  # exported exactly once, on root exit
        assert len(sink.roots) == 1
        names = [node.name for node in root.walk()]
        assert names == ["request", "stage.execute", "executor.evaluate", "inner"]
        assert {node.trace_id for node in root.walk()} == {root.trace_id}
        assert root.find("executor.evaluate").parent_id == root.find("stage.execute").span_id
        assert root.event_names() == ["cache"]
        assert root.end is not None
        payload = root.as_dict()
        assert payload["children"][0]["attributes"]["rows"] == 3
        assert "stage.execute" in root.describe()

    def test_exceptions_are_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.trace("request") as root:
                with span("stage.boom"):
                    raise ValueError("no")
        assert root.attributes["error"] == "ValueError"
        assert root.find("stage.boom").attributes["error"] == "ValueError"
        assert current_span() is None  # context fully unwound

    def test_slow_query_log(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        tracer = Tracer(slow_threshold_s=0.0, slow_log_path=str(path))
        with tracer.trace("request", question="slow one"):
            pass
        assert len(tracer.slow_roots) == 1
        assert tracer.slow_roots[0].attributes["slow"] is True
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["attributes"]["question"] == "slow one"

    def test_fast_threshold_keeps_quick_requests_out(self):
        tracer = Tracer(slow_threshold_s=60.0)
        with tracer.trace("request"):
            pass
        assert tracer.slow_roots == []

    def test_broken_sink_does_not_fail_the_request(self):
        class Broken:
            def export(self, root):
                raise RuntimeError("sink died")

        good = InMemoryTraceSink()
        tracer = Tracer([Broken(), good])
        with tracer.trace("request"):
            pass
        assert len(good.roots) == 1


# ----------------------------------------------------------------------
# satellites: the plan summary's wording, recovery metrics, the
# fragment cache's size gauges
# ----------------------------------------------------------------------
class TestPlanTraceDrop:
    """The plan trace has no cap, so nothing is ever dropped from it."""

    def test_empty_trace_without_drops_keeps_the_old_wording(self):
        from repro.db.database import Database
        from repro.db.sql.executor import SQLExecutor

        assert SQLExecutor(Database()).plan_summary() == "no planned leaves"


class TestRecoveryMetrics:
    def _durable_directory(self, tmp_path) -> str:
        from repro.db.database import Database
        from repro.store import WalBackend

        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        table = database.create_table(small_car_schema())
        table.insert_many([dict(row) for row in SMALL_CAR_ROWS])
        database.storage.close()
        return directory

    def test_damage_taxonomy_and_phase_timings(self, tmp_path, registry):
        from repro.store import recover_database
        from repro.store.snapshot import wal_path

        directory = self._durable_directory(tmp_path)
        with open(wal_path(directory, 0), "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")  # torn garbage tail
        database, report = recover_database(directory)
        assert len(database.table("car_ads")) == len(SMALL_CAR_ROWS)
        assert report.truncated  # the tail was noticed
        snapshot = registry.snapshot()
        damage = snapshot.counters_by_label("repro_wal_damage_total", "reason")
        assert sum(damage.values()) == 1
        (reason,) = damage
        assert reason in ("torn header", "torn body", "bad checksum", "bad json")
        for phase in ("snapshot_load", "replay"):
            sample = snapshot.histogram("repro_recovery_seconds", phase=phase)
            assert sample is not None and sample.count == 1

    def test_recover_cli_json_includes_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = self._durable_directory(tmp_path)
        assert main(["recover", directory, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["wal_damage_total"] == {}
        assert metrics["recovery_seconds"]["replay"] > 0.0
        assert payload["records"] == len(SMALL_CAR_ROWS)


def _gauges(registry) -> dict[str, float]:
    return {sample.name: sample.value for sample in registry.snapshot().gauges}


class TestFragmentCacheGauges:
    def test_entries_and_bytes_are_sampled_from_the_cache(self, registry):
        """Both gauges read the cache at snapshot time: its entry count
        and its fragments' summed ``sys.getsizeof``; a collected cache
        reads NaN instead of being kept alive by the registry."""
        import gc
        import sys

        from repro.db.database import Database
        from repro.db.schema import AttributeType
        from repro.db.sql.executor import SQLExecutor
        from repro.perf.fragment_cache import FragmentCache
        from repro.perf.subplan import unit_id_sets
        from repro.qa.conditions import Condition, ConditionOp
        from repro.ranking.rank_sim import ScoringUnit

        database = Database()
        table = database.create_table(small_car_schema())
        table.insert_many([dict(row) for row in SMALL_CAR_ROWS])
        cache = FragmentCache()
        assert _gauges(registry) == {
            "repro_fragment_cache_entries": 0.0,
            "repro_fragment_cache_bytes": 0.0,
        }
        units = [
            ScoringUnit(conditions=(
                Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, value),
            ))
            for value in ("honda", "toyota")
        ]
        fragments = unit_id_sets(SQLExecutor(database), table, units, cache)
        gauges = _gauges(registry)
        assert gauges["repro_fragment_cache_entries"] == 2.0
        assert gauges["repro_fragment_cache_bytes"] == float(
            sum(map(sys.getsizeof, fragments))
        ) == float(cache.nbytes()) > 0
        del cache, fragments
        gc.collect()
        assert all(math.isnan(value) for value in _gauges(registry).values())


# ----------------------------------------------------------------------
# integration: the single connected span tree (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_system(tmp_path_factory):
    """A small sharded, WAL-backed system with observability attached."""
    obs = Observability(MetricsRegistry())
    obs.tracer.add_sink(InMemoryTraceSink())
    directory = str(tmp_path_factory.mktemp("obs-wal"))
    system = (
        SystemBuilder()
        .with_domains("cars")
        .ads_per_domain(120)
        .sessions_per_domain(150)
        .corpus_documents(120)
        .shards(2)
        .storage(directory, fsync="off")
        .build()
    )
    yield system, obs
    system.close()


@pytest.fixture()
def installed(traced_system):
    """The system's registry installed as process default, sink cleared."""
    system, obs = traced_system
    obs.tracer.sinks[0].clear()
    previous = obs.install()
    yield system, obs
    set_default_registry(previous)


def _questions(system, count: int) -> list[str]:
    generator = make_generator(system.domain("cars").dataset, seed=11)
    return [generator.generate().text for _ in range(count)]


class TestConnectedSpanTree:
    def test_request_plus_mutation_yield_one_connected_tree(self, installed):
        system, obs = installed
        service = system.service(cache=8, observability=obs)
        questions = _questions(system, 6)
        with obs.trace("request") as root:
            for question in questions:
                service.answer(AnswerRequest(question=question, domain="cars"))
            system.database.table("car_ads").insert(
                {"make": "saab", "model": "9-3", "color": "blue",
                 "transmission": "manual", "doors": 4,
                 "drivetrain": "fwd", "body_style": "sedan",
                 "fuel": "gas", "year": 2004, "price": 4100,
                 "mileage": 120000}
            )
        # One tree, one trace id, every instrumented layer present.
        assert {node.trace_id for node in root.walk()} == {root.trace_id}
        assert root.find("api.answer") is not None
        assert root.find("stage.execute") is not None
        assert root.find("executor.evaluate") is not None
        assert root.find("shard.scatter") is not None
        assert root.find("wal.append") is not None
        cache_events = [e for e in root.event_names() if e == "cache"]
        assert cache_events  # hit/miss events attach to their spans
        # The executor leaf hangs under its stage, the stage under its
        # api.answer request — parent links, not just membership.
        leaf = root.find("executor.evaluate")
        stage = next(n for n in root.walk() if leaf in n.children)
        assert stage.name == "stage.execute"
        assert root.find("wal.append").trace_id == root.trace_id
        # Exported exactly once, on root exit.
        assert obs.tracer.sinks[0].last() is root

    def test_relax_sub_spans_hold_the_scatter_that_ran_under_them(self, installed):
        system, obs = installed
        service = system.service(observability=obs)

        def relax_children(question: str):
            with obs.trace("request") as root:
                service.answer(AnswerRequest(question=question, domain="cars"))
            relax = root.find("stage.relax")
            assert relax is not None
            names = {
                child.name: [node.name for node in child.walk()]
                for child in relax.children
            }
            return names, root.find("relax.rank").attributes, relax.attributes

        # Several relaxation units: their id-sets scatter per shard (a
        # price bound no other test asks, so the fragment cache misses).
        multi, rank, stage = relax_children("blue honda accord less than 12345 dollars")
        assert "shard.scatter" in multi["relax.candidates"]
        assert "shard.scatter" in multi["relax.rank"]
        assert rank["path"] == "rows" and rank["pool"] > 0
        assert "path=rows" in stage["detail"]
        # One unit: no pool is listed; the ranking gathers each shard's
        # score classes.
        single, rank, stage = relax_children("cheapest honda accord")
        assert "relax.candidates" not in single
        assert "shard.scatter" in single["relax.rank"]
        assert rank["path"] == "classes" and 0 < rank["classes"] < 150
        assert "path=classes" in stage["detail"]
        service.close()

    def test_batch_answers_nest_under_the_callers_span(self, installed):
        system, obs = installed
        service = system.service(observability=obs)
        requests = [
            AnswerRequest(question=question, domain="cars")
            for question in _questions(system, 4)
        ]
        with obs.trace("batch") as root:
            results = service.answer_batch(requests + requests[:2])
        assert len(results) == len(requests) + 2
        api_spans = root.find_all("api.answer")
        assert len(api_spans) == len(set(requests))
        assert all(node in root.children for node in api_spans)
        assert {node.trace_id for node in root.walk()} == {root.trace_id}
        assert obs.tracer.sinks[0].roots == [root]  # one exported tree
        service.close()

    def test_concurrent_request_roots_do_not_interleave(self, installed):
        system, obs = installed
        sink = obs.tracer.sinks[0]
        questions = _questions(system, 6)
        service = system.service(observability=obs)

        def ask(question: str) -> None:
            service.ask(question, domain="cars")

        run_together(ask, [(question,) for question in questions])
        roots = list(sink.roots)
        assert len(roots) == len(questions)
        assert len({root.trace_id for root in roots}) == len(roots)
        assert sorted(root.attributes["question"] for root in roots) == sorted(
            questions
        )
        span_ids = [node.span_id for root in roots for node in root.walk()]
        assert len(span_ids) == len(set(span_ids))  # no span in two trees
        for root in roots:
            assert root.name == "api.answer"
            # Every span below this root belongs to this trace, and no
            # other request's stages leaked into it.
            assert {node.trace_id for node in root.walk()} == {root.trace_id}
            assert root.find_all("api.answer") == [root]
            stages = [
                node.name for node in root.walk() if node.name.startswith("stage.")
            ]
            assert len(stages) == len(set(stages))
            assert "stage.tag" in stages
        service.close()

    def test_untraced_requests_record_metrics_but_no_spans(self, installed):
        system, obs = installed
        service = system.service(cache=8)  # no observability bundle
        question = _questions(system, 1)[0]
        service.answer(AnswerRequest(question=question, domain="cars"))
        assert obs.tracer.sinks[0].roots == []
        snapshot = obs.registry.snapshot()  # == installed default registry
        assert snapshot.counter_value(
            "repro_cache_requests_total", cache="answer", outcome="miss"
        ) >= 1
        stage = snapshot.histogram("repro_stage_seconds", stage="execute")
        assert stage is not None and stage.count >= 1
        service.close()

    def test_prometheus_export_covers_every_cache_family(self, installed):
        system, obs = installed
        service = system.service(cache=8, observability=obs)
        questions = _questions(system, 4)
        from repro.db.sql.executor import execute

        for question in questions + questions:  # repeats hit the answer cache
            service.answer(AnswerRequest(question=question, domain="cars"))
        sql = "SELECT record_id FROM car_ads WHERE price < 100000000"
        execute(system.database, sql)
        parsed = parse_prometheus_text(obs.render_prometheus())
        seen = {
            dict(labels).get("cache")
            for (name, labels) in parsed["samples"]
            if name == "repro_cache_requests_total"
        }
        assert set(CACHE_FAMILIES) <= seen
        service.close()
