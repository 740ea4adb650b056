"""Scatter-gather sharding vs the single table on a mutating workload.

Sharding cannot reduce the *total* scoring work on one core — its
single-core payoff is **invalidation locality**: every hot-path cache
keys on a shard's own mutation epoch, so a point mutation stales 1/N
of the cached state instead of all of it.  On a read-only stream the
two layouts are within noise of each other; the workload that
separates them is the production-shaped one, reads interleaved with
point mutations:

* the unsharded build rebuilds the whole-table column store and
  re-evaluates every relaxation-unit id-set after each mutation;
* the 4-shard build rebuilds one shard's store (1/4 of the rows) and
  re-evaluates only the mutated shard's unit fragments, gathering the
  three untouched shards from cache.

The measured section is the candidate-pool + ranking path
(``partial_answers``: shared-subplan N-1 pools + columnar top-30),
driven by six-unit questions over the cars domain at 2000- and
8000-record pools, one point update per round, five questions per
round.  Both builds hold bit-identical data and answers (asserted
before and after timing); the snapshot lands in
``BENCH_sharding.json``.  The sharded arm scatters on each facade's
dedicated thread executor.

Acceptance: >= 1.5x over the single table at 4 shards on the
8000-record pool.

Quick mode (CI smoke): ``BENCH_SHARDING_QUICK=1`` runs the 2000-ad
scale only with fewer rounds, asserts the sharded build is not slower
than the single table (a broken-locality build measures below 1.0x,
a healthy one ~1.25-1.5x), and leaves the committed JSON snapshot
untouched.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -s
  or: PYTHONPATH=src python benchmarks/bench_sharding.py [--quick]
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys
import time

import pytest

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_sharding.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import emit
from repro.db.schema import AttributeType
from repro.evaluation.reporting import format_seconds, format_table
from repro.qa.conditions import (
    BooleanOperator,
    Condition,
    ConditionGroup,
    ConditionOp,
    Interpretation,
)
from repro.qa.sql_generation import evaluate_interpretation
from repro.shard import ShardedTable
from repro.system import build_system

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_sharding.json"

QUICK = bool(os.environ.get("BENCH_SHARDING_QUICK"))
SCALES = (2000,) if QUICK else (2000, 8000)
SHARDS = 4
QUESTION_VARIETY = 10
ROUNDS = 10 if QUICK else 15
#: Quick mode leans harder on mutations (fewer questions amortizing
#: each update) so the locality win stands clear of CI runner noise.
QUESTIONS_PER_ROUND = 2 if QUICK else 5
REPEATS = 2
MIN_SPEEDUP_AT_8000 = 1.5
#: Quick mode is a regression tripwire, not a performance gate: with
#: shard-local caching broken, the sharded build pays full
#: re-invalidation *plus* per-shard overheads and measures below 1.0x
#: (~0.95x observed), while a healthy build measures ~1.25-1.5x.  The
#: 1.0 floor separates those states with headroom for noisy shared CI
#: runners; the committed BENCH_sharding.json carries the real numbers.
MIN_SPEEDUP_QUICK = 1.0


@pytest.fixture(scope="module", params=SCALES, ids=str)
def system_pair(request):
    """The same cars recipe, unsharded and 4-way sharded.

    Both builds pin ``cache_maintenance="rebuild"``: this benchmark
    isolates the *invalidation-locality* effect of sharding — a point
    mutation rebuilding 1/N of the epoch-keyed cache state instead of
    all of it — which only exists on the rebuild path.  Delta
    maintenance (PR 5, the engine default) patches caches in place for
    both layouts and removes most per-mutation rebuild cost entirely;
    ``bench_incremental.py`` measures that effect on its own.
    """
    scale = request.param
    recipe = dict(
        ads_per_domain=scale,
        sessions_per_domain=300,
        corpus_documents=200,
        cache_maintenance="rebuild",
    )
    base = build_system(["cars"], **recipe)
    sharded = build_system(["cars"], shards=SHARDS, **recipe)
    yield base, sharded, scale
    sharded.close()
    base.close()


def _question_interpretations(system, count: int) -> list[Interpretation]:
    """Six-unit conjunctions anchored on real records."""
    rng = random.Random(2718)
    dataset = system.domain("cars").dataset
    needed = ("make", "model", "color", "transmission", "price", "mileage", "year")
    complete = [
        record
        for record in dataset.records
        if all(record.get(column) is not None for column in needed)
    ]
    interpretations = []
    for _ in range(count):
        record = rng.choice(complete)
        conditions = [
            Condition("make", AttributeType.TYPE_I, ConditionOp.EQ,
                      str(record["make"])),
            Condition("model", AttributeType.TYPE_I, ConditionOp.EQ,
                      str(record["model"])),
            Condition("color", AttributeType.TYPE_II, ConditionOp.EQ,
                      str(record["color"])),
            Condition("transmission", AttributeType.TYPE_II, ConditionOp.EQ,
                      str(record["transmission"])),
            Condition("price", AttributeType.TYPE_III, ConditionOp.LT,
                      float(record["price"]) + 1000.0),
            Condition("mileage", AttributeType.TYPE_III, ConditionOp.LT,
                      float(record["mileage"]) + 5000.0),
            Condition("year", AttributeType.TYPE_III, ConditionOp.GE,
                      float(record["year"]) - 2.0),
        ]
        interpretations.append(
            Interpretation(tree=ConditionGroup(BooleanOperator.AND, conditions))
        )
    return interpretations


def _answer_signature(answers):
    return [
        (item.record.record_id, item.score, item.similarity_kind)
        for item in answers
    ]


def _assert_parity(base, sharded, interpretations, excludes) -> None:
    for interpretation, exclude in zip(interpretations, excludes):
        reference = None
        for system in (base, sharded):
            answers = system.cqads.partial_answers(
                "cars", interpretation, exclude, top_k=30
            )
            signature = _answer_signature(answers)
            if reference is None:
                reference = signature
            else:
                assert signature == reference, "sharded/unsharded divergence"


def _mutating_workload(
    system, interpretations, excludes, rounds: int, seed: int
) -> float:
    """Wall-clock of the candidate-pool + ranking stream with one point
    update per round.  The same *seed* drives the same victim sequence
    on every system (record ids are identical across builds), so the
    measured work — and the produced answers — stay bit-comparable."""
    cqads = system.cqads
    table = cqads.database.table("car_ads")
    rng = random.Random(seed)
    ids = sorted(table.all_ids())
    started = time.perf_counter()
    for round_index in range(rounds):
        victim = rng.choice(ids)
        price = float(table.get(victim)["price"])
        table.update(victim, {"price": price + 1.0})
        for i in range(QUESTIONS_PER_ROUND):
            k = (round_index * QUESTIONS_PER_ROUND + i) % len(interpretations)
            cqads.partial_answers(
                "cars", interpretations[k], excludes[k], top_k=30
            )
    return time.perf_counter() - started


def test_scatter_gather_speedup_under_mutation(system_pair):
    base, sharded, scale = system_pair
    table = sharded.database.table("car_ads")
    assert isinstance(table, ShardedTable) and table.shard_count == SHARDS
    interpretations = _question_interpretations(base, QUESTION_VARIETY)
    excludes = [
        {
            record.record_id
            for record in evaluate_interpretation(
                base.cqads.database, base.cqads.domain("cars"), interpretation
            )
        }
        for interpretation in interpretations
    ]

    # Parity before timing (also warms stores, fragments and memos).
    _assert_parity(base, sharded, interpretations, excludes)

    base_seconds = min(
        _mutating_workload(base, interpretations, excludes, ROUNDS, seed=run)
        for run in range(REPEATS)
    )
    sharded_seconds = min(
        _mutating_workload(sharded, interpretations, excludes, ROUNDS, seed=run)
        for run in range(REPEATS)
    )
    speedup = base_seconds / sharded_seconds

    # Both builds saw the same mutation stream: still bit-identical.
    _assert_parity(base, sharded, interpretations, excludes)

    # The timed quantity is min-over-repeats of ONE workload pass, so
    # per-question latency divides by one pass's question count.
    questions = ROUNDS * QUESTIONS_PER_ROUND
    rows = [
        ["single table", format_seconds(base_seconds / questions), "1.00x"],
        [
            f"{SHARDS}-shard thread scatter",
            format_seconds(sharded_seconds / questions),
            f"{speedup:.2f}x",
        ],
    ]
    emit(
        format_table(
            ["layout", "per-question latency", "speedup"],
            rows,
            title=(
                f"candidate pool + top-30 ranking, {scale}-record pool, "
                f"one point update per {QUESTIONS_PER_ROUND} questions"
                + (" [quick mode]" if QUICK else "")
            ),
        )
    )

    if not QUICK:
        snapshot = {}
        if RESULT_PATH.exists():
            snapshot = json.loads(RESULT_PATH.read_text())
        snapshot.setdefault("benchmark", "sharded_scatter_gather")
        snapshot.setdefault("shards", SHARDS)
        snapshot.setdefault("rounds", ROUNDS)
        snapshot.setdefault("questions_per_round", QUESTIONS_PER_ROUND)
        entry = {
            "pool_size": scale,
            "single_table_ms_per_question": 1000 * base_seconds / questions,
            "sharded_ms_per_question": 1000 * sharded_seconds / questions,
            "speedup": speedup,
        }
        snapshot.setdefault("modes", {}).setdefault("thread", {}).setdefault(
            "scales", {}
        )[str(scale)] = entry
        snapshot.setdefault("scales", {})[str(scale)] = dict(entry)
        RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")

    if QUICK:
        assert speedup >= MIN_SPEEDUP_QUICK, (
            f"{SHARDS}-shard scatter must be >= {MIN_SPEEDUP_QUICK}x "
            f"even in quick mode at {scale} ads, measured {speedup:.2f}x"
        )
    elif scale == 8000:
        assert speedup >= MIN_SPEEDUP_AT_8000, (
            f"{SHARDS}-shard scatter must be >= {MIN_SPEEDUP_AT_8000}x "
            f"at 8000 ads, measured {speedup:.2f}x"
        )


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["BENCH_SHARDING_QUICK"] = "1"
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
