"""Columnar top-k ranking vs the legacy full-sort ranker.

PR 2 made candidate-pool construction fast, leaving Eq. 5 scoring as
the dominant per-question cost: the legacy ``RankSimRanker`` walks
every pooled record with per-record/per-condition Python loops and
fully sorts the pool even though the pipeline presents 30 answers.
The columnar engine (:mod:`repro.perf.colrank`) scores through
per-epoch column arrays with distinct-value memos and selects the
top k with a bounded heap.

This bench ranks whole-table pools (500 and 2000 ads — the paper's
scale and 4x it) against six-unit questions, verifies the bounded
columnar result equals the legacy full sort truncated (bit-identical,
ties included), and records the snapshot in ``BENCH_ranking.json``.

Acceptance: >= 3x speedup at pool 2000, k=30.

Quick mode (CI smoke): ``BENCH_RANKING_QUICK=1`` runs the 500-ad scale
only with fewer repeats, asserts a conservative 1.8x floor, and leaves
the committed JSON snapshot untouched.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_ranking.py -s
  or: PYTHONPATH=src python benchmarks/bench_ranking.py [--quick]
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import sys
import time

import pytest

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_ranking.py`
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
from repro.system import build_system

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_ranking.json"

QUICK = bool(os.environ.get("BENCH_RANKING_QUICK"))
SCALES = (500,) if QUICK else (500, 2000)
QUESTIONS_PER_SCALE = 4 if QUICK else 10
REPEATS = 2 if QUICK else 3
TOP_K = 30
MIN_SPEEDUP_AT_2000 = 3.0
MIN_SPEEDUP_QUICK = 1.8


@pytest.fixture(scope="module", params=SCALES)
def sized_system(request):
    return build_system(
        ["cars"],
        ads_per_domain=request.param,
        sessions_per_domain=300,
        corpus_documents=200,
    ), request.param


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


def _scored_signature(items):
    return [
        (item.record.record_id, item.score, item.failed, item.similarity_kind)
        for item in items
    ]


def _time(ranker, pool, units_list, run) -> float:
    """Best-of-REPEATS wall-clock for ranking every question's pool."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for units in units_list:
            run(ranker, pool, units)
        best = min(best, time.perf_counter() - started)
    return best


def test_columnar_topk_speedup(sized_system):
    system, scale = sized_system
    cqads = system.cqads
    context = cqads.context("cars")
    ranker = context.ranker()
    table = cqads.database.table(context.domain.schema.table_name)
    pool = sorted(table, key=lambda record: record.record_id)
    assert len(pool) == scale
    interpretations = _question_interpretations(system, QUESTIONS_PER_SCALE)
    units_list = [
        cqads.relaxation_units(interpretation)
        for interpretation in interpretations
    ]
    assert min(len(units) for units in units_list) >= 5

    # Parity (and warm-up: column store, memos, record-key caches)
    # before timing means anything.
    for units in units_list:
        legacy = ranker.rank_units(pool, units, engine="legacy")
        columnar = ranker.rank_units(pool, units, top_k=TOP_K, engine="columnar")
        assert _scored_signature(columnar) == _scored_signature(legacy[:TOP_K])

    legacy_seconds = _time(
        ranker, pool, units_list,
        lambda r, p, u: r.rank_units(p, u, engine="legacy"),
    )
    # list(): the columnar engine returns a lazy pool that orders and
    # builds rows only when read; reading all top_k of them keeps the
    # arm paying for the selection and emission the legacy arm pays.
    columnar_seconds = _time(
        ranker, pool, units_list,
        lambda r, p, u: list(r.rank_units(p, u, top_k=TOP_K, engine="columnar")),
    )
    speedup = legacy_seconds / columnar_seconds

    per_question = QUESTIONS_PER_SCALE
    mean_units = statistics.mean(len(units) for units in units_list)
    rows = [
        [
            "legacy full sort",
            format_seconds(legacy_seconds / per_question),
            "1.00x",
        ],
        [
            f"columnar top-{TOP_K}",
            format_seconds(columnar_seconds / per_question),
            f"{speedup:.2f}x",
        ],
    ]
    emit(
        format_table(
            ["ranking engine", "per-question latency", "speedup"],
            rows,
            title=(
                f"Rank_Sim over a {scale}-record pool — "
                f"{mean_units:.1f} relaxation units per question"
                + (" [quick mode]" if QUICK else "")
            ),
        )
    )

    if not QUICK:
        snapshot = {}
        if RESULT_PATH.exists():
            snapshot = json.loads(RESULT_PATH.read_text())
        snapshot.setdefault("benchmark", "columnar_topk_ranking")
        snapshot.setdefault("top_k", TOP_K)
        snapshot.setdefault("questions_per_scale", QUESTIONS_PER_SCALE)
        snapshot.setdefault("scales", {})
        snapshot["scales"][str(scale)] = {
            "pool_size": scale,
            "relaxation_units_mean": mean_units,
            "legacy_ms_per_question": 1000 * legacy_seconds / per_question,
            "columnar_ms_per_question": 1000 * columnar_seconds / per_question,
            "speedup": speedup,
        }
        RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")

    if QUICK:
        assert speedup >= MIN_SPEEDUP_QUICK, (
            f"columnar top-k must be >= {MIN_SPEEDUP_QUICK}x even in quick "
            f"mode at {scale} ads, measured {speedup:.2f}x"
        )
    elif scale == 2000:
        assert speedup >= MIN_SPEEDUP_AT_2000, (
            f"columnar top-k must be >= {MIN_SPEEDUP_AT_2000}x at 2000 ads, "
            f"measured {speedup:.2f}x"
        )


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["BENCH_RANKING_QUICK"] = "1"
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
