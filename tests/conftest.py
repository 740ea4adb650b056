"""Shared fixtures.

Heavy artifacts (a provisioned system, per-domain datasets) are
session-scoped: they are deterministic (fixed seeds throughout), so
sharing them across tests changes nothing about isolation, only about
runtime.  Tests that mutate state build their own small fixtures.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.datagen.ads import build_dataset
from repro.db.database import Database
from repro.db.schema import AttributeType, Column, ColumnKind, TableSchema
from repro.qa.pipeline import CQAds
from repro.ranking.rank_sim import RankingResources
from repro.system import build_system


def small_car_schema() -> TableSchema:
    """A compact hand-built cars schema for substrate-level tests."""
    return TableSchema(
        table_name="car_ads",
        columns=[
            Column("make", AttributeType.TYPE_I),
            Column("model", AttributeType.TYPE_I),
            Column("color", AttributeType.TYPE_II),
            Column("transmission", AttributeType.TYPE_II),
            Column(
                "year",
                AttributeType.TYPE_III,
                ColumnKind.NUMERIC,
                valid_range=(1985, 2011),
            ),
            Column(
                "price",
                AttributeType.TYPE_III,
                ColumnKind.NUMERIC,
                unit_words=("usd", "dollars", "$"),
                synonyms=("price", "cost"),
                valid_range=(500, 80000),
            ),
            Column(
                "mileage",
                AttributeType.TYPE_III,
                ColumnKind.NUMERIC,
                unit_words=("miles", "mi"),
                synonyms=("mileage",),
                valid_range=(0, 250000),
            ),
        ],
    )


SMALL_CAR_ROWS = [
    {"make": "honda", "model": "accord", "color": "blue",
     "transmission": "automatic", "year": 2004, "price": 9000, "mileage": 90000},
    {"make": "honda", "model": "accord", "color": "red",
     "transmission": "manual", "year": 2001, "price": 5000, "mileage": 140000},
    {"make": "honda", "model": "civic", "color": "blue",
     "transmission": "automatic", "year": 2007, "price": 11000, "mileage": 60000},
    {"make": "toyota", "model": "camry", "color": "blue",
     "transmission": "automatic", "year": 2005, "price": 8500, "mileage": 95000},
    {"make": "toyota", "model": "corolla", "color": "white",
     "transmission": "manual", "year": 1999, "price": 3000, "mileage": 180000},
    {"make": "chevy", "model": "malibu", "color": "blue",
     "transmission": "automatic", "year": 2003, "price": 5900, "mileage": 110000},
    {"make": "ford", "model": "focus", "color": "silver",
     "transmission": "automatic", "year": 2006, "price": 6800, "mileage": 80000},
    {"make": "bmw", "model": "3 series", "color": "black",
     "transmission": "manual", "year": 2008, "price": 22000, "mileage": 45000},
]


def fresh_engine(cqads: CQAds, domain: str) -> CQAds:
    """An engine built from scratch over *domain*'s current rows.

    A new database holds one plain table with the same schema and every
    live record re-inserted under its own id; a new engine registers
    the same domain with new ranking resources carrying the original's
    matrices, value ranges, Type I columns and product keys.  Nothing
    in it has seen a mutation, so it is the reference for everything
    the original maintains across mutations (caches, column stores,
    windows, shards).
    """
    context = cqads.context(domain)
    schema = context.domain.schema
    database = Database()
    table = database.create_table(schema)
    for record in cqads.database.table(schema.table_name).snapshot():
        table.insert(dict(record), record_id=record.record_id)
    original = context.resources
    engine = CQAds(database)
    engine.add_domain(
        context.domain,
        resources=RankingResources(
            ti_matrix=original.ti_matrix,
            ws_matrix=original.ws_matrix,
            value_ranges=dict(original.value_ranges),
            type_i_columns=list(original.type_i_columns),
            product_keys=list(original.product_keys),
        ),
    )
    return engine


def run_together(target, argument_lists, switch_interval=None, timeout=60.0):
    """Call ``target(*args)`` on one thread per entry of
    *argument_lists*, all released at once by a barrier.

    *switch_interval*, when given, shortens the interpreter's thread
    switch interval for the run (restored afterwards) so races show up.
    Fails if a thread is still running after *timeout* seconds, and
    re-raises the first error a thread hit.
    """
    barrier = threading.Barrier(len(argument_lists))
    errors: list[Exception] = []

    def run(args) -> None:
        try:
            barrier.wait(timeout=timeout)
            target(*args)
        except Exception as error:  # re-raised on the caller's thread
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(args,), daemon=True)
        for args in argument_lists
    ]
    interval = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "threads hung"
    if errors:
        raise errors[0]


@pytest.fixture()
def car_database():
    """A fresh database holding the small cars table (function-scoped:
    tests may mutate)."""
    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many(SMALL_CAR_ROWS)
    return database


@pytest.fixture()
def car_table(car_database):
    """The ``car_ads`` table of :func:`car_database` (same instance)."""
    return car_database.table("car_ads")


@pytest.fixture(scope="session")
def cars_system():
    """A provisioned single-domain system (read-only in tests)."""
    return build_system(
        ["cars"],
        ads_per_domain=250,
        sessions_per_domain=300,
        corpus_documents=200,
    )


@pytest.fixture(scope="session")
def two_domain_system():
    """Cars + motorcycles, for classification and routing tests."""
    return build_system(
        ["cars", "motorcycles"],
        ads_per_domain=200,
        sessions_per_domain=250,
        corpus_documents=200,
    )


@pytest.fixture(scope="session")
def cars_dataset():
    database = Database()
    return build_dataset("cars", database, ads_per_domain=200, seed=7)


@pytest.fixture()
def rng():
    return random.Random(12345)
