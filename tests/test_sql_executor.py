"""Tests for SQL execution over the small cars table."""

from __future__ import annotations

import pytest

from repro.db.sql.executor import SQLExecutor, execute
from repro.errors import SQLExecutionError, SQLSyntaxError


@pytest.fixture()
def run(car_database):
    def _run(sql: str):
        return execute(car_database, sql)

    return _run


class TestBasicQueries:
    def test_select_all(self, run):
        assert len(run("SELECT * FROM car_ads")) == 8

    def test_equality_uses_lowercase_match(self, run):
        result = run("SELECT * FROM car_ads WHERE make = 'HONDA'")
        assert {r["model"] for r in result.records} == {"accord", "civic"}

    def test_numeric_comparisons(self, run):
        assert len(run("SELECT * FROM car_ads WHERE price < 6000")) == 3
        assert len(run("SELECT * FROM car_ads WHERE price <= 5900")) == 3
        assert len(run("SELECT * FROM car_ads WHERE price > 20000")) == 1
        assert len(run("SELECT * FROM car_ads WHERE year = 2004")) == 1
        assert len(run("SELECT * FROM car_ads WHERE year != 2004")) == 7

    def test_between(self, run):
        result = run("SELECT * FROM car_ads WHERE price BETWEEN 5000 AND 9000")
        assert all(5000 <= r["price"] <= 9000 for r in result.records)
        assert len(result) == 5

    def test_and_or_not(self, run):
        result = run(
            "SELECT * FROM car_ads WHERE make = 'honda' AND color = 'blue'"
        )
        assert {r["model"] for r in result.records} == {"accord", "civic"}
        result = run(
            "SELECT * FROM car_ads WHERE make = 'bmw' OR make = 'ford'"
        )
        assert len(result) == 2
        result = run("SELECT * FROM car_ads WHERE NOT make = 'honda'")
        assert len(result) == 5

    def test_like_substring(self, run):
        result = run("SELECT * FROM car_ads WHERE model LIKE '%cor%'")
        assert {r["model"] for r in result.records} == {"accord", "corolla"}

    def test_like_prefix_pattern(self, run):
        result = run("SELECT * FROM car_ads WHERE model LIKE 'c%'")
        assert {r["model"] for r in result.records} == {"civic", "camry", "corolla"}

    def test_in_value_list(self, run):
        result = run(
            "SELECT * FROM car_ads WHERE color IN ('black', 'silver')"
        )
        assert len(result) == 2

    def test_in_subquery_example7_shape(self, run):
        # The paper's Example 7 query shape.
        result = run(
            "SELECT * FROM car_ads WHERE record_id IN "
            "(SELECT record_id FROM car_ads c WHERE c.transmission = 'automatic') "
            "AND record_id IN "
            "(SELECT record_id FROM car_ads c WHERE c.color = 'blue')"
        )
        assert all(
            r["transmission"] == "automatic" and r["color"] == "blue"
            for r in result.records
        )
        assert len(result) == 4


class TestOrderingAndLimit:
    def test_order_by_ascending(self, run):
        result = run("SELECT * FROM car_ads ORDER BY price")
        prices = [r["price"] for r in result.records]
        assert prices == sorted(prices)

    def test_order_by_descending(self, run):
        result = run("SELECT * FROM car_ads ORDER BY price DESC")
        prices = [r["price"] for r in result.records]
        assert prices == sorted(prices, reverse=True)

    def test_group_by_acts_as_sort(self, run):
        # Table 1's 'group by price' idiom surfaces extremes first.
        result = run("SELECT * FROM car_ads GROUP BY price")
        assert result.records[0]["price"] == 3000

    def test_limit(self, run):
        result = run("SELECT * FROM car_ads ORDER BY price LIMIT 3")
        assert [r["price"] for r in result.records] == [3000, 5000, 5900]

    def test_deterministic_tie_break_by_record_id(self, run):
        result = run("SELECT * FROM car_ads ORDER BY transmission")
        ids = [r.record_id for r in result.records]
        # within equal keys, ids ascend
        automatic = [r.record_id for r in result.records if r["transmission"] == "automatic"]
        assert automatic == sorted(automatic)
        assert len(ids) == 8


class TestProjectionAndAggregates:
    def test_column_projection(self, run):
        result = run("SELECT make, price FROM car_ads WHERE price < 6000")
        assert all(set(row) == {"make", "price"} for row in result.rows)
        assert len(result.rows) == 3

    def test_record_id_projection(self, run):
        result = run("SELECT record_id FROM car_ads WHERE make = 'bmw'")
        assert result.rows == [{"record_id": 8}]

    def test_min_max(self, run):
        result = run("SELECT MIN(price), MAX(price) FROM car_ads")
        assert result.scalars == {"MIN(price)": 3000, "MAX(price)": 22000}

    def test_aggregate_on_empty_set(self, run):
        result = run("SELECT MIN(price) FROM car_ads WHERE make = 'kia'")
        assert result.scalars["MIN(price)"] is None

    def test_unknown_column_in_projection(self, run):
        with pytest.raises(SQLExecutionError):
            run("SELECT engine FROM car_ads")

    def test_mixing_aggregate_and_plain_rejected(self, run):
        with pytest.raises(SQLExecutionError):
            run("SELECT make, MIN(price) FROM car_ads")


class TestNullSemantics:
    def test_null_fails_positive_predicates(self, car_database):
        table = car_database.table("car_ads")
        record = table.insert({"make": "kia", "model": "rio", "color": None})
        executor = SQLExecutor(car_database)
        result = executor.execute_sql(
            "SELECT * FROM car_ads WHERE color = 'blue'"
        )
        assert record.record_id not in result.record_ids()

    def test_is_null(self, car_database):
        table = car_database.table("car_ads")
        record = table.insert({"make": "kia", "model": "rio"})
        executor = SQLExecutor(car_database)
        result = executor.execute_sql(
            "SELECT * FROM car_ads WHERE color IS NULL"
        )
        assert result.record_ids() == [record.record_id]

    def test_not_includes_nulls(self, car_database):
        # NOT(color = blue) must include records without a color.
        table = car_database.table("car_ads")
        record = table.insert({"make": "kia", "model": "rio"})
        executor = SQLExecutor(car_database)
        result = executor.execute_sql(
            "SELECT * FROM car_ads WHERE NOT color = 'blue'"
        )
        assert record.record_id in result.record_ids()

    def test_bare_inequality_excludes_nulls(self, car_database):
        table = car_database.table("car_ads")
        record = table.insert({"make": "kia", "model": "rio"})
        executor = SQLExecutor(car_database)
        result = executor.execute_sql(
            "SELECT * FROM car_ads WHERE color != 'blue'"
        )
        assert record.record_id not in result.record_ids()


class TestExecutorErrors:
    def test_unknown_table(self, car_database):
        with pytest.raises(Exception):
            execute(car_database, "SELECT * FROM nothing")

    def test_between_on_categorical(self, run):
        with pytest.raises(SQLExecutionError):
            run("SELECT * FROM car_ads WHERE make BETWEEN 1 AND 2")

    def test_like_on_numeric(self, run):
        with pytest.raises(SQLExecutionError):
            run("SELECT * FROM car_ads WHERE price LIKE '%5%'")

    def test_numeric_column_vs_string(self, run):
        with pytest.raises(SQLExecutionError):
            run("SELECT * FROM car_ads WHERE price = 'cheap'")

    @pytest.mark.parametrize(
        "where",
        ["price >= 'nan'", "price != 'nan'", "price = 'NaN'", "NOT price < 'nan'"],
    )
    def test_nan_literal_raises_like_any_non_number(self, run, where):
        # NaN takes the BETWEEN-bound / record_id literal parse: it is
        # no number, so comparing a numeric column with it is an error.
        with pytest.raises(SQLExecutionError):
            run(f"SELECT * FROM car_ads WHERE {where}")
        with pytest.raises(SQLExecutionError):
            run(f"SELECT * FROM car_ads WHERE make = 'nosuch' AND {where}")

    def test_nan_in_list_matches_nothing(self, run):
        assert len(run("SELECT * FROM car_ads WHERE price IN ('nan')")) == 0

    @pytest.mark.parametrize(
        "between",
        [
            "record_id BETWEEN NULL AND 4",
            "record_id BETWEEN 'a' AND 4",
            "price BETWEEN 'a' AND 9000",
        ],
    )
    def test_bad_between_bound_raises_whether_evaluated_or_skipped(
        self, run, between
    ):
        # The same error whether the leaf runs or an empty conjunct
        # short-circuits it.
        with pytest.raises(SQLExecutionError):
            run(f"SELECT * FROM car_ads WHERE {between}")
        with pytest.raises(SQLExecutionError):
            run(f"SELECT * FROM car_ads WHERE make = 'nosuch' AND {between}")

    def test_in_subquery_star_rejected(self, run):
        with pytest.raises(SQLExecutionError):
            run(
                "SELECT * FROM car_ads WHERE record_id IN "
                "(SELECT * FROM car_ads)"
            )

    def test_syntax_error_propagates(self, run):
        with pytest.raises(SQLSyntaxError):
            run("SELEC * FROM car_ads")


class TestLazyComplements:
    """The lazy-complement / selectivity-ordered evaluation must be a
    pure set-algebra rewrite: every query matches a brute-force scan."""

    def _brute(self, car_database, predicate):
        table = car_database.table("car_ads")
        return {r.record_id for r in table if predicate(r)}

    def test_negation_inside_and(self, car_database, run):
        result = run(
            "SELECT * FROM car_ads WHERE make != 'honda' AND price < 10000"
        )
        expected = self._brute(
            car_database,
            lambda r: r["make"] != "honda" and r["price"] < 10000,
        )
        assert set(result.record_ids()) == expected

    def test_de_morgan_or(self, car_database, run):
        result = run(
            "SELECT * FROM car_ads WHERE NOT (color = 'blue' OR make = 'honda')"
        )
        expected = self._brute(
            car_database,
            lambda r: not (r["color"] == "blue" or r["make"] == "honda"),
        )
        assert set(result.record_ids()) == expected

    def test_double_negation(self, run):
        direct = run("SELECT * FROM car_ads WHERE make = 'honda'")
        doubled = run("SELECT * FROM car_ads WHERE NOT (NOT (make = 'honda'))")
        assert direct.record_ids() == doubled.record_ids()

    def test_union_of_complements(self, car_database, run):
        result = run(
            "SELECT * FROM car_ads WHERE color != 'blue' OR make != 'honda'"
        )
        expected = self._brute(
            car_database,
            lambda r: r["color"] != "blue" or r["make"] != "honda",
        )
        assert set(result.record_ids()) == expected

    def test_numeric_not_equal_keeps_seed_semantics(self, car_database):
        # The seed's numeric != is a plain complement (NULL rows pass,
        # unlike the categorical branch); the lazy rewrite keeps that.
        table = car_database.table("car_ads")
        record = table.insert({"make": "kia", "model": "rio"})
        result = execute(car_database, "SELECT * FROM car_ads WHERE price != 9000")
        assert record.record_id in result.record_ids()

    def test_conjunction_with_empty_leaf_short_circuits_to_empty(self, run):
        result = run(
            "SELECT * FROM car_ads WHERE make = 'nonexistent' "
            "AND model LIKE '%cor%' AND price < 999999"
        )
        assert len(result) == 0

    def test_complement_only_conjunction(self, car_database, run):
        result = run(
            "SELECT * FROM car_ads WHERE make != 'honda' AND make != 'toyota'"
        )
        expected = self._brute(
            car_database,
            lambda r: r["make"] not in ("honda", "toyota"),
        )
        assert set(result.record_ids()) == expected

    def test_short_circuit_still_raises_on_invalid_skipped_leaf(self, run):
        # An empty cheap leaf must not swallow errors in the leaves the
        # short-circuit skips: malformed queries raise deterministically.
        with pytest.raises(Exception):
            run("SELECT * FROM car_ads WHERE make = 'nonexistent' AND nosuch < 5")
        with pytest.raises(SQLExecutionError):
            run(
                "SELECT * FROM car_ads WHERE make = 'nonexistent' "
                "AND price = 'cheap'"
            )
