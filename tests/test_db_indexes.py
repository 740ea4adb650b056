"""Tests for the hash index, and for the substring matching it serves."""

from __future__ import annotations

from repro.db.indexes import HashIndex
from repro.db.table import Table
from tests.conftest import small_car_schema


class TestHashIndex:
    def test_lookup_after_add(self):
        index = HashIndex("color")
        index.add("blue", 1)
        index.add("blue", 2)
        index.add("red", 3)
        assert index.lookup("blue") == {1, 2}
        assert index.lookup("red") == {3}
        assert index.lookup("green") == set()

    def test_remove(self):
        index = HashIndex("color")
        index.add("blue", 1)
        index.add("blue", 2)
        index.remove("blue", 1)
        assert index.lookup("blue") == {2}
        index.remove("blue", 2)
        assert index.lookup("blue") == set()

    def test_remove_missing_is_noop(self):
        index = HashIndex("color")
        index.remove("blue", 1)  # no error
        assert index.lookup("blue") == set()

    def test_none_values_not_indexed(self):
        index = HashIndex("color")
        index.add(None, 1)
        assert len(index) == 0

    def test_distinct_values(self):
        index = HashIndex("color")
        for record_id, value in enumerate(["blue", "red", "blue"]):
            index.add(value, record_id)
        assert sorted(index.distinct_values()) == ["blue", "red"]

    def test_lookup_matching_tests_each_distinct_value_once(self):
        index = HashIndex("model")
        for record_id, value in enumerate(["accord", "corolla", "accord"], 1):
            index.add(value, record_id)
        tested = []

        def contains_cor(value):
            tested.append(value)
            return "cor" in value

        assert index.lookup_matching(contains_cor) == {1, 2, 3}
        assert sorted(tested) == ["accord", "corolla"]
        assert index.lookup_matching(lambda value: value == "camry") == set()

    def test_lookup_returns_copy(self):
        index = HashIndex("color")
        index.add("blue", 1)
        result = index.lookup("blue")
        result.add(99)
        assert index.lookup("blue") == {1}


class TestSubstringIndex:
    """Section 4.5's substring matching, now answered by the model
    column's hash index: each distinct value is tested once."""

    def make(self):
        table = Table(small_car_schema())
        for value in ["accord", "corolla", "camry", "cobalt"]:
            table.insert({"make": "honda", "model": value})
        return table

    def test_search_exact_substring(self):
        assert self.make().lookup_substring("model", "cor") == {1, 2}  # acCORd, CORolla
        assert self.make().lookup_substring("model", "accord") == {1}

    def test_search_short_needle_falls_back(self):
        # needles shorter than three characters match like any other:
        # acCOrd, COrolla, CObalt all contain "co"
        assert self.make().lookup_substring("model", "co") == {1, 2, 4}

    def test_search_missing(self):
        assert self.make().lookup_substring("model", "zzz") == set()

    def test_short_strings_indexed_whole(self):
        table = Table(small_car_schema())
        table.insert({"make": "bmw", "model": "m3"})
        assert table.lookup_substring("model", "m3") == {1}

    def test_remove(self):
        table = self.make()
        table.delete(1)
        assert table.lookup_substring("model", "accord") == set()
        assert table.lookup_substring("model", "cor") == {2}
        table.update(2, {"model": "civic"})
        assert table.lookup_substring("model", "cor") == set()

    def test_case_insensitive(self):
        table = Table(small_car_schema())
        table.insert({"make": "honda", "model": "Accord"})
        assert table.lookup_substring("model", "ACCORD") == {1}
