"""Tests for the hash and substring indexes."""

from __future__ import annotations

from repro.db.indexes import HashIndex, SubstringIndex


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

    def test_lookup_returns_copy(self):
        index = HashIndex("color")
        index.add("blue", 1)
        result = index.lookup("blue")
        result.add(99)
        assert index.lookup("blue") == {1}


class TestSubstringIndex:
    def make(self):
        index = SubstringIndex("model", gram_length=3)
        for record_id, value in enumerate(
            ["accord", "corolla", "camry", "cobalt"], 1
        ):
            index.add(value, record_id)
        return index

    def test_search_exact_substring(self):
        assert self.make().search("cor") == {1, 2}  # acCORd, CORolla
        assert self.make().search("accord") == {1}

    def test_search_short_needle_falls_back(self):
        # needles shorter than the gram length still work (full scan):
        # acCOrd, COrolla, CObalt all contain "co"
        assert self.make().search("co") == {1, 2, 4}

    def test_search_missing(self):
        assert self.make().search("zzz") == set()

    def test_candidates_is_superset(self):
        index = self.make()
        for needle in ("cor", "oll", "acc"):
            assert index.search(needle) <= index.candidates(needle)

    def test_short_strings_indexed_whole(self):
        index = SubstringIndex("model", gram_length=3)
        index.add("m3", 1)
        assert index.search("m3") == {1}

    def test_remove(self):
        index = self.make()
        index.remove("accord", 1)
        assert index.search("accord") == set()
        assert index.search("cor") == {2}

    def test_case_insensitive(self):
        index = SubstringIndex("model")
        index.add("Accord", 1)
        assert index.search("ACCORD") == {1}
