"""Property-based tests (hypothesis) for the core data structures and
invariants: the trie, similar_text, the stemmer, shorthand detection,
the substring index, SQL round-tripping, Num_Sim, Rule 1 merging and
the one definition of predicate satisfaction."""

from __future__ import annotations

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.indexes import SubstringIndex
from repro.db.schema import AttributeType
from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import SQLExecutor, execute
from repro.db.sql.parser import parse_select
from repro.errors import ContradictionError
from repro.perf.colrank import class_rank_unit, columnar_rank_units
from repro.perf.subplan import unit_id_sets
from repro.qa.boolean_rules import merge_type_iii
from repro.qa.conditions import Condition, ConditionOp
from repro.qa.pipeline import CQAds
from repro.qa.sql_generation import condition_to_expr
from repro.ranking.num_sim import num_sim
from repro.ranking.rank_sim import (
    RankingResources,
    ScoringUnit,
    condition_satisfied,
)
from repro.ranking.ti_matrix import TIMatrix
from repro.ranking.ws_matrix import WSMatrix
from repro.structures.trie import Trie
from repro.text.shorthand import _canonical, is_shorthand
from repro.text.similar_text import similar_text, similar_text_percent
from repro.text.stemmer import stem
from repro.text.tokenizer import tokenize
from tests.conftest import small_car_schema

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)

# column names for generated SQL must avoid the dialect's keywords
from repro.db.sql.lexer import KEYWORDS  # noqa: E402

identifiers = words.filter(lambda w: w not in KEYWORDS)
numbers = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# trie
# ----------------------------------------------------------------------
@given(st.lists(words, min_size=1, max_size=30))
def test_trie_stores_exactly_inserted_entries(entries):
    trie = Trie()
    for entry in entries:
        trie.insert(entry, payload=len(entry))
    assert len(trie) == len(set(entries))
    for entry in entries:
        assert entry in trie
        assert trie.get(entry) == len(entry)
    assert sorted(trie.entries()) == sorted(set(entries))


@given(st.lists(words, min_size=1, max_size=20), words)
def test_trie_membership_never_false_positive(entries, probe):
    trie = Trie()
    for entry in entries:
        trie.insert(entry)
    assert (probe in trie) == (probe in set(entries))


@given(st.lists(words, min_size=1, max_size=20), words)
def test_trie_longest_prefix_is_a_prefix(entries, text):
    trie = Trie()
    for entry in entries:
        trie.insert(entry)
    match = trie.longest_prefix_entry(text)
    if match is not None:
        prefix, _ = match
        assert text.startswith(prefix)
        assert prefix in trie


# ----------------------------------------------------------------------
# similar_text
# ----------------------------------------------------------------------
@given(words, words)
def test_similar_text_bounded(a, b):
    matched = similar_text(a, b)
    assert 0 <= matched <= min(len(a), len(b))


@given(words)
def test_similar_text_identity(a):
    assert similar_text(a, a) == len(a)
    assert similar_text_percent(a, a) == 100.0


@given(words, words)
def test_similar_text_percent_range(a, b):
    assert 0.0 <= similar_text_percent(a, b) <= 100.0


# ----------------------------------------------------------------------
# stemmer
# ----------------------------------------------------------------------
@given(words)
def test_stem_never_longer_and_never_empty(word):
    stemmed = stem(word)
    assert stemmed
    assert len(stemmed) <= len(word)


@given(words)
def test_stem_deterministic(word):
    assert stem(word) == stem(word)


# ----------------------------------------------------------------------
# shorthand
# ----------------------------------------------------------------------
@given(words)
def test_value_is_shorthand_of_itself(value):
    assert is_shorthand(value, value)


@given(words, st.data())
def test_subsequence_construction_is_shorthand(value, data):
    assume(len(value) >= 4)
    # build a shorthand: keep the first char, then an ordered sample
    indices = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=len(value) - 1),
            min_size=max(1, len(value) // 2),
            unique=True,
        )
    )
    short = value[0] + "".join(value[i] for i in sorted(indices))
    assume(len(short) < len(value))
    assume(len(short) * 3 >= len(value))
    # Number words are rewritten to digits before the subsequence test
    # ("ten" -> "10"), so a sampled subsequence that happens to spell a
    # number word is legitimately NOT a raw shorthand of the value —
    # exclude that regime (hypothesis found 'ten' ⊂ 'taen').
    assume(_canonical(short) == short and _canonical(value) == value)
    assert is_shorthand(short, value)


@given(words, words)
def test_shorthand_requires_subsequence(short, value):
    if is_shorthand(short, value) and short != value:
        # every character of the canonical shorthand must appear in the
        # value (order verified by construction)
        target = value.lower().replace(" ", "")
        for ch in short.lower().replace(" ", ""):
            assert ch in target or target.endswith("s")


# ----------------------------------------------------------------------
# substring index
# ----------------------------------------------------------------------
@given(st.lists(words, min_size=1, max_size=20), words)
def test_substring_index_matches_naive_scan(values, needle):
    index = SubstringIndex("x", gram_length=3)
    for record_id, value in enumerate(values):
        index.add(value, record_id)
    expected = {i for i, v in enumerate(values) if needle in v}
    assert index.search(needle) == expected


# ----------------------------------------------------------------------
# SQL round-trip
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            identifiers,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["AND", "OR"]),
)
def test_sql_parse_render_fixpoint(predicates, operator):
    clause = f" {operator} ".join(
        f"{column} {op} {value}" for column, op, value in predicates
    )
    sql = f"SELECT * FROM t WHERE {clause}"
    first = parse_select(sql)
    rendered = first.to_sql()
    assert parse_select(rendered).to_sql() == rendered


# ----------------------------------------------------------------------
# Num_Sim
# ----------------------------------------------------------------------
@given(numbers, numbers, st.floats(min_value=0.001, max_value=1e6))
def test_num_sim_bounded_and_symmetric(a, b, span):
    value = num_sim(a, b, span)
    assert 0.0 <= value <= 1.0
    assert value == num_sim(b, a, span)


@given(numbers, st.floats(min_value=0.001, max_value=1e6))
def test_num_sim_identity(a, span):
    assert num_sim(a, a, span) == 1.0


@given(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
)
def test_num_sim_monotone_in_distance(target, near, far):
    assume(abs(target - near) <= abs(target - far))
    assert num_sim(target, near, 1000) >= num_sim(target, far, 1000)


# ----------------------------------------------------------------------
# Rule 1 merging
# ----------------------------------------------------------------------
bound_ops = st.sampled_from(
    [ConditionOp.LT, ConditionOp.LE, ConditionOp.GT, ConditionOp.GE]
)


@given(
    st.lists(
        st.tuples(bound_ops, st.integers(min_value=0, max_value=1000), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200)
def test_merge_type_iii_preserves_semantics(raw_conditions):
    """The merged conditions accept exactly the same values as the
    conjunction of the originals (checked over a probe grid)."""
    conditions = [
        Condition("price", AttributeType.TYPE_III, op, float(value), negated=negated)
        for op, value, negated in raw_conditions
    ]
    try:
        merged = merge_type_iii("price", conditions)
    except ContradictionError:
        merged = None
    probes = [x / 2 for x in range(-2, 2004)]

    def accepts(conds, value):
        from repro.ranking.rank_sim import condition_satisfied

        record = {"price": value}

        class FakeRecord(dict):
            record_id = 0

        return all(condition_satisfied(c, FakeRecord(record)) for c in conds)

    for probe in probes[:: 97]:  # sample the grid for speed
        original = accepts(conditions, probe)
        if merged is None:
            assert not original, probe
        else:
            assert accepts(merged, probe) == original, probe


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_merge_contradiction_exactly_when_empty(low, high):
    conditions = [
        Condition("price", AttributeType.TYPE_III, ConditionOp.GE, float(low)),
        Condition("price", AttributeType.TYPE_III, ConditionOp.LE, float(high)),
    ]
    if low > high:
        try:
            merge_type_iii("price", conditions)
            raised = False
        except ContradictionError:
            raised = True
        assert raised
    else:
        merged = merge_type_iii("price", conditions)
        assert merged[0].op is ConditionOp.BETWEEN


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------
@given(st.text(max_size=80))
def test_tokenizer_total(text):
    # never raises, always lowercase output
    for token in tokenize(text):
        assert token == token.lower()


# ----------------------------------------------------------------------
# one predicate definition: SQL, fragment cache, Rank_Sim and colrank
# ----------------------------------------------------------------------
STORED_NUMBERS = (1999, 2004, 2010, 2010.5, 5000, 9000.25)
STORED_TEXT = ("blue", "red", "2010", "2010.0", "1999")

#: Numeric literals equal to, next to and far from the stored values.
numeric_literals = st.one_of(
    st.sampled_from(STORED_NUMBERS).flatmap(
        lambda value: st.sampled_from(
            (value, value - 1, value - 0.5, value + 0.5, value + 1)
        )
    ),
    st.sampled_from((0, 123456.5, 1e6)),
)
#: Literals a range operator on a categorical column renders: the
#: condition's value is float-coerced first, so "2010" compares as
#: "2010.0".
numeric_text_literals = st.sampled_from(
    ("2010", "2010.0", "1999", "1999.5", 2010, 2010.0, 1999.5)
)
text_literals = st.one_of(
    st.sampled_from(STORED_TEXT + ("Blue", "zzz")), numeric_text_literals
)


@st.composite
def kernel_conditions(draw):
    """Any condition over the small cars schema that SQL accepts."""
    column = draw(st.sampled_from(small_car_schema().columns))
    if column.is_numeric:
        op = draw(st.sampled_from(list(ConditionOp)))
        if op is ConditionOp.BETWEEN:
            value = (draw(numeric_literals), draw(numeric_literals))
        else:
            value = draw(numeric_literals)
    else:
        op = draw(
            st.sampled_from([op for op in ConditionOp if op is not ConditionOp.BETWEEN])
        )
        equality = op in (ConditionOp.EQ, ConditionOp.NE)
        value = draw(text_literals if equality else numeric_text_literals)
    return Condition(
        column.name, column.attribute_type, op, value, negated=draw(st.booleans())
    )


def _or_null(values):
    return st.one_of(st.none(), st.sampled_from(values))


#: Rows with NULLs as likely as not in every non-Type-I column.
kernel_rows = st.fixed_dictionaries(
    {
        "make": st.sampled_from(("honda", "2010")),
        "model": st.sampled_from(("accord", "2010.0")),
        "color": _or_null(STORED_TEXT),
        "transmission": _or_null(("manual", "1999")),
        "year": _or_null(STORED_NUMBERS),
        "price": _or_null(STORED_NUMBERS),
        "mileage": _or_null(STORED_NUMBERS),
    }
)


@settings(max_examples=200, deadline=None)
@given(
    condition=kernel_conditions(),
    rows=st.lists(kernel_rows, min_size=1, max_size=8),
    windowed=st.booleans(),
)
def test_every_consumer_agrees_on_satisfaction(condition, rows, windowed):
    """``condition_satisfied``, the SQL executor (window or
    window-complement path), the fragment cache's patched set, the
    columnar ranker's failed conditions and the class ranking's give
    one verdict per row."""
    if windowed:  # a 64-row table of repeated rows
        rows = (rows * 64)[:64]
    database = Database()
    table = database.create_table(small_car_schema())
    engine = CQAds(database)
    unit = ScoringUnit(conditions=(condition,))
    unit_id_sets(SQLExecutor(database), table, [unit], engine.fragment_cache)
    records = [table.insert(row) for row in rows]
    patched = engine.fragment_cache.get(table, None, unit)
    assert patched is not None  # caught up insert by insert, never dropped

    expr = condition_to_expr(QueryBuilder(table.name), condition)
    selected = set(
        execute(database, f"SELECT * FROM car_ads WHERE {expr.to_sql()}").record_ids()
    )
    resources = RankingResources(
        ti_matrix=TIMatrix(),
        ws_matrix=WSMatrix(),
        value_ranges={},
        type_i_columns=["make", "model"],
    )
    resources.attach_table(table)
    ranked = columnar_rank_units(resources, records, [unit], None)
    assert ranked is not None  # every shape drawn here ranks columnar
    failed = {item.record.record_id: condition in item.failed for item in ranked}
    classed = class_rank_unit(resources, unit, set(), None)
    assert classed is not None and len(classed) == len(records)
    class_failed = {
        item.record.record_id: condition in item.failed for item in classed
    }

    for record in records:
        satisfied = condition_satisfied(condition, record)
        context = (expr.to_sql(), dict(record))
        assert (record.record_id in selected) == satisfied, context
        assert (record.record_id in patched) == satisfied, context
        assert failed[record.record_id] == (not satisfied), context
        assert class_failed[record.record_id] == (not satisfied), context
