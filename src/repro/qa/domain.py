"""An ads domain as CQAds sees it: schema + vocabulary + trie + stats.

Section 4.1.4 of the paper: adding a domain means building a
domain-specific table of attribute values and constructing the trie
that tags question keywords.  :class:`AdsDomain` bundles those
artifacts:

* the relational schema (with Type I/II/III labels);
* the keyword trie, whose entries are attribute values, attribute-name
  synonyms and unit words, each carrying a :class:`TriePayload`;
* the observed numeric bounds (the "valid range" driving the
  incomplete-question best guess, Section 4.2.2);
* the ebay-style ``Attribute_Value_Range`` statistics feeding Eq. 4.

A domain can be built from a :class:`~repro.datagen.vocab.base.DomainSpec`
(the normal path) or reverse-engineered from a populated table
(:meth:`AdsDomain.from_table`), which is the fully-automated portion of
the paper's "adding a new ads domain" workflow (Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.schema import AttributeType, Column, TableSchema
from repro.db.table import Table
from repro.structures.trie import Trie
from repro.text.shorthand import ShorthandIndex

__all__ = ["TriePayload", "AdsDomain"]


@dataclass(frozen=True)
class TriePayload:
    """What a trie entry means.

    ``kind`` is one of:

    * ``"value"`` — a Type I/II attribute value; ``column`` and
      ``attribute_type`` say which attribute, ``value`` is the
      canonical stored value;
    * ``"attribute"`` — an attribute-name synonym ("price", "cost");
    * ``"unit"`` — a unit word ("dollars", "miles") identifying a
      Type III attribute (unit words are themselves Type III values
      per Section 4.1.1).
    """

    kind: str
    column: str
    attribute_type: AttributeType
    value: str | None = None


@dataclass
class AdsDomain:
    """Everything CQAds needs to answer questions in one domain."""

    name: str
    schema: TableSchema
    trie: Trie = field(default_factory=Trie)
    #: Trie over the *individual words* of every entry; the spelling
    #: corrector validates and repairs tokens against this one, while
    #: the phrase trie above drives multi-word tagging.
    word_trie: Trie = field(default_factory=Trie)
    value_ranges: dict[str, float] = field(default_factory=dict)
    numeric_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    _values_by_column: dict[str, list[str]] = field(default_factory=dict)
    _shorthand_index: ShorthandIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        name: str,
        schema: TableSchema,
        values_by_column: dict[str, list[str]],
        value_ranges: dict[str, float] | None = None,
        numeric_bounds: dict[str, tuple[float, float]] | None = None,
    ) -> "AdsDomain":
        """Build a domain from explicit per-column value inventories."""
        domain = cls(name=name, schema=schema)
        domain.value_ranges = dict(value_ranges or {})
        domain.numeric_bounds = dict(numeric_bounds or {})
        for column_name, values in values_by_column.items():
            column = schema.column(column_name)
            for value in values:
                domain.add_value(column, str(value))
        domain._index_attribute_words()
        domain._fill_missing_numeric_stats()
        return domain

    @classmethod
    def from_table(cls, name: str, table: Table) -> "AdsDomain":
        """Reverse-engineer a domain from a populated table.

        Categorical vocabularies come from the distinct stored values;
        numeric bounds are the smallest and largest stored value; value
        ranges come from the paper's top-10/bottom-10 statistic over the
        stored data.
        """
        schema = table.schema
        values_by_column: dict[str, list[str]] = {}
        numeric_bounds: dict[str, tuple[float, float]] = {}
        value_ranges: dict[str, float] = {}
        for column in schema.columns:
            if column.is_numeric:
                values = sorted(
                    float(record[column.name])
                    for record in table
                    if record.get(column.name) is not None
                )
                if values:
                    numeric_bounds[column.name] = (values[0], values[-1])
                    k = min(10, len(values))
                    span = sum(values[-k:]) / k - sum(values[:k]) / k
                    if span > 0:
                        value_ranges[column.name] = span
            else:
                values_by_column[column.name] = [
                    str(value) for value in table.distinct_values(column.name)
                ]
        return cls.from_values(
            name=name,
            schema=schema,
            values_by_column=values_by_column,
            value_ranges=value_ranges,
            numeric_bounds=numeric_bounds,
        )

    # ------------------------------------------------------------------
    def add_value(self, column: Column, value: str) -> None:
        """Register one attribute value in the trie and inventories."""
        value = value.strip().lower()
        if not value:
            return
        self._shorthand_index = None
        self._values_by_column.setdefault(column.name, [])
        if value not in self._values_by_column[column.name]:
            self._values_by_column[column.name].append(value)
        payload = TriePayload(
            kind="value",
            column=column.name,
            attribute_type=column.attribute_type,
            value=value,
        )
        self._insert_payload(value, payload)

    def _index_attribute_words(self) -> None:
        """Insert attribute-name synonyms and unit words into the trie."""
        for column in self.schema.columns:
            names = {column.name.replace("_", " ")} | set(column.synonyms)
            for word in names:
                self._insert_payload(
                    word.lower(),
                    TriePayload(
                        kind="attribute",
                        column=column.name,
                        attribute_type=column.attribute_type,
                    ),
                )
            for unit in column.unit_words:
                self._insert_payload(
                    unit.lower(),
                    TriePayload(
                        kind="unit",
                        column=column.name,
                        attribute_type=column.attribute_type,
                    ),
                )

    def _insert_payload(self, entry: str, payload: TriePayload) -> None:
        existing = self.trie.get(entry)
        if existing is None:
            self.trie.insert(entry, [payload])
        elif payload not in existing:
            existing.append(payload)
        for word in entry.split():
            if word not in self.word_trie:
                self.word_trie.insert(word, True)

    def _fill_missing_numeric_stats(self) -> None:
        """Default numeric bounds/ranges from the schema's valid_range."""
        for column in self.schema.numeric_columns:
            if column.valid_range is None:
                continue
            self.numeric_bounds.setdefault(column.name, column.valid_range)
            low, high = column.valid_range
            self.value_ranges.setdefault(column.name, high - low)

    # ------------------------------------------------------------------
    # lookups used by the tagger and the partial matcher
    # ------------------------------------------------------------------
    def values_of(self, column_name: str) -> list[str]:
        """All known values of a categorical column."""
        return list(self._values_by_column.get(column_name.lower(), []))

    def all_categorical_values(self) -> list[str]:
        """Every known Type I/II value (for shorthand matching)."""
        result: list[str] = []
        for column in self.schema.columns:
            if not column.is_numeric:
                result.extend(self._values_by_column.get(column.name, []))
        return result

    def shorthand_index(self) -> ShorthandIndex:
        """:meth:`all_categorical_values` indexed for shorthand matching
        (Section 4.2.3); built on first use, dropped by :meth:`add_value`."""
        index = self._shorthand_index
        if index is None:
            index = self._shorthand_index = ShorthandIndex(
                self.all_categorical_values()
            )
        return index

    def resolve_role(self, role: str) -> str | None:
        """Map an identifier role to this domain's column.

        The ``price`` role resolves to the first numeric column with a
        currency unit word (price, salary, …); the ``year`` role to a
        column literally named ``year``.  Returns ``None`` when the
        domain has no such column — "cheapest" is then meaningless and
        the tagger drops it.
        """
        if self.schema.has_column(role):
            return role
        if role == "price":
            for column in self.schema.numeric_columns:
                if any(unit in ("$", "usd", "dollars") for unit in column.unit_words):
                    return column.name
        return None

    def numeric_value_in_bounds(self, column_name: str, value: float) -> bool:
        """Is *value* inside the column's observed valid range?

        Section 4.2.2: a bare number is a potential value of every
        numeric attribute whose valid range contains it.
        """
        bounds = self.numeric_bounds.get(column_name)
        if bounds is None:
            return True
        low, high = bounds
        return low <= value <= high

    def attribute_value_range(self, column_name: str) -> float:
        """Eq. 4's normalization factor for one numeric column."""
        span = self.value_ranges.get(column_name)
        if span is not None and span > 0:
            return span
        bounds = self.numeric_bounds.get(column_name)
        if bounds is not None and bounds[1] > bounds[0]:
            return bounds[1] - bounds[0]
        return 1.0
