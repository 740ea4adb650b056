"""Table schemas with the paper's attribute-type classification.

Section 4.1.1 defines three attribute types for ads records:

* **Type I** — the unique identifier of the product/service (e.g. car
  Make and Model); primary-indexed fields, required in every ad.
* **Type II** — descriptive properties (e.g. Color, Transmission);
  secondary-indexed fields, optional.
* **Type III** — quantitative values (e.g. Price, Mileage, Year);
  range-searchable numeric fields, optionally carrying a unit
  ("usd", "miles").

A :class:`TableSchema` couples that classification with the storage
kind of each column (categorical string vs. numeric), the valid range
for numeric columns, and the synonyms users employ to name the
attribute in questions ("price", "cost", "$" all denote Price).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.db.predicate import parse_numeric
from repro.errors import SchemaError, UnknownColumnError

__all__ = ["AttributeType", "ColumnKind", "Column", "TableSchema"]


class AttributeType(enum.Enum):
    """The paper's Type I / II / III attribute classification."""

    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Type {self.value}"


class ColumnKind(enum.Enum):
    """Storage kind of a column."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Column:
    """One column of an ads table.

    Attributes
    ----------
    name:
        Canonical column name (lowercase, e.g. ``"make"``).
    attribute_type:
        The paper's Type I/II/III classification, which drives both
        indexing (primary vs. secondary) and question evaluation order
        (Section 4.3).
    kind:
        Categorical (string equality/similarity) or numeric
        (range-searchable).
    unit_words:
        Words that identify this column's unit in questions, e.g.
        ``("usd", "dollars", "$")`` for a price column.  Unit words are
        themselves Type III attribute values per Section 4.1.1.
    synonyms:
        Words users write to name this attribute ("cost" for price).
    valid_range:
        Inclusive ``(low, high)`` bounds for numeric columns; used by
        the incomplete-question "best guess" (Section 4.2.2) to decide
        which attributes a bare number could quantify.
    """

    name: str
    attribute_type: AttributeType
    kind: ColumnKind = ColumnKind.CATEGORICAL
    unit_words: tuple[str, ...] = ()
    synonyms: tuple[str, ...] = ()
    valid_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.name != self.name.lower():
            raise SchemaError(f"column names must be lowercase: {self.name!r}")
        if self.kind is ColumnKind.NUMERIC and self.attribute_type is not AttributeType.TYPE_III:
            raise SchemaError(
                f"numeric column {self.name!r} must be Type III "
                f"(got {self.attribute_type})"
            )
        if self.valid_range is not None and self.valid_range[0] > self.valid_range[1]:
            raise SchemaError(
                f"column {self.name!r} has inverted valid_range {self.valid_range}"
            )

    @property
    def is_numeric(self) -> bool:
        return self.kind is ColumnKind.NUMERIC


@dataclass
class TableSchema:
    """Schema of one ads-domain table.

    Columns are ordered; Type I columns must come first (they are the
    primary key of the ad per Section 4.1.1).
    """

    table_name: str
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SchemaError(
                f"table {self.table_name!r} declares duplicate columns: "
                f"{sorted(duplicates)}"
            )
        if not any(
            column.attribute_type is AttributeType.TYPE_I for column in self.columns
        ):
            raise SchemaError(
                f"table {self.table_name!r} must declare at least one "
                "Type I (identifier) column"
            )
        self._by_name = {column.name: column for column in self.columns}
        # Built once: every insert validates a whole row against them.
        self._type_i = self.columns_of_type(AttributeType.TYPE_I)
        self._numeric_names = frozenset(
            column.name for column in self.columns if column.is_numeric
        )

    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the column called *name* (case-insensitive)."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise UnknownColumnError(self.table_name, name) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def columns_of_type(self, attribute_type: AttributeType) -> list[Column]:
        """All columns with the given Type I/II/III classification."""
        return [
            column
            for column in self.columns
            if column.attribute_type is attribute_type
        ]

    @property
    def type_i_columns(self) -> list[Column]:
        return self.columns_of_type(AttributeType.TYPE_I)

    @property
    def type_ii_columns(self) -> list[Column]:
        return self.columns_of_type(AttributeType.TYPE_II)

    @property
    def type_iii_columns(self) -> list[Column]:
        return self.columns_of_type(AttributeType.TYPE_III)

    @property
    def numeric_columns(self) -> list[Column]:
        return [column for column in self.columns if column.is_numeric]

    # ------------------------------------------------------------------
    def validate_record(self, record: dict[str, object]) -> dict[str, object]:
        """Validate and normalize a record against this schema.

        * every key must be a known column;
        * Type I values are required and non-empty;
        * numeric columns get coerced to ``float``/``int`` (NaN, like
          any non-number, is rejected);
        * categorical values are lowercased strings (CQAds matches
          case-insensitively).

        Returns the normalized record; raises :class:`SchemaError` on
        violations.
        """
        normalized = self._normalize(record)
        self._require_type_i(normalized, self._type_i)
        return normalized

    def validate_values(self, values: dict[str, object]) -> dict[str, object]:
        """Validate and normalize the *values* of an update.

        The rules of :meth:`validate_record`, applied to the given
        columns only: the Type I requirement covers the Type I columns
        among them, since the stored row already met it for the rest.
        """
        normalized = self._normalize(values)
        self._require_type_i(
            normalized,
            [
                self._by_name[name]
                for name in normalized
                if self._by_name[name].attribute_type is AttributeType.TYPE_I
            ],
        )
        return normalized

    def _normalize(self, record: dict[str, object]) -> dict[str, object]:
        normalized: dict[str, object] = {}
        by_name, numeric = self._by_name, self._numeric_names
        for key, value in record.items():
            # Stored rows use the canonical (lowercase) names, so the
            # exact key almost always hits; column() lowercases the rest.
            name = key if key in by_name else self.column(key).name
            if value is None:
                normalized[name] = None
            elif name in numeric:
                if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise SchemaError(
                        f"{self.table_name}.{name}: numeric column got {value!r}"
                    )
                number = parse_numeric(value)
                if number is None:
                    raise SchemaError(
                        f"{self.table_name}.{name}: cannot convert "
                        f"{value!r} to a number"
                    )
                normalized[name] = int(number) if number.is_integer() else number
            else:
                normalized[name] = str(value).strip().lower()
        return normalized

    def _require_type_i(
        self, normalized: dict[str, object], columns: list[Column]
    ) -> None:
        for column in columns:
            if not normalized.get(column.name):
                raise SchemaError(
                    f"{self.table_name}: Type I column {column.name!r} is "
                    "required in every ad"
                )
