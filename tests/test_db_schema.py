"""Tests for the schema layer (Type I/II/III attribute model)."""

from __future__ import annotations

import pytest

from repro.db.predicate import parse_numeric
from repro.db.schema import AttributeType, Column, ColumnKind, TableSchema
from repro.errors import SchemaError, UnknownColumnError
from tests.conftest import small_car_schema


class TestColumn:
    def test_lowercase_names_enforced(self):
        with pytest.raises(SchemaError):
            Column("Make", AttributeType.TYPE_I)

    def test_numeric_must_be_type_iii(self):
        with pytest.raises(SchemaError):
            Column("price", AttributeType.TYPE_II, ColumnKind.NUMERIC)

    def test_inverted_range_rejected(self):
        with pytest.raises(SchemaError):
            Column(
                "price",
                AttributeType.TYPE_III,
                ColumnKind.NUMERIC,
                valid_range=(100, 10),
            )

    def test_is_numeric(self):
        schema = small_car_schema()
        assert schema.column("price").is_numeric
        assert not schema.column("make").is_numeric


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            TableSchema(
                table_name="t",
                columns=[
                    Column("make", AttributeType.TYPE_I),
                    Column("make", AttributeType.TYPE_II),
                ],
            )

    def test_requires_a_type_i_column(self):
        with pytest.raises(SchemaError, match="Type I"):
            TableSchema(
                table_name="t",
                columns=[Column("color", AttributeType.TYPE_II)],
            )

    def test_column_lookup_case_insensitive(self):
        schema = small_car_schema()
        assert schema.column("MAKE").name == "make"

    def test_unknown_column_raises(self):
        schema = small_car_schema()
        with pytest.raises(UnknownColumnError) as excinfo:
            schema.column("engine")
        assert excinfo.value.column == "engine"
        assert excinfo.value.table == "car_ads"

    def test_columns_of_type_partition(self):
        schema = small_car_schema()
        names_i = [c.name for c in schema.type_i_columns]
        names_ii = [c.name for c in schema.type_ii_columns]
        names_iii = [c.name for c in schema.type_iii_columns]
        assert names_i == ["make", "model"]
        assert names_ii == ["color", "transmission"]
        assert names_iii == ["year", "price", "mileage"]
        assert len(names_i) + len(names_ii) + len(names_iii) == len(
            schema.columns
        )


class TestValidateRecord:
    def test_normalizes_categorical_to_lowercase(self):
        schema = small_car_schema()
        record = schema.validate_record(
            {"make": " Honda ", "model": "Accord", "price": 5000}
        )
        assert record["make"] == "honda"
        assert record["model"] == "accord"

    def test_coerces_numeric_strings(self):
        schema = small_car_schema()
        record = schema.validate_record(
            {"make": "honda", "model": "accord", "price": "5000"}
        )
        assert record["price"] == 5000
        assert isinstance(record["price"], int)

    def test_float_values_preserved(self):
        schema = small_car_schema()
        record = schema.validate_record(
            {"make": "honda", "model": "accord", "price": 5000.5}
        )
        assert record["price"] == 5000.5

    def test_type_i_required(self):
        schema = small_car_schema()
        with pytest.raises(SchemaError, match="required"):
            schema.validate_record({"make": "honda", "price": 5000})

    def test_unknown_column_rejected(self):
        schema = small_car_schema()
        with pytest.raises(UnknownColumnError):
            schema.validate_record(
                {"make": "honda", "model": "accord", "engine": "v6"}
            )

    def test_non_numeric_value_in_numeric_column(self):
        schema = small_car_schema()
        with pytest.raises(SchemaError):
            schema.validate_record(
                {"make": "honda", "model": "accord", "price": "cheap"}
            )

    def test_none_allowed_for_optional_columns(self):
        schema = small_car_schema()
        record = schema.validate_record(
            {"make": "honda", "model": "accord", "color": None}
        )
        assert record["color"] is None

    def test_bool_rejected_for_numeric(self):
        schema = small_car_schema()
        with pytest.raises(SchemaError):
            schema.validate_record(
                {"make": "honda", "model": "accord", "price": True}
            )


def _reference_validate(schema: TableSchema, record: dict) -> dict:
    """``validate_record`` written out: a case-insensitive column lookup
    per key and the Type I columns listed on every call."""
    normalized: dict = {}
    for key, value in record.items():
        column = schema.column(key)
        if value is None:
            normalized[column.name] = None
        elif column.is_numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise SchemaError(
                    f"{schema.table_name}.{column.name}: numeric column got {value!r}"
                )
            number = parse_numeric(value)
            if number is None:
                raise SchemaError(
                    f"{schema.table_name}.{column.name}: cannot convert "
                    f"{value!r} to a number"
                )
            normalized[column.name] = int(number) if number.is_integer() else number
        else:
            normalized[column.name] = str(value).strip().lower()
    for column in schema.columns_of_type(AttributeType.TYPE_I):
        if not normalized.get(column.name):
            raise SchemaError(
                f"{schema.table_name}: Type I column {column.name!r} is "
                "required in every ad"
            )
    return normalized


def _outcome(validate, record: dict):
    """The normalized items in order, or the error's type and message."""
    try:
        return list(validate(record).items())
    except Exception as error:  # the reference raises what the schema does
        return type(error), str(error)


VALIDATION_ROWS = [
    {"Make": " Honda ", "MODEL": "Accord", "Price": "9000", "Color": "Blue"},
    {"make": "honda", "model": "civic", "price": " 12.5 ", "mileage": "1e3"},
    {"make": "honda", "model": "fit", "price": float("nan")},
    {"make": "honda", "model": "fit", "Price": "NaN"},
    {"make": "honda", "model": "fit", "price": True},
    {"make": "honda", "model": "fit", "YEAR": False},
    {"make": "honda", "model": "fit", "color": True, "transmission": 6},
    {"make": "honda", "model": "fit", "Color": None, "PRICE": None},
    {"make": None, "model": "fit"},
    {"MAKE": "", "model": "fit"},
    {"make": "honda", "Model": None},
    {"make": "honda", "model": "fit", "price": [9000]},
    {"make": "honda", "model": "fit", "price": "cheap"},
    {"make": "honda", "model": "fit", "price": 2**60 + 1, "year": 2005.0},
    {"Make": "Honda", "make": "toyota", "model": "corolla"},
    {"make": "honda", "model": "fit", "Colour": "red"},
    {"price": 5000, "make": "kia", "model": "rio"},
]


@pytest.mark.parametrize("row", VALIDATION_ROWS)
def test_validate_record_matches_the_written_out_rules(row):
    """Normalized values, their order and every error message equal the
    written-out reference: mixed-case keys, numeric strings, NaN, bools
    and ``None`` included."""
    schema = small_car_schema()
    assert _outcome(schema.validate_record, row) == _outcome(
        lambda record: _reference_validate(schema, record), row
    )
