"""The predicate kernel: the one definition of "a value satisfies a leaf".

Every consumer that asks whether a stored value satisfies a condition
asks a :class:`Predicate`: the SQL executor evaluates WHERE leaves
from it, the fragment cache patches cached id-sets with it, Rank_Sim's
``condition_satisfied`` and the columnar ranker score with it, and the
ordered windows test membership with it.

A predicate is compiled once per WHERE leaf — ``column <op> literal``
or ``column BETWEEN low AND high``, with any NOT folded in — from the
column's kind (:data:`NUMERIC`, :data:`CATEGORICAL` or the
:data:`RECORD_ID` pseudo-column), the operator and the literal.  It
stores the **accepted interval** of comparison keys, a **complement**
flag and a **NULL verdict**; a stored value's verdict is the NULL
verdict when the value is NULL, and otherwise whether its key lies in
the interval, flipped when the predicate is complemented.  Keys are
the parsed float for numeric columns (:func:`parse_numeric`), the
stored (schema-lowercased) text for categorical ones and the id
itself for ``record_id``; a categorical literal is compared as its
lowercased text, so ``2010.0`` compares as ``"2010.0"``.

NULL rules (stated here and nowhere else):

* NULL fails every comparison, categorical ``!=`` included.
* Numeric ``!=`` is the complement of ``=``, so NULL passes it
  (pinned by ``test_numeric_not_equal_keeps_seed_semantics`` and the
  ``tests/test_window_index.py`` battery).
* ``col = NULL`` matches the NULLs (and ``col != NULL`` the rest).
  The exception is ``record_id = NULL``, which matches every record.
* NOT flips every verdict, NULL's included.

Literals are checked when the leaf compiles, so a malformed leaf raises
:class:`~repro.errors.SQLExecutionError` whether or not evaluation ever
reaches it: NULL takes only ``=``/``!=``, a numeric column needs a
numeric literal, and BETWEEN needs a numeric column (or ``record_id``)
and two numeric bounds.  NaN is no number anywhere: it is neither a
numeric literal nor a storable value.  A ``record_id`` compared with a
non-number matches nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import SQLExecutionError

__all__ = [
    "CATEGORICAL",
    "NUMERIC",
    "RECORD_ID",
    "Predicate",
    "between",
    "comparison",
    "literal_number",
    "parse_numeric",
    "value_key",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"
RECORD_ID = "record_id"


def parse_numeric(value: object) -> float | None:
    """The canonical numeric parse: a float, or ``None`` for NULL,
    non-numbers and NaN."""
    if value is None:
        return None
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return None
    return None if number != number else number


def literal_number(value: object) -> int | float | None:
    """A literal's numeric value; ``None`` for NULL, non-numbers and NaN.

    Integers stay exact (``record_id`` compares ids as integers) and
    everything else takes :func:`parse_numeric`, so ``2.5`` stays 2.5
    instead of truncating to 2.
    """
    if isinstance(value, int):
        return value
    return parse_numeric(value)


def _identity(value: object) -> object:
    return value


#: Stored value -> comparison key, per column kind (NULL handled first).
_KEY_OF: dict[str, Callable[[object], object]] = {
    NUMERIC: parse_numeric,
    CATEGORICAL: str,
    RECORD_ID: _identity,
}


def value_key(kind: str, value: object) -> object:
    """The comparison key of a stored value, ``None`` for NULL (and for
    a numeric column's non-number).  The ordered windows sort by it."""
    return None if value is None else _KEY_OF[kind](value)


def _interval_test(
    shape: str,
    low: object,
    high: object,
    include_low: bool,
    include_high: bool,
) -> Callable[[object], bool]:
    """Membership in the accepted interval, for a non-NULL key."""
    if shape == "empty":
        return lambda key: False
    if low is None and high is None:
        return lambda key: True
    if low is None:
        return (lambda key: key <= high) if include_high else (lambda key: key < high)
    if high is None:
        return (lambda key: key >= low) if include_low else (lambda key: key > low)
    return lambda key: low <= key <= high


class Predicate:
    """One compiled WHERE leaf (see the module docstring for the rules).

    ``shape`` names how the accepted interval is answered: ``empty``
    (nothing), ``all`` (every record: ``record_id = NULL``), ``equal``
    (one key: the hash index on a categorical column, the id itself on
    ``record_id``, a window slice on a numeric column) or a range shape
    (``range``, ``lex-range``, ``between``, ``id-range``,
    ``id-between``); the executor's access-path trace names the shape
    of every leaf a window answers.  ``low``/``high`` bound the interval (``None`` =
    unbounded on that side); an interval bounded on both sides
    (``equal``, BETWEEN) is closed.
    """

    __slots__ = (
        "column",
        "kind",
        "shape",
        "low",
        "high",
        "include_low",
        "include_high",
        "complement",
        "null_verdict",
        "_key",
        "_inside",
    )

    def __init__(
        self,
        column: str,
        kind: str,
        shape: str,
        low: object = None,
        high: object = None,
        include_low: bool = True,
        include_high: bool = True,
        complement: bool = False,
        null_verdict: bool = False,
    ) -> None:
        self.column = column
        self.kind = kind
        self.shape = shape
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.complement = complement
        self.null_verdict = null_verdict
        self._key = _KEY_OF[kind]
        self._inside = _interval_test(shape, low, high, include_low, include_high)

    def negated(self) -> "Predicate":
        """NOT this leaf: every verdict flips, NULL's included."""
        return Predicate(
            self.column,
            self.kind,
            self.shape,
            self.low,
            self.high,
            self.include_low,
            self.include_high,
            not self.complement,
            not self.null_verdict,
        )

    # ------------------------------------------------------------------
    def within(self, value: object) -> bool:
        """Whether a stored value lies in the accepted interval (a NULL
        never does) — membership in the leaf's index or window range,
        before the complement flag and the NULL verdict apply."""
        key = None if value is None else self._key(value)
        return key is not None and self._inside(key)

    def test(self, value: object) -> bool:
        """The leaf's verdict on one stored value."""
        if value is not None:
            key = self._key(value)
            if key is not None:
                return self._inside(key) != self.complement
        return self.null_verdict

    def test_keys(self, keys: Iterable[object]) -> list[bool]:
        """:meth:`test` over values already in key form (parsed floats,
        stored text or ids; ``None`` for NULL) — the bulk path for
        pre-parsed columns."""
        inside, complement, null = self._inside, self.complement, self.null_verdict
        return [null if key is None else inside(key) != complement for key in keys]

    def matches(self, record) -> bool:
        """The leaf's verdict on a record."""
        if self.kind == RECORD_ID:
            return self.test(record.record_id)
        return self.test(record.get(self.column))


# ----------------------------------------------------------------------
# compilation: literal checks and the operator -> interval translation
# ----------------------------------------------------------------------
def comparison(column: str, kind: str, operator: str, value: object) -> Predicate:
    """Compile ``column <operator> value`` (``<>`` spells ``!=``)."""
    operator = "!=" if operator == "<>" else operator
    if value is None:
        if operator not in ("=", "!="):
            raise SQLExecutionError("NULL only supports = / != comparisons")
        shape = "all" if kind == RECORD_ID else "empty"
        leaf = Predicate(column, kind, shape, null_verdict=True)
        return leaf.negated() if operator == "!=" else leaf
    if kind == CATEGORICAL:
        target: object = str(value).lower()
        shape = "lex-range"
    elif kind == RECORD_ID:
        target = literal_number(value)  # ints stay exact
        if target is None:
            return Predicate(column, kind, "empty")
        shape = "id-range"
    else:
        target = parse_numeric(value)
        if target is None:
            raise SQLExecutionError(
                f"numeric column {column!r} compared to non-number {value!r}"
            )
        shape = "range"
    if operator in ("=", "!="):
        # Numeric != is the complement of =; categorical != is not.
        ne = operator == "!="
        return Predicate(
            column,
            kind,
            "equal",
            target,
            target,
            complement=ne,
            null_verdict=ne and kind != CATEGORICAL,
        )
    if operator in ("<", "<="):
        return Predicate(
            column, kind, shape, high=target, include_high=operator == "<="
        )
    if operator in (">", ">="):
        return Predicate(
            column, kind, shape, low=target, include_low=operator == ">="
        )
    raise SQLExecutionError(f"unknown operator {operator!r}")


def between(column: str, kind: str, low: object, high: object) -> Predicate:
    """Compile ``column BETWEEN low AND high`` (inclusive both ends)."""
    if kind == CATEGORICAL:
        raise SQLExecutionError(
            f"BETWEEN requires a numeric column, got {column!r}"
        )
    if low is None or high is None:
        raise SQLExecutionError("BETWEEN bounds must not be NULL")
    parse = literal_number if kind == RECORD_ID else parse_numeric
    low_number, high_number = parse(low), parse(high)
    if low_number is None or high_number is None:
        raise SQLExecutionError(
            f"BETWEEN bounds must be numbers, got {low!r} and {high!r}"
        )
    shape = "id-between" if kind == RECORD_ID else "between"
    return Predicate(column, kind, shape, low_number, high_number)
