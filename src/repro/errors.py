"""Exception hierarchy for the CQAds reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems raise the most specific
subclass that applies; messages always carry enough context (attribute
names, offending tokens, SQL fragments) to diagnose a failure without a
debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A table schema is malformed or violated.

    Raised when a schema declares duplicate columns, when a record is
    inserted with values that do not fit the declared attribute types,
    or when a query references a column that does not exist.
    """


class UnknownColumnError(SchemaError):
    """A query or record referenced a column absent from the schema."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"table {table!r} has no column {column!r}")
        self.table = table
        self.column = column


class RecordNotFoundError(SchemaError):
    """A mutation addressed a ``record_id`` the table does not hold.

    Subclasses :class:`SchemaError` for backward compatibility (the
    misleading error ``Table.update``/``Table.delete`` used to raise),
    but the condition is about the *record*, not the schema — callers
    that distinguish "bad data" from "gone row" can now catch this.
    """

    def __init__(self, table: str, record_id: int, action: str) -> None:
        super().__init__(
            f"table {table!r} has no record #{record_id} to {action}"
        )
        self.table = table
        self.record_id = record_id
        self.action = action


class UnknownTableError(ReproError):
    """A query referenced a table that the database does not contain."""

    def __init__(self, table: str) -> None:
        super().__init__(f"database has no table {table!r}")
        self.table = table


class SQLError(ReproError):
    """Base class for problems in the SQL subsystem."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed.

    Attributes
    ----------
    position:
        Character offset into the SQL text where the problem was found,
        or ``-1`` when the offset is unknown (e.g. unexpected end of
        input).
    """

    def __init__(self, message: str, position: int = -1) -> None:
        suffix = f" (at offset {position})" if position >= 0 else ""
        super().__init__(message + suffix)
        self.position = position


class SQLExecutionError(SQLError):
    """A syntactically valid statement failed during evaluation."""


class QuestionError(ReproError):
    """Base class for problems while interpreting a user question."""


class EmptyQuestionError(QuestionError):
    """The question contained no essential keywords after cleaning."""


class ContradictionError(QuestionError):
    """The question's constraints can never be satisfied.

    The paper's Rule 1c terminates evaluation with ``search retrieved
    no results`` when two numeric bounds do not overlap (e.g. ``less
    than $2000 and more than $7000``); this exception carries that
    outcome to the caller.
    """


class ClassificationError(ReproError):
    """The domain classifier could not be used (e.g. not trained)."""


class RankingError(ReproError):
    """A ranking component was asked for a similarity it cannot produce."""


class DataGenerationError(ReproError):
    """The synthetic-data substrate was configured inconsistently."""


class StorageError(ReproError):
    """A durable-storage operation failed (`repro.store`).

    Raised when a WAL append exhausts its retry budget, a snapshot
    cannot be written or verified, a recovery directory holds no
    loadable state, or a stored table cannot be loaded as written
    (a snapshot that puts a record on a shard other than its hash
    placement, or a frame naming a placement other than the hash —
    recovery rejects such a snapshot and falls back a generation).
    Torn or corrupt WAL *tails* do **not** raise — recovery truncates
    them by contract — so hitting this during recovery means the
    directory is damaged beyond the crash-consistency model.
    """


class ServiceError(ReproError):
    """Base class for failures of the front door (`repro.api`).

    Errors about the service's own state — not about the question —
    derive from here, so a client can write one ``except ServiceError``
    around a request.  :class:`ServiceClosedError` is the one subclass.
    """


class ServiceClosedError(ServiceError, RuntimeError):
    """A request arrived after the service was closed.

    Also subclasses :class:`RuntimeError` so code written against the
    old untyped ``RuntimeError("AnswerService is closed")`` keeps
    catching it.
    """

    def __init__(self, service: str = "service") -> None:
        super().__init__(f"{service} is closed")
        self.service = service
