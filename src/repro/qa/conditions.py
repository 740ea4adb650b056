"""The condition model: what a question asks for.

Section 4.1.2 of the paper: "Any constraint on an attribute value a
user specified in an ads question constitutes a condition."  A
condition targets a column of the domain schema, carries the column's
Type I/II/III classification (which drives evaluation order,
Section 4.3), and for Type III columns is either an exact value, a
boundary (range), or folds into a superlative.

An :class:`Interpretation` is the full reading of a question: a Boolean
tree of conditions (after the implicit-Boolean rules of Section 4.4.1
have run) plus an optional superlative, which the paper always
evaluates last.

These classes are shared between the live pipeline and the synthetic
question generator, so ground truth and system output are directly
comparable structures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from repro.db.schema import AttributeType

__all__ = [
    "ConditionOp",
    "BooleanOperator",
    "Condition",
    "ConditionGroup",
    "Superlative",
    "Interpretation",
    "ConditionNode",
]


class ConditionOp(enum.Enum):
    """Comparison operator of a condition."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"

    @property
    def is_range(self) -> bool:
        return self in (
            ConditionOp.LT,
            ConditionOp.LE,
            ConditionOp.GT,
            ConditionOp.GE,
            ConditionOp.BETWEEN,
        )


class BooleanOperator(enum.Enum):
    AND = "AND"
    OR = "OR"


@dataclass(frozen=True)
class Condition:
    """One selection criterion.

    Attributes
    ----------
    column:
        Schema column the condition constrains.
    attribute_type:
        The paper's Type I/II/III label for the column.
    op:
        Comparison operator; Type I/II conditions are always EQ or NE
        (negation of EQ), Type III may be any operator.
    value:
        A string for categorical columns; a number for numeric columns;
        a ``(low, high)`` tuple when ``op`` is BETWEEN.
    negated:
        True for negations ("not red", "except blue"); Section 4.4.1.
    """

    column: str
    attribute_type: AttributeType
    op: ConditionOp
    value: Union[str, float, int, tuple[float, float]]
    negated: bool = False

    def __post_init__(self) -> None:
        if self.op is ConditionOp.BETWEEN and not isinstance(self.value, tuple):
            raise ValueError("BETWEEN conditions need a (low, high) tuple value")
        if self.op is not ConditionOp.BETWEEN and isinstance(self.value, tuple):
            raise ValueError(f"{self.op} condition cannot take a tuple value")

    def __hash__(self) -> int:
        # Fragment-cache keys and column-store memos hash conditions
        # (and tuples of them) dozens of times per question;
        # the generated dataclass hash re-tuples all five fields each
        # call, so memoize it on first use.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash(
                (self.column, self.attribute_type, self.op, self.value, self.negated)
            )
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        # str hashes are salted per process (PYTHONHASHSEED), so a
        # memoized hash must never cross the pickle boundary into
        # another process — equal conditions with unequal hashes would
        # corrupt any dict keyed on them there.  The compiled kernel
        # predicate (sql_generation.condition_predicate) holds closures
        # and recompiles on demand, so it stays behind too.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        state.pop("_predicate", None)
        return state

    # ------------------------------------------------------------------
    def negate(self) -> "Condition":
        """The logical complement of this condition.

        Rule 1a of the paper replaces a negated quantifier "by its
        complement": the complement of ``< x`` is ``>= x``, and the
        complement of an already-negated condition is its positive
        form.  For EQ/NE conditions the ``negated`` flag is flipped
        (categorical complements stay symbolic).
        """
        if self.negated:
            return replace(self, negated=False)
        complements = {
            ConditionOp.LT: ConditionOp.GE,
            ConditionOp.LE: ConditionOp.GT,
            ConditionOp.GT: ConditionOp.LE,
            ConditionOp.GE: ConditionOp.LT,
        }
        if self.op in complements:
            return replace(self, op=complements[self.op])
        return replace(self, negated=True)

    def resolve_negation(self) -> "Condition":
        """Rule 1a: rewrite a negated range condition in positive form.

        ``NOT(price < 2000)`` becomes ``price >= 2000``; non-negated
        conditions and negated equalities are returned unchanged.
        """
        if not self.negated:
            return self
        return replace(self, negated=False).negate()

    def describe(self) -> str:
        """Human-readable rendering, used in explanations and surveys."""
        prefix = "NOT " if self.negated else ""
        if self.op is ConditionOp.BETWEEN:
            low, high = self.value  # type: ignore[misc]
            return f"{prefix}{self.column} BETWEEN {low:g} AND {high:g}"
        if isinstance(self.value, (int, float)):
            return f"{prefix}{self.column} {self.op.value} {self.value:g}"
        return f"{prefix}{self.column} {self.op.value} {self.value}"

    def sort_rank(self) -> int:
        """Evaluation-order rank per Section 4.3 (lower runs first)."""
        order = {
            AttributeType.TYPE_I: 0,
            AttributeType.TYPE_II: 1,
            AttributeType.TYPE_III: 2,
        }
        return order[self.attribute_type]


@dataclass
class ConditionGroup:
    """A Boolean combination of conditions (and nested groups)."""

    operator: BooleanOperator
    children: list["ConditionNode"] = field(default_factory=list)

    def describe(self) -> str:
        inner = f" {self.operator.value} ".join(
            child.describe() for child in self.children
        )
        return f"({inner})"

    def iter_conditions(self) -> Iterator[Condition]:
        """All leaf conditions in the group, depth-first."""
        for child in self.children:
            if isinstance(child, Condition):
                yield child
            else:
                yield from child.iter_conditions()

    def simplified(self) -> "ConditionNode":
        """Collapse single-child groups; returns self otherwise."""
        if len(self.children) == 1:
            child = self.children[0]
            return child.simplified() if isinstance(child, ConditionGroup) else child
        return self


ConditionNode = Union[Condition, ConditionGroup]


@dataclass(frozen=True)
class Superlative:
    """A max/min request evaluated after all other criteria.

    Section 4.1.2's superlatives: *complete* ones name the attribute
    implicitly ("cheapest" → price), *partial* ones ("lowest",
    "max") need context-switching to attach to an attribute.
    """

    column: str
    maximum: bool

    def describe(self) -> str:
        extreme = "MAX" if self.maximum else "MIN"
        return f"{extreme}({self.column})"


@dataclass
class Interpretation:
    """The full interpretation of a question.

    ``tree`` is ``None`` when the question only carries a superlative
    ("cheapest car").  ``superlative`` is applied to the records that
    satisfy ``tree`` — the paper's evaluation order makes this the
    final step (Section 4.3).
    """

    tree: ConditionNode | None = None
    superlative: Superlative | None = None

    def conditions(self) -> list[Condition]:
        """All leaf conditions, in tree order."""
        if self.tree is None:
            return []
        if isinstance(self.tree, Condition):
            return [self.tree]
        return list(self.tree.iter_conditions())

    def condition_count(self) -> int:
        return len(self.conditions())

    def describe(self) -> str:
        parts = []
        if self.tree is not None:
            parts.append(self.tree.describe())
        if self.superlative is not None:
            parts.append(self.superlative.describe())
        return " THEN ".join(parts) if parts else "(match everything)"

    def is_pure_conjunction(self) -> bool:
        """True when the tree is a flat AND of positive conditions.

        The N-1 relaxation (Section 4.3.1) only applies to conjunctive
        questions; Boolean questions already encode alternatives.
        """
        if self.tree is None:
            return True
        if isinstance(self.tree, Condition):
            return not self.tree.negated
        if self.tree.operator is not BooleanOperator.AND:
            return False
        return all(
            isinstance(child, Condition) and not child.negated
            for child in self.tree.children
        )


def flatten_and(node: ConditionNode) -> list[ConditionNode]:
    """Flatten nested AND groups into a single child list.

    ``AND(a, AND(b, c))`` becomes ``[a, b, c]``; OR groups and leaves
    are returned as-is (single-element list).  Used by the N-1
    relaxation, which operates on the top-level conjuncts.
    """
    if isinstance(node, ConditionGroup) and node.operator is BooleanOperator.AND:
        flattened: list[ConditionNode] = []
        for child in node.children:
            flattened.extend(flatten_and(child))
        return flattened
    return [node]


def conjunction(conditions: list[Condition]) -> ConditionNode | None:
    """Build the default all-AND tree the paper applies to non-Boolean
    questions (footnote 3: consecutive values are ANDed by default)."""
    if not conditions:
        return None
    if len(conditions) == 1:
        return conditions[0]
    return ConditionGroup(BooleanOperator.AND, list(conditions))
