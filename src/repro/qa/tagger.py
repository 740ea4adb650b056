"""Keyword tagging with context-switching analysis (Sections 4.1.2-4.1.3).

The tagger turns a raw question into an ordered stream of *tagged
items*:

* :class:`~repro.qa.conditions.Condition` leaves for recognized Type
  I/II values and resolved Type III constraints;
* :class:`IncompleteNumeric` placeholders for bare numbers whose
  attribute could not be determined (Section 4.2.2's best guess
  expands them later);
* :class:`~repro.qa.conditions.Superlative` items;
* :class:`Marker` items for explicit Boolean operators.

Processing order per token:

1. spelling correction (Section 4.2.1) and shorthand expansion
   (Section 4.2.3) normalize the token stream;
2. greedy longest-phrase matching against the domain trie recognizes
   multi-word attribute values ("4 wheel drive") and attribute names;
3. the identifiers table (Table 1) classifies comparison, superlative,
   negation and Boolean keywords;
4. numbers are bound to an attribute by *context switching*: a unit
   word after the number, an attribute word or comparison seen before
   it, a currency sign, or — failing all of those — the valid-range
   analysis of Section 4.2.2.

Everything unrecognized is a non-essential keyword and is dropped, as
in the paper's Example 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.db.schema import AttributeType
from repro.qa.conditions import Condition, ConditionOp, Superlative
from repro.qa.domain import AdsDomain, TriePayload
from repro.qa.identifiers import KeywordClass, classify_keyword
from repro.qa.spelling import GENERIC_WORDS, Correction, SpellingCorrector
from repro.text.shorthand import expand_shorthand
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import tokenize

__all__ = ["IncompleteNumeric", "Marker", "TaggedQuestion", "QuestionTagger"]

_MAX_PHRASE_TOKENS = 4
_NUMBER_RE = re.compile(r"^(\$)?(\d+(?:\.\d+)?)(k)?$")


@dataclass(frozen=True)
class IncompleteNumeric:
    """A number whose attribute the question does not name.

    ``currency`` is True when the user wrote a dollar sign, which
    restricts the candidates to price-like columns.
    """

    value: float
    op: ConditionOp
    negated: bool = False
    currency: bool = False
    high_value: float | None = None  # set for incomplete BETWEEN

    def describe(self) -> str:
        if self.high_value is not None:
            return f"? BETWEEN {self.value:g} AND {self.high_value:g}"
        return f"? {self.op.value} {self.value:g}"


@dataclass(frozen=True)
class Marker:
    """An explicit Boolean operator in the question ("AND"/"OR")."""

    operator: str

    def describe(self) -> str:
        return self.operator


TaggedItem = Union[Condition, IncompleteNumeric, Superlative, Marker]


@dataclass
class TaggedQuestion:
    """The tagger's output for one question."""

    items: list[TaggedItem]
    corrections: list[Correction]
    essential_tokens: list[str]
    dropped_tokens: list[str]

    def conditions(self) -> list[Condition]:
        return [item for item in self.items if isinstance(item, Condition)]

    def superlatives(self) -> list[Superlative]:
        return [item for item in self.items if isinstance(item, Superlative)]

    def incomplete(self) -> list[IncompleteNumeric]:
        return [item for item in self.items if isinstance(item, IncompleteNumeric)]

    def has_explicit_boolean(self) -> bool:
        return any(isinstance(item, Marker) for item in self.items)

    def describe(self) -> str:
        return "  ".join(item.describe() for item in self.items)


@dataclass
class _State:
    """Context-switching state carried across tokens."""

    negation: bool = False
    op: ConditionOp | None = None
    column: str | None = None
    #: The last Type III column explicitly named or resolved in the
    #: question — context switching lets "below $11500 and not less
    #: than 11000" bind the unit-less 11000 to price.
    last_column: str | None = None
    partial_superlative: bool | None = None  # the pending extreme
    between: bool = False
    between_first: float | None = None
    between_currency: bool = False

    def clear_numeric_context(self) -> None:
        self.op = None
        self.column = None
        self.between = False
        self.between_first = None
        self.between_currency = False


class QuestionTagger:
    """Tags questions for one :class:`~repro.qa.domain.AdsDomain`."""

    def __init__(self, domain: AdsDomain, correct_spelling: bool = True) -> None:
        self.domain = domain
        self.corrector = SpellingCorrector(domain) if correct_spelling else None

    # ------------------------------------------------------------------
    def tag(self, question: str) -> TaggedQuestion:
        """Tag *question*, returning the item stream."""
        tokens = tokenize(question)
        corrections: list[Correction] = []
        if self.corrector is not None:
            tokens, corrections = self.corrector.correct_tokens(tokens)
        tokens = expand_shorthand(
            tokens,
            self.domain.shorthand_index(),
            skip=self._exempt_from_shorthand,
        )
        items: list[TaggedItem] = []
        essential: list[str] = []
        dropped: list[str] = []
        state = _State()
        i = 0
        while i < len(tokens):
            consumed = self._step(tokens, i, items, state, essential, dropped)
            i += consumed
        self._flush_between(items, state)
        return TaggedQuestion(
            items=items,
            corrections=corrections,
            essential_tokens=essential,
            dropped_tokens=dropped,
        )

    # ------------------------------------------------------------------
    def _exempt_from_shorthand(self, token: str) -> bool:
        """Tokens that must never be read as (part of) a shorthand.

        Stopwords, identifier keywords and already-known domain words
        carry their own meaning; treating them as abbreviations causes
        false matches ("or a" -> "orange").
        """
        if token.isdigit():
            return False  # digits legitimately start shorthands ("2 dr")
        if is_stopword(token):
            return True
        if token in GENERIC_WORDS:
            return True  # "car" is not shorthand for "camry"
        if classify_keyword(token) is not None:
            return True
        return token in self.domain.word_trie

    def _step(
        self,
        tokens: list[str],
        i: int,
        items: list[TaggedItem],
        state: _State,
        essential: list[str],
        dropped: list[str],
    ) -> int:
        token = tokens[i]
        # 1. numbers first: "2 door" style values are caught by phrase
        #    matching *inside* the number handler via lookahead.
        phrase_length, payloads = self._match_phrase(tokens, i)
        number_match = _NUMBER_RE.match(token)
        # A bare token that is literally a Type I value ("mazda 3"'s
        # model) reads as the identity, not as a quantity.
        number_is_identity = (
            number_match is not None
            and phrase_length == 1
            and any(
                payload.kind == "value"
                and payload.attribute_type is AttributeType.TYPE_I
                for payload in payloads
            )
            and state.op is None
            and state.column is None
            and not state.between
        )
        if phrase_length > 0 and (
            number_match is None or phrase_length > 1 or number_is_identity
        ):
            phrase = " ".join(tokens[i : i + phrase_length])
            self._handle_payloads(phrase, payloads, items, state)
            essential.append(phrase)
            return phrase_length
        if number_match is not None:
            consumed = self._handle_number(tokens, i, number_match, items, state)
            essential.append(token)
            return consumed
        if i + 1 < len(tokens):
            # Two-word identifier phrases ("most expensive", "leave
            # out") outrank their first word's own identifier.
            pair = f"{token} {tokens[i + 1]}"
            pair_entry = classify_keyword(pair)
            if pair_entry is not None:
                self._handle_identifier(pair_entry, items, state)
                essential.append(pair)
                return 2
        entry = classify_keyword(token)
        if entry is not None:
            self._handle_identifier(entry, items, state)
            essential.append(token)
            return 1
        if is_stopword(token):
            dropped.append(token)
            return 1
        # Unknown keyword: non-essential, dropped (Example 2).
        dropped.append(token)
        return 1

    # ------------------------------------------------------------------
    def _match_phrase(
        self, tokens: list[str], i: int
    ) -> tuple[int, list[TriePayload]]:
        """Longest phrase at position *i* known to the domain trie."""
        max_len = min(_MAX_PHRASE_TOKENS, len(tokens) - i)
        for length in range(max_len, 0, -1):
            phrase = " ".join(tokens[i : i + length])
            payloads = self.domain.trie.get(phrase)
            if payloads:
                return length, list(payloads)
        return 0, []

    @staticmethod
    def _best_payload(payloads: list[TriePayload]) -> TriePayload:
        """Prefer Type I values over Type II over attribute/unit tags."""
        def rank(payload: TriePayload) -> tuple[int, int]:
            kind_rank = {"value": 0, "attribute": 1, "unit": 2}[payload.kind]
            type_rank = {
                AttributeType.TYPE_I: 0,
                AttributeType.TYPE_II: 1,
                AttributeType.TYPE_III: 2,
            }[payload.attribute_type]
            return (kind_rank, type_rank)

        return min(payloads, key=rank)

    def _handle_payloads(
        self,
        phrase: str,
        payloads: list[TriePayload],
        items: list[TaggedItem],
        state: _State,
    ) -> None:
        payload = self._best_payload(payloads)
        if payload.kind == "value":
            items.append(
                Condition(
                    column=payload.column,
                    attribute_type=payload.attribute_type,
                    op=ConditionOp.EQ,
                    value=payload.value or phrase,
                    negated=state.negation,
                )
            )
            state.negation = False
            return
        # attribute-name or unit word
        if payload.attribute_type is AttributeType.TYPE_III:
            if state.partial_superlative is not None:
                items.append(
                    Superlative(
                        column=payload.column, maximum=state.partial_superlative
                    )
                )
                state.partial_superlative = None
                return
            state.column = payload.column
            state.last_column = payload.column
        # attribute words for Type I/II columns carry no constraint
        # ("what color ...") and are ignored.

    # ------------------------------------------------------------------
    def _handle_identifier(
        self, entry, items: list[TaggedItem], state: _State
    ) -> None:
        if entry.keyword_class is KeywordClass.NEGATION:
            state.negation = True
            return
        if entry.keyword_class is KeywordClass.COMPARISON:
            state.op = entry.op
            return
        if entry.keyword_class is KeywordClass.BETWEEN:
            state.between = True
            state.between_first = None
            return
        if entry.keyword_class is KeywordClass.COMPLETE_BOUNDARY:
            column = self.domain.resolve_role(entry.role)
            if column is not None:
                state.op = entry.op
                state.column = column
            return
        if entry.keyword_class is KeywordClass.SUPERLATIVE_COMPLETE:
            column = self.domain.resolve_role(entry.role)
            if column is not None:
                items.append(Superlative(column=column, maximum=entry.maximum))
            return
        if entry.keyword_class is KeywordClass.SUPERLATIVE_PARTIAL:
            if state.column is not None:
                # "price lowest" ordering: attribute came first
                items.append(
                    Superlative(column=state.column, maximum=entry.maximum)
                )
                state.column = None
            else:
                state.partial_superlative = entry.maximum
            return
        if entry.keyword_class is KeywordClass.BOOLEAN_AND:
            # AND between the two BETWEEN bounds belongs to the range.
            if not state.between:
                items.append(Marker("AND"))
            return
        if entry.keyword_class is KeywordClass.BOOLEAN_OR:
            items.append(Marker("OR"))
            return

    # ------------------------------------------------------------------
    def _handle_number(
        self,
        tokens: list[str],
        i: int,
        match: re.Match,
        items: list[TaggedItem],
        state: _State,
    ) -> int:
        currency = match.group(1) is not None
        value = float(match.group(2))
        if match.group(3):  # trailing 'k'
            value *= 1000.0
        consumed = 1
        # Lookahead for a unit word ("20k miles", "5000 dollars").
        unit_column: str | None = None
        if i + 1 < len(tokens):
            next_payloads = self.domain.trie.get(tokens[i + 1])
            if next_payloads:
                for payload in next_payloads:
                    if (
                        payload.kind in ("unit", "attribute")
                        and payload.attribute_type is AttributeType.TYPE_III
                    ):
                        unit_column = payload.column
                        consumed = 2
                        break
        if state.between:
            if state.between_first is None:
                state.between_first = value
                state.between_currency = currency
                if unit_column is not None:
                    state.column = unit_column
                return consumed
            low, high = sorted((state.between_first, value))
            column = unit_column or state.column
            currency = currency or state.between_currency
            self._emit_range(items, state, column, low, high, currency)
            state.clear_numeric_context()
            state.negation = False
            return consumed
        column = unit_column or state.column
        op = state.op or ConditionOp.EQ
        if state.partial_superlative is not None and state.op is None:
            # "max 5000" reads as an inclusive bound, not a superlative
            op = (
                ConditionOp.LE
                if state.partial_superlative
                else ConditionOp.GE
            )
            state.partial_superlative = None
        if column is None and currency:
            column = self.domain.resolve_role("price")
        if column is None and state.last_column is not None and (
            self.domain.numeric_value_in_bounds(state.last_column, value)
        ):
            # Context switching: a bare number inherits the attribute
            # the question was just talking about.
            column = state.last_column
        if column is None:
            column = self._only_candidate(value)
        if column is not None:
            state.last_column = column
            items.append(
                Condition(
                    column=column,
                    attribute_type=AttributeType.TYPE_III,
                    op=op,
                    value=value,
                    negated=state.negation,
                )
            )
        else:
            items.append(
                IncompleteNumeric(
                    value=value,
                    op=op,
                    negated=state.negation,
                    currency=currency,
                )
            )
        state.negation = False
        state.clear_numeric_context()
        return consumed

    def _emit_range(
        self,
        items: list[TaggedItem],
        state: _State,
        column: str | None,
        low: float,
        high: float,
        currency: bool,
    ) -> None:
        if column is None and currency:
            column = self.domain.resolve_role("price")
        if column is None and state.last_column is not None and all(
            self.domain.numeric_value_in_bounds(state.last_column, v)
            for v in (low, high)
        ):
            column = state.last_column
        if column is None:
            column = self._only_candidate(low, high)
        if column is not None:
            state.last_column = column
            items.append(
                Condition(
                    column=column,
                    attribute_type=AttributeType.TYPE_III,
                    op=ConditionOp.BETWEEN,
                    value=(low, high),
                    negated=state.negation,
                )
            )
        else:
            items.append(
                IncompleteNumeric(
                    value=low,
                    op=ConditionOp.BETWEEN,
                    negated=state.negation,
                    currency=currency,
                    high_value=high,
                )
            )

    def _only_candidate(self, *values: float) -> str | None:
        """The single numeric column whose valid range contains *values*.

        When exactly one attribute could hold the number there is no
        ambiguity and no best-guess expansion is needed.
        """
        candidates = [
            column.name
            for column in self.domain.schema.numeric_columns
            if all(
                self.domain.numeric_value_in_bounds(column.name, value)
                for value in values
            )
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _flush_between(self, items: list[TaggedItem], state: _State) -> None:
        """An unfinished BETWEEN ("within 5000") degrades to <=."""
        if state.between and state.between_first is not None:
            column = state.column
            if column is None and state.between_currency:
                column = self.domain.resolve_role("price")
            if column is None:
                column = self._only_candidate(state.between_first)
            if column is not None:
                items.append(
                    Condition(
                        column=column,
                        attribute_type=AttributeType.TYPE_III,
                        op=ConditionOp.LE,
                        value=state.between_first,
                        negated=state.negation,
                    )
                )
            else:
                items.append(
                    IncompleteNumeric(
                        value=state.between_first,
                        op=ConditionOp.LE,
                        negated=state.negation,
                        currency=state.between_currency,
                    )
                )
