"""Shorthand-notation detection (Section 4.2.3 of the paper).

Users abbreviate attribute values freely: a four-door car may be
written ``4dr``, ``4 dr``, ``four door``, ``4 doors``, ``4-door`` or
``4doors``.  The paper's detector rests on one observation:

    "any shorthand notation N of a data value V only includes
    characters from V, and the characters in N should have the same
    order as characters in V."

So ``dr`` is shorthand for ``door`` (``d`` then ``r`` appear in order),
but ``rd`` is not.  On top of the raw subsequence test this module adds
the normalizations needed in practice (and implied by the paper's
examples): digits and number-words are interchangeable (``4``/``four``),
whitespace and hyphens are ignored, and a trailing plural ``s`` on the
full value is optional.

The match is deliberately conservative: a candidate shorter than two
characters, or matching less than half of the value's word count,
is rejected to avoid e.g. ``r`` matching ``red``, ``radio`` and
``rear camera`` simultaneously.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["is_shorthand", "shorthand_match", "expand_shorthand", "ShorthandIndex"]

_NUMBER_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12",
}


def _prepared(text: str) -> tuple[list[str], str]:
    """*text*'s words (lowercased, hyphens read as spaces) and its
    canonical form (see :func:`_canonical`)."""
    words = text.lower().replace("-", " ").split()
    return words, "".join([_NUMBER_WORDS.get(word, word) for word in words])


def _canonical(value: str) -> str:
    """Normalize *value* for shorthand comparison.

    Lowercases, converts number-words to digits, and removes spaces and
    hyphens, so that ``"Four Door"`` and ``"4door"`` canonicalize to
    comparable forms.
    """
    return _prepared(value)[1]


def _is_ordered_subsequence(short: str, full: str) -> bool:
    """True when every character of *short* appears in *full* in order."""
    it = iter(full)
    return all(ch in it for ch in short)


def is_shorthand(candidate: str, value: str) -> bool:
    """Return ``True`` when *candidate* is a shorthand of *value*.

    Both arguments are natural-language strings; normalization
    (case, digits vs. number words, separators, plural ``s``) happens
    here.  A value is trivially shorthand of itself.

    >>> is_shorthand("4dr", "4 doors")
    True
    >>> is_shorthand("rd", "door")
    False
    """
    candidate_words, short = _prepared(candidate)
    value_words, full = _prepared(value)
    if not short or not full:
        return False
    return _abbreviates(candidate_words, short, value_words, full)


def _abbreviates(
    candidate_words: list[str], short: str, value_words: list[str], full: str
) -> bool:
    """:func:`is_shorthand` on prepared, non-empty forms.

    Every branch that accepts needs ``short[0] == full[0]`` (the
    word-wise one through its first word), which is what lets
    :class:`ShorthandIndex` test a candidate against one bucket only.
    """
    if short == full:
        return True
    if full.endswith("s") and short == full[:-1]:
        return True
    # Word-wise matching: "lrg pizza" abbreviates "large pizza" when
    # each word abbreviates (or equals) the corresponding value word.
    if len(candidate_words) == len(value_words) > 1:
        if all(
            word == target or is_shorthand(word, target)
            for word, target in zip(candidate_words, value_words)
        ):
            return True
    # Shorthand must be strictly shorter, at least 2 characters, begin
    # with the same character, and cover at least a third of the value:
    # otherwise single letters match nearly everything.
    if len(short) < 2 or len(short) >= len(full):
        return False
    if short[0] != full[0]:
        return False
    if len(short) * 3 < len(full):
        return False
    target = full[:-1] if full.endswith("s") else full
    return _is_ordered_subsequence(short, target) or _is_ordered_subsequence(
        short, full
    )


class ShorthandIndex:
    """A value list prepared for shorthand matching.

    Each value's words and canonical form are computed once, and the
    values are bucketed by the canonical form's first character,
    keeping list order within a bucket.  A candidate can only abbreviate
    a value whose canonical form starts with its own first character
    (:func:`_abbreviates`), so :meth:`match` tests one bucket and
    returns what a scan of the whole list would.
    """

    __slots__ = ("_buckets",)

    def __init__(self, values: Iterable[str]) -> None:
        self._buckets: dict[str, list[tuple[str, list[str], str]]] = {}
        for value in values:
            words, full = _prepared(value)
            if full:
                self._buckets.setdefault(full[0], []).append((value, words, full))

    def match(self, candidate: str) -> str | None:
        """The value *candidate* abbreviates, or ``None``.

        When several values match, the one with the highest character
        coverage (``len(shorthand)/len(value)``) wins, since a shorthand
        that explains more of the value is the less ambiguous reading;
        an equal coverage goes to the value listed first.
        """
        words, short = _prepared(candidate)
        if not short:
            return None
        best: str | None = None
        best_coverage = 0.0
        for value, value_words, full in self._buckets.get(short[0], ()):
            if _abbreviates(words, short, value_words, full):
                coverage = len(short) / len(full)
                if coverage > best_coverage:
                    best, best_coverage = value, coverage
        return best


def shorthand_match(candidate: str, values: list[str]) -> str | None:
    """Return the value in *values* that *candidate* abbreviates
    (:meth:`ShorthandIndex.match` over an index of *values*)."""
    return ShorthandIndex(values).match(candidate)


def expand_shorthand(
    tokens: list[str],
    values: ShorthandIndex | list[str],
    skip=None,
) -> list[str]:
    """Replace shorthand tokens with their full attribute values.

    Tries two-token windows first (``4 dr`` -> ``4 doors``) and then
    single tokens, leaving unmatched tokens untouched.  Returns a new
    token list.  *values* is a value list or its :class:`ShorthandIndex`
    (a domain keeps one, :meth:`repro.qa.domain.AdsDomain.shorthand_index`).

    *skip* is an optional predicate: tokens for which it returns True
    are never treated as (part of) a shorthand.  The question tagger
    passes one that exempts stopwords and identifier keywords, so "or
    a" is never read as shorthand for "orange".
    """
    index = values if isinstance(values, ShorthandIndex) else ShorthandIndex(values)
    if skip is None:
        skip = lambda _token: False  # noqa: E731 - trivial default
    result: list[str] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if skip(token):
            result.append(token)
            i += 1
            continue
        if i + 1 < len(tokens) and not skip(tokens[i + 1]):
            match = index.match(f"{token} {tokens[i + 1]}")
            if match is not None:
                result.extend(match.lower().split())
                i += 2
                continue
        match = index.match(token)
        if match is not None and match.lower() != token:
            result.extend(match.lower().split())
        else:
            result.append(token)
        i += 1
    return result
