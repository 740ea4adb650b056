"""Tokenization for ads questions and ad text.

Ads questions mix plain words with domain-specific compounds: prices with
dollar signs (``$5,000``), mileage shorthands (``20k``), door counts
(``2dr``, ``4-door``), model years, and ranges (``$2000-$3000``).  A
naive ``str.split`` either glues punctuation onto tokens or splits the
compounds apart; this tokenizer keeps them usable:

* ``$5,000``      -> ``$5000``        (currency marker preserved)
* ``20k``         -> ``20k``          (kept whole; magnitude expansion is
  the tagger's job, because ``k`` only means "thousand" for numeric
  attributes)
* ``4-door``      -> ``4``, ``door``  (hyphen splits, since the trie
  stores space-separated variants)
* ``BMW.``        -> ``bmw``

Tokens are lowercased; CQAds matches attribute values case-insensitively
throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Token", "tokenize", "tokenize_with_spans", "normalize"]

# One token is either a currency amount, an alphanumeric word (possibly
# with internal apostrophe), or a standalone comparison symbol that the
# Boolean machinery understands.
_TOKEN_RE = re.compile(
    r"""
    \$\s?[\d][\d,]*(?:\.\d+)?k?     # currency: $5,000  $ 3000  $20k
    | \d[\d,]*(?:\.\d+)?k?\b        # numbers with separators: 12,400  20k
    | [A-Za-z0-9]+(?:'[A-Za-z]+)?   # words and alphanumerics: 2dr, honda
    | <=|>=|!=|[<>=]                # comparison operators
    """,
    re.VERBOSE,
)

_COMMA_IN_NUMBER_RE = re.compile(r"(?<=\d),(?=\d)")


@dataclass(frozen=True)
class Token:
    """A single token with its character span in the original text.

    Attributes
    ----------
    text:
        The normalized (lowercased, comma-stripped) token text.
    start, end:
        Character offsets into the original question, used for error
        reporting and for reconstructing what a spelling correction
        replaced.
    """

    text: str
    start: int
    end: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


def normalize(word: str) -> str:
    """Lowercase *word* and strip commas used as thousands separators."""
    if "," in word:
        word = _COMMA_IN_NUMBER_RE.sub("", word)
    return word.lower()


def _token_text(raw: str) -> str:
    """The normalized text of one matched token (``$ 3000`` -> ``$3000``)."""
    return normalize(raw.replace("$ ", "$"))


def _prepare(text: str) -> str:
    """Hyphens and slashes become spaces (``4-door`` is two tokens), so
    the tagging trie only needs space-separated multi-word entries.  The
    replacement is one-for-one, so match offsets stay offsets into
    *text*."""
    return text.replace("-", " ").replace("/", " ")


def tokenize_with_spans(text: str) -> list[Token]:
    """Tokenize *text*, returning :class:`Token` objects with spans."""
    return [
        Token(_token_text(match.group(0)), match.start(), match.end())
        for match in _TOKEN_RE.finditer(_prepare(text))
    ]


def tokenize(text: str) -> list[str]:
    """Tokenize *text* into normalized token strings: the texts of
    :func:`tokenize_with_spans`, without a span object per token."""
    return [_token_text(raw) for raw in _TOKEN_RE.findall(_prepare(text))]


def iter_words(text: str) -> Iterator[str]:
    """Yield plain alphabetic words from *text* (for corpus statistics).

    Unlike :func:`tokenize` this drops numbers and currency amounts; the
    WS-matrix (Section 4.3.2) is defined over words only.
    """
    for token in tokenize(text):
        if token.isalpha():
            yield token
