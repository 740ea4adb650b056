"""Trie-based spelling correction (Section 4.2.1 of the paper).

Two error classes are handled, exactly as the paper describes:

* **forgotten spaces** — "Hondaaccord less than $2000": while parsing a
  keyword, reaching the end of a trie branch with characters left over
  means a space was probably dropped; the word is split at the branch
  end and both halves are re-checked;
* **misspellings** — "honda accorr": when the trie walk dies mid-word,
  the alternatives reachable from the deepest node reached are scored
  with the ``similar_text`` percentage and the best one above a
  threshold replaces the misspelled word.

Corrections are validated against the domain's *word* trie (every
individual word of every attribute value, synonym and unit), so words
that only occur inside multi-word values ("wheel" of "4 wheel drive")
are recognized and never falsely "corrected".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.qa.domain import AdsDomain
from repro.qa.identifiers import IDENTIFIER_ENTRIES, classify_keyword
from repro.structures.trie import Trie
from repro.text.similar_text import similar_text_percent
from repro.text.stopwords import is_stopword

__all__ = ["Correction", "SpellingCorrector"]

_NUMERIC_RE = re.compile(r"^\$?\d[\d,.]*k?$")

# Below this similar_text percentage a candidate is considered noise
# and the original token is kept (returning irrelevant corrections is
# worse than returning the unknown word, which just gets dropped as
# non-essential later).
DEFAULT_THRESHOLD = 65.0

# Generic ad-speak that is legitimate in any question without being a
# keyword of any domain.  Without this list, "cars" would be
# "corrected" to the nearest model name.
GENERIC_WORDS: frozenset[str] = frozenset(
    """
    car cars autos vehicle vehicles truck trucks bike bikes ride
    motorcycle motorcycles scooter ad ads advert listing listings deal
    deals offer offers sale item items product products job jobs work
    position positions place good cheap nice quality condition used
    brand buy sell purchase price priced cost dollar dollars coupon
    coupons discount restaurant food clothes clothing outfit wear
    furniture instrument instruments music musical jewelry jewellery
    gift watch ring around approximately roughly budget
    """.split()
)


@dataclass(frozen=True)
class Correction:
    """Record of one applied correction (for reporting and tests)."""

    original: str
    corrected: str
    kind: str  # "split" | "respell"
    confidence: float  # similar_text percentage (100.0 for splits)


class SpellingCorrector:
    """Corrects the tokens of one question against one domain's tries."""

    def __init__(
        self, domain: AdsDomain, threshold: float = DEFAULT_THRESHOLD
    ) -> None:
        self.domain = domain
        self.threshold = threshold
        # Identifier keywords ("less", "between", "cheapest") are as
        # misspellable as attribute values; give them their own trie so
        # "lrss than 2000" recovers.
        self._identifier_trie = Trie()
        for entry in IDENTIFIER_ENTRIES:
            for word in entry.keyword.split():
                if len(word) >= 3 and word not in self._identifier_trie:
                    self._identifier_trie.insert(word, True)

    # ------------------------------------------------------------------
    def correct_tokens(
        self, tokens: list[str]
    ) -> tuple[list[str], list[Correction]]:
        """Return the corrected token list plus the corrections applied."""
        corrected: list[str] = []
        corrections: list[Correction] = []
        for token in tokens:
            pieces, applied = self._correct_one(token)
            corrected.extend(pieces)
            corrections.extend(applied)
        return corrected, corrections

    # ------------------------------------------------------------------
    def _is_known(self, token: str) -> bool:
        """Tokens that need no correction."""
        if _NUMERIC_RE.match(token):
            return True
        if is_stopword(token):
            return True
        if token in GENERIC_WORDS:
            return True
        if classify_keyword(token) is not None:
            return True
        return token in self.domain.word_trie

    def _correct_one(self, token: str) -> tuple[list[str], list[Correction]]:
        if self._is_known(token):
            return [token], []
        if len(token) < 4:
            # Very short unknown words ("car", "ad") are more likely
            # out-of-vocabulary than misspelled; editing them would do
            # more harm than dropping them as non-essential later.
            return [token], []
        split = self._try_split(token)
        if split is not None:
            return split, [
                Correction(token, " ".join(split), "split", 100.0)
            ]
        respelled, confidence = self._try_respell(token)
        # A word of a multi-word identifier ("expensive" of "more
        # expensive than") is unknown alone but respells to itself:
        # that is no correction.
        if respelled is not None and respelled != token:
            return [respelled], [
                Correction(token, respelled, "respell", confidence)
            ]
        return [token], []

    # ------------------------------------------------------------------
    def _try_split(self, token: str) -> list[str] | None:
        """Recover a forgotten space: "hondaaccord" -> ["honda", "accord"].

        Splits greedily at the longest known prefix, recursing on the
        remainder; every produced piece must be a known word, so the
        split never manufactures junk.
        """
        if len(token) < 4:
            return None
        prefix_match = self.domain.word_trie.longest_prefix_entry(token)
        while prefix_match is not None:
            prefix, _ = prefix_match
            remainder = token[len(prefix) :]
            if not remainder:
                return [prefix]
            if self._is_known(remainder):
                return [prefix, remainder]
            deeper = self._try_split(remainder)
            if deeper is not None:
                return [prefix] + deeper
            # Try the next-shorter known prefix before giving up.
            prefix_match = self._shorter_prefix(token, len(prefix))
        return None

    def _shorter_prefix(
        self, token: str, below_length: int
    ) -> tuple[str, object] | None:
        for length in range(below_length - 1, 1, -1):
            candidate = token[:length]
            if candidate in self.domain.word_trie:
                return candidate, True
        return None

    # ------------------------------------------------------------------
    def _try_respell(self, token: str) -> tuple[str | None, float]:
        """Correct a misspelling per the paper's procedure.

        Walk the word trie until the walk dies, collect the
        alternatives reachable from the deepest surviving node, score
        each with ``similar_text`` and take the best above threshold.
        """
        candidates = self._candidates(self.domain.word_trie, token)
        candidates += [
            word
            for word in self._candidates(self._identifier_trie, token)
            if word not in candidates
        ]
        best: str | None = None
        best_score = self.threshold
        for candidate in candidates:
            if abs(len(candidate) - len(token)) > 3:
                continue
            score = similar_text_percent(token, candidate)
            if score > best_score or (
                score == best_score and best is not None and candidate < best
            ):
                best, best_score = candidate, score
        if best is None:
            return None, 0.0
        return best, best_score

    def _candidates(self, trie: Trie, token: str) -> list[str]:
        """Alternative keywords "starting from the current node".

        The walk is retried from progressively shorter prefixes: a typo
        in position k still leaves a correct prefix of length k, and
        backing off guards against typos near the front.
        """
        seen: list[str] = []
        node = trie.root
        depth = 0
        for ch in token:
            nxt = node.child(ch)
            if nxt is None:
                break
            node = nxt
            depth += 1
        # Back off at most two characters from the deepest node so the
        # candidate pool stays relevant to the typed prefix.
        for back in range(0, 3):
            if depth - back < 1:
                break
            prefix = token[: depth - back]
            prefix_node = trie.find_node(prefix)
            if prefix_node is None:
                continue
            for entry, _ in trie.closest_entries(prefix_node, limit=100):
                if entry not in seen:
                    seen.append(entry)
        return seen
