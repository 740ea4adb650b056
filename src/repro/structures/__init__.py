"""Core data structures: the trie used throughout CQAds, and the lazy
read-only list that rankings are returned as.

Section 4.1.3 of the paper motivates the trie: string lookup in O(m)
for a word of length m, compact on disk, and better than hash tables
for the small static keyword inventories of an ads domain.  One trie is
built per ads domain (Section 4.1.4) and doubles as the spelling
corrector's search structure (Section 4.2.1).
"""

from repro.structures.lazylist import LazyList
from repro.structures.trie import Trie, TrieNode

__all__ = ["LazyList", "Trie", "TrieNode"]
