"""Cursor-style pagination over a question's full ranking.

The paper caps the presented list at 30 answers (Section 4.3.1), but
the pipeline ranks the whole candidate pool anyway — exact matches in
evaluation order followed by every Rank_Sim-ranked partial candidate,
kept on ``QuestionResult.ranked_pool``.  :func:`page_result` slices
that ranking, so walking past the cap needs no re-execution and no
re-scoring, and the ordering is stable because the scores are fixed
when the question is answered.  The pool is a lazy read-only list: the
answers past the presented ones are ordered (one sort of a scored
pool, or a further walk over a single-unit question's score classes)
and built only when a page reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qa.pipeline import Answer, QuestionResult

__all__ = ["AnswerPage", "page_result"]


@dataclass(frozen=True)
class AnswerPage:
    """One window into a result's full ranking."""

    answers: tuple[Answer, ...]
    offset: int
    limit: int
    total: int

    @property
    def has_more(self) -> bool:
        return self.offset + len(self.answers) < self.total

    @property
    def next_offset(self) -> int | None:
        """Cursor for the following page, or ``None`` at the end."""
        if not self.has_more:
            return None
        return self.offset + len(self.answers)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)


def page_result(
    result: QuestionResult, offset: int = 0, limit: int = 30
) -> AnswerPage:
    """Slice *result*'s full ranking (``ranked_pool``).

    Results produced before the pool existed (hand-built in tests, or
    deserialized) fall back to the capped ``answers`` list.
    """
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    if limit <= 0:
        # limit=0 would make next_offset == offset: an infinite cursor.
        raise ValueError(f"limit must be positive, got {limit}")
    pool = result.ranked_pool if result.ranked_pool else result.answers
    window = tuple(pool[offset : offset + limit])
    return AnswerPage(answers=window, offset=offset, limit=limit, total=len(pool))
