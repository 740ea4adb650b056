"""The CQAds service-layer API.

This package is the preferred public surface of the reproduction:

* :mod:`repro.api.requests` — frozen :class:`AnswerRequest` /
  :class:`AnswerOptions` value objects carrying per-request overrides;
* :mod:`repro.api.stages` — :func:`answer_request`, the five steps of
  one question (classify → tag → interpret → execute → relax) with
  per-stage timings and optional :class:`StageTrace` explain traces;
* :mod:`repro.api.service` — :class:`AnswerService` with single,
  batched and paginated answering;
* :mod:`repro.api.pagination` — :class:`AnswerPage` cursors over a
  result's full ranking;
* :mod:`repro.api.builder` — the fluent :class:`SystemBuilder` over
  :func:`repro.system.build_system`.

The legacy surface (``CQAds.answer``, ``build_system``) answers
through the same function, so both produce bit-identical answers.
"""

from repro.perf.answer_cache import AnswerCache

from repro.api.builder import SystemBuilder
from repro.api.pagination import AnswerPage, page_result
from repro.api.requests import AnswerOptions, AnswerRequest, ResolvedOptions
from repro.api.service import AnswerService
from repro.api.stages import StageTrace, answer_request

__all__ = [
    "AnswerOptions",
    "AnswerRequest",
    "ResolvedOptions",
    "AnswerCache",
    "AnswerService",
    "AnswerPage",
    "page_result",
    "SystemBuilder",
    "StageTrace",
    "answer_request",
]
