"""The golden answer corpus: seeded questions x 8 domains -> answers.

``tests/golden/<domain>.jsonl`` pins what the answer path returns for
50 generated questions per domain (noise 0.1, 120 ads per domain).
Each line is one question, as compact sorted-key JSON:

* ``text``, ``kind``, ``domain`` — the generated question;
* ``message``, ``sql``, ``pool`` — the result's message, its SQL and
  the size of the ranked pool behind the 30-answer cap;
* ``answers`` — one ``[record id, exact, repr(score), similarity
  kind, failed-condition indexes]`` list per presented answer, in
  order.  The indexes point into the interpretation's leaf conditions
  (``Interpretation.conditions()``) that the record does not satisfy.

``tests/test_golden.py`` re-answers every stored question on a plain
build and on a 4-shard build and requires each line back byte for
byte.  Regenerate (only when the paper's semantics are meant to
change, and say why in the commit) from the repository root::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.ranking.rank_sim import condition_satisfied
from repro.system import BuiltSystem, build_system

GOLDEN_DIR = Path(__file__).resolve().parent
QUESTIONS_PER_DOMAIN = 50
NOISE_RATE = 0.1
QUESTION_SEED = 1301
SYSTEM_SCALE = dict(
    ads_per_domain=120,
    sessions_per_domain=150,
    corpus_documents=150,
    train_classifier=False,
)


def build(shards: int | None = None) -> BuiltSystem:
    """The corpus's eight-domain system, plain or on *shards* shards."""
    return build_system(shards=shards, **SYSTEM_SCALE)


def corpus_path(domain: str) -> Path:
    return GOLDEN_DIR / f"{domain}.jsonl"


def answer_line(service: AnswerService, text: str, kind: str, domain: str) -> str:
    """Answer one question and render its corpus line."""
    result = service.answer(AnswerRequest(question=text, domain=domain))
    interpretation = result.interpretation
    conditions = interpretation.conditions() if interpretation is not None else []
    answers = [
        [
            answer.record.record_id,
            answer.exact,
            repr(answer.score),
            answer.similarity_kind,
            [
                index
                for index, condition in enumerate(conditions)
                if not condition_satisfied(condition, answer.record)
            ],
        ]
        for answer in result.answers
    ]
    return json.dumps(
        {
            "text": text,
            "kind": kind,
            "domain": result.domain,
            "message": result.message,
            "sql": result.sql,
            "pool": len(result.ranked_pool),
            "answers": answers,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def main() -> None:
    system = build()
    try:
        service = AnswerService(system.cqads)
        for domain in DOMAIN_NAMES:
            generator = make_generator(
                system.domain(domain).dataset,
                noise_rate=NOISE_RATE,
                seed=QUESTION_SEED,
            )
            lines = [
                answer_line(service, question.text, question.kind, domain)
                for question in generator.generate_many(QUESTIONS_PER_DOMAIN)
            ]
            corpus_path(domain).write_text("\n".join(lines) + "\n")
            print(f"{corpus_path(domain).name}: {len(lines)} questions")
    finally:
        system.close()


if __name__ == "__main__":
    main()
