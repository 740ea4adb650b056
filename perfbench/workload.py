"""Seeded workloads: system recipes, question pools and the op stream.

A workload is one closed-loop client.  It asks questions drawn from a
fixed, seeded pool and, on the churn workloads, interleaves one table
write per ``write_every`` questions.  Everything derives from the
benchmark's ``--seed``: the ads the system is built over, the question
pool, which pool entry each step asks and every write.  The program
under test only ever sees the generated question texts and rows.

Question mix: each block of 100 questions holds exactly
``KIND_SHARES`` questions of each kind from
:mod:`repro.datagen.questions`, shuffled.  Within a kind the question
is drawn zipfian over that kind's pool, so popular questions repeat,
but no seed can shift the kind mix.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field

from repro import AnswerRequest, SystemBuilder
from repro.datagen.ads import AdsGenerator
from repro.datagen.questions import QuestionGenerator
from repro.datagen.vocab import DOMAIN_NAMES

#: Questions of each kind per block of 100 (superlatives 8%).
KIND_SHARES = {
    "simple": 12,
    "boundary": 10,
    "between": 9,
    "superlative": 8,
    "incomplete": 9,
    "negation": 9,
    "mutex": 9,
    "range_combo": 9,
    "explicit_or": 9,
    "explicit_and": 8,
    "explicit_complex": 8,
}

#: Writes of each kind per block of 20: numeric price edits, Type II
#: value edits, inserts of new postings and deletes of live ads.
WRITE_SHARES = {"price": 10, "type_ii": 2, "insert": 5, "delete": 3}

#: Distinct questions per kind, and the zipf exponent over them.
POOL_PER_KIND = 48
ZIPF_EXPONENT = 0.7
NOISE_RATE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    domains: tuple[str, ...]
    ads_per_domain: int
    shards: int | None = None
    #: Name the domain in each request (``False``: the engine classifies).
    named_domain: bool = True
    #: One write after every this many questions (``0``: read-only).
    write_every: int = 0
    #: Writes timed after the question pass, so that write percentiles
    #: rest on enough samples (on read-only workloads, on all of them).
    write_probe: int = 0
    #: One untimed question after every this many probe writes: one
    #: where writes are as cheap as a collection (``read_mix``), four
    #: where a write costs several times one and questions are slow.
    probe_writes_per_question: int = 1


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("read_mix", DOMAIN_NAMES, 2000, named_domain=False,
                 write_probe=3000),
        Workload("churn_cars", ("cars",), 8000, write_every=4,
                 write_probe=1000, probe_writes_per_question=4),
        Workload("churn_cars_4shards", ("cars",), 8000, shards=4,
                 write_every=4, write_probe=1000, probe_writes_per_question=4),
    )
}


def build(workload: Workload, seed: int):
    """The default-configuration system of *workload*, built from *seed*."""
    return (
        SystemBuilder()
        .with_domains(*workload.domains)
        .ads_per_domain(workload.ads_per_domain)
        .with_seed(seed)
        .shards(workload.shards)
        .build()
    )


def _sub_rng(seed: int, *labels: str) -> random.Random:
    return random.Random(seed * 1_000_003 + zlib.crc32("/".join(labels).encode()))


@dataclass(frozen=True)
class Question:
    text: str
    domain: str
    kind: str
    #: The domain given in the request (``None``: classified).
    hint: str | None

    def request(self) -> AnswerRequest:
        return AnswerRequest(question=self.text, domain=self.hint)


@dataclass(frozen=True)
class Write:
    kind: str  # "update", "insert" or "delete"
    domain: str
    record_id: int | None = None
    values: dict | None = None


def question_pools(system, workload: Workload, seed: int) -> dict[str, list[Question]]:
    """``POOL_PER_KIND`` distinct questions per kind, spread evenly over
    the workload's domains and shuffled into a seeded popularity order."""
    pools: dict[str, list[Question]] = {}
    domains = workload.domains
    for kind in KIND_SHARES:
        seen: set[str] = set()
        pool: list[Question] = []
        for domain in domains:
            generator = QuestionGenerator(
                system.domain(domain).dataset,
                _sub_rng(seed, "questions", kind, domain),
                noise_rate=NOISE_RATE,
            )
            wanted = POOL_PER_KIND // len(domains)
            for _ in range(20 * wanted):
                if len(pool) >= wanted * (domains.index(domain) + 1):
                    break
                text = generator.generate(kind).text
                if text in seen:
                    continue
                seen.add(text)
                hint = domain if workload.named_domain else None
                pool.append(Question(text, domain, kind, hint))
        _sub_rng(seed, "popularity", kind).shuffle(pool)
        pools[kind] = pool
    return pools


def question_stream(pools: dict[str, list[Question]], seed: int):
    """An endless seeded question sequence with exact per-block kind shares."""
    rng = _sub_rng(seed, "stream")
    cumulative = {
        kind: list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))
        ))
        for kind, pool in pools.items()
    }
    block = [kind for kind, share in KIND_SHARES.items() for _ in range(share)]
    while True:
        rng.shuffle(block)
        for kind in block:
            pool = pools[kind]
            yield rng.choices(pool, cum_weights=cumulative[kind])[0]


@dataclass
class WriteSource:
    """Seeded table writes over the workload's live records.

    Tracks the live record ids itself (inserts report their new id
    through :meth:`applied`), so the victims of later updates and
    deletes depend only on the seed and the writes before them.
    """

    system: object
    workload: Workload
    seed: int
    live: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = _sub_rng(self.seed, "writes")
        self._ads = {
            domain: AdsGenerator(
                self.system.domain(domain).dataset.spec,
                _sub_rng(self.seed, "inserts", domain),
            )
            for domain in self.workload.domains
        }
        for domain in self.workload.domains:
            table = self.system.domain(domain).dataset.table
            self.live[domain] = sorted(table.all_ids())
        self._block: list[str] = []

    def _table(self, domain: str):
        return self.system.domain(domain).dataset.table

    def next(self) -> Write:
        if not self._block:
            self._block = [
                kind for kind, share in WRITE_SHARES.items() for _ in range(share)
            ]
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        domain = self._rng.choice(self.workload.domains)
        spec = self._ads[domain].spec
        if kind == "insert":
            return Write("insert", domain, values=self._ads[domain].generate().values)
        ids = self.live[domain]
        record_id = ids[self._rng.randrange(len(ids))]
        if kind == "delete":
            return Write("delete", domain, record_id)
        record = self._table(domain).get(record_id)
        if kind == "price":
            column = price_column(spec)
            old = float(record[column.name]) if record.get(column.name) is not None else 1000.0
            new = max(1.0, old * self._rng.uniform(0.85, 1.15))
            value = round(new, 2) if isinstance(record.get(column.name), float) else int(new)
            return Write("update", domain, record_id, {column.name: value})
        column = self._rng.choice(spec.schema.type_ii_columns)
        choices = [v for v in spec.type_ii_values[column.name] if v != record.get(column.name)]
        return Write("update", domain, record_id, {column.name: self._rng.choice(choices)})

    def applied(self, write: Write, result) -> None:
        """Keep the live-id list in step after *write* landed."""
        ids = self.live[write.domain]
        if write.kind == "insert":
            ids.append(result.record_id)
        elif write.kind == "delete":
            index = ids.index(write.record_id)
            ids[index] = ids[-1]
            ids.pop()


def price_column(spec):
    """The domain's price-like numeric column (what users bound most)."""
    for column in spec.schema.numeric_columns:
        if any(unit in ("$", "usd", "dollars") for unit in column.unit_words):
            return column
    return spec.schema.numeric_columns[0]


def apply_write(system, write: Write):
    """Apply *write* through the public table API; returns its result."""
    table = system.domain(write.domain).dataset.table
    if write.kind == "insert":
        return table.insert(write.values)
    if write.kind == "delete":
        return table.delete(write.record_id)
    return table.update(write.record_id, write.values)
