"""Synthetic ads-search query logs (the TI-matrix's training data).

Section 4.3.2 of the paper builds the TI-matrix from "query logs
obtained from local ads search engines", where each session carries a
user ID, query texts, dates/times, and clicked documents with their
engine ranks.  No such log is publicly available, so this module
simulates one from the latent similarity model:

* a session starts at a product and *reformulates*: with high
  probability the next query targets a similar product (sampled
  proportionally to latent similarity), otherwise the user jumps
  somewhere unrelated;
* reformulations between similar products happen *faster* (users
  refine quickly, wander slowly);
* each query returns a ranked result list in which similar products
  rank higher (plus noise — the simulated engine is imperfect);
* users click results of similar products more, and dwell on them
  longer.

The TI-matrix learner sees only these observable fields — never the
latent model — so recovering the similarity structure is a genuine
learning task.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.datagen.latent import LatentSimilarity
from repro.datagen.vocab.base import DomainSpec

__all__ = ["LogResult", "LoggedQuery", "Session", "QueryLogGenerator", "generate_query_log"]


@dataclass(frozen=True)
class LogResult:
    """One ranked result shown for a query."""

    product_key: tuple[str, ...]
    rank: int  # 1-based position assigned by the simulated engine
    clicked: bool
    dwell_seconds: float  # 0.0 when not clicked


@dataclass
class LoggedQuery:
    """One query within a session."""

    user_id: str
    timestamp: float  # seconds since session start
    text: str  # the query keywords ("honda accord")
    product_key: tuple[str, ...]
    results: list[LogResult] = field(default_factory=list)


@dataclass
class Session:
    """One user session: a period of sustained activity."""

    user_id: str
    queries: list[LoggedQuery] = field(default_factory=list)


class QueryLogGenerator:
    """Generates sessions for one domain.

    Products are walked by their index in ``spec.products``, which is
    the row order of *latent*'s :attr:`~LatentSimilarity.product_table`
    (so *latent* must model *spec*).  Every similarity is a table read
    and every key tuple is the product's one key, so the log costs the
    random draws and little else.
    """

    def __init__(
        self,
        spec: DomainSpec,
        latent: LatentSimilarity,
        rng: random.Random,
        results_per_query: int = 10,
        reformulate_probability: float = 0.7,
    ) -> None:
        self.spec = spec
        self.latent = latent
        self.rng = rng
        self.results_per_query = results_per_query
        self.reformulate_probability = reformulate_probability
        self._keys = latent.product_keys
        self._labels = [product.label() for product in spec.products]
        self._table = latent.product_table
        self._indices = range(len(spec.products))
        self._weights = [product.popularity for product in spec.products]

    # ------------------------------------------------------------------
    def generate(self, n_sessions: int) -> list[Session]:
        return [self._session(index) for index in range(n_sessions)]

    # ------------------------------------------------------------------
    def _session(self, index: int) -> Session:
        user_id = f"user{index:06d}"
        session = Session(user_id=user_id)
        product = self._random_product()
        timestamp = 0.0
        n_queries = self.rng.randint(1, 5)
        for _ in range(n_queries):
            query = LoggedQuery(
                user_id=user_id,
                timestamp=timestamp,
                text=self._labels[product],
                product_key=self._keys[product],
            )
            query.results = self._results_for(product)
            session.queries.append(query)
            next_product = self._next_product(product)
            similarity = self._table[product][next_product]
            # Similar reformulations come quickly; topic changes slowly.
            gap = 20.0 + 300.0 * (1.0 - similarity) + self.rng.uniform(0, 60)
            timestamp += gap
            product = next_product
        return session

    def _random_product(self) -> int:
        return self.rng.choices(self._indices, weights=self._weights, k=1)[0]

    def _next_product(self, current: int) -> int:
        if self.rng.random() < self.reformulate_probability:
            weights = [similarity + 0.01 for similarity in self._table[current]]
            return self.rng.choices(self._indices, weights=weights, k=1)[0]
        return self._random_product()

    def _results_for(self, queried: int) -> list[LogResult]:
        """Ranked results: similar products float to the top, noisily."""
        row = self._table[queried]
        gauss = self.rng.gauss
        noisy = [similarity + gauss(0, 0.15) for similarity in row]
        # Stable: equal scores keep product order, reversed or not.
        ranked = sorted(self._indices, key=noisy.__getitem__, reverse=True)
        results: list[LogResult] = []
        for position, candidate in enumerate(
            ranked[: self.results_per_query], start=1
        ):
            similarity = row[candidate]
            click_probability = similarity * 0.8 / position**0.5
            clicked = self.rng.random() < click_probability
            dwell = 0.0
            if clicked:
                dwell = 20.0 + 240.0 * similarity + self.rng.uniform(0, 30)
            results.append(
                LogResult(
                    product_key=self._keys[candidate],
                    rank=position,
                    clicked=clicked,
                    dwell_seconds=dwell,
                )
            )
        return results


def generate_query_log(
    spec: DomainSpec,
    latent: LatentSimilarity | None = None,
    n_sessions: int = 2000,
    seed: int = 11,
) -> list[Session]:
    """Generate a query log for *spec* with a stable per-domain seed."""
    latent = latent or LatentSimilarity(spec)
    rng = random.Random(seed ^ zlib.crc32(spec.name.encode()))
    generator = QueryLogGenerator(spec, latent, rng)
    return generator.generate(n_sessions)
