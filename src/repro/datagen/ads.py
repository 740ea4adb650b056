"""Ad-record generation: the synthetic stand-in for ebay.com data.

Section 4.1.4 of the paper seeds each domain with 500 ads scraped from
ads websites; Section 4.3.2 derives each numeric attribute's
``Attribute_Value_Range`` from ebay's 10 highest and 10 lowest values.
This module replaces both: :class:`AdsGenerator` samples realistic
records from a :class:`~repro.datagen.vocab.base.DomainSpec`, and
:class:`DomainDataset` computes the same top-10/bottom-10 range
statistic from the generated ads.

Correlations that matter to the experiments are preserved:

* price is drawn from the *product's* band (a BMW costs more than a
  Kia), skewed by vehicle age where a year column exists;
* mileage-like usage columns anti-correlate with year;
* each ad renders to a line of text (identity + properties + numbers +
  filler phrases) that trains the domain classifier and seeds the
  corpus generator.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.datagen.vocab import build_domain_spec
from repro.datagen.vocab.base import DomainSpec, Product
from repro.db.database import Database
from repro.db.table import Record, Table

__all__ = ["GeneratedAd", "AdsGenerator", "DomainDataset", "build_dataset"]

_USAGE_COLUMNS = ("mileage",)  # columns that anti-correlate with year


@dataclass
class GeneratedAd:
    """One synthetic ad: its record values, source product and text."""

    values: dict[str, object]
    product: Product
    text: str


class AdsGenerator:
    """Samples ads for one domain spec."""

    def __init__(self, spec: DomainSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._weights = [product.popularity for product in spec.products]

    # ------------------------------------------------------------------
    def sample_product(self) -> Product:
        return self.rng.choices(self.spec.products, weights=self._weights, k=1)[0]

    def generate(self) -> GeneratedAd:
        """Generate one ad."""
        product = self.sample_product()
        values: dict[str, object] = dict(product.identity)
        for column in self.spec.schema.type_ii_columns:
            if self.rng.random() < self.spec.type_ii_missing_rate:
                continue
            values[column.name] = self.rng.choice(
                self.spec.type_ii_values[column.name]
            )
        self._fill_numeric(values, product)
        text = self._render_text(values)
        return GeneratedAd(values=values, product=product, text=text)

    def generate_many(self, count: int) -> list[GeneratedAd]:
        return [self.generate() for _ in range(count)]

    # ------------------------------------------------------------------
    def _fill_numeric(self, values: dict[str, object], product: Product) -> None:
        year_column = "year" if self.spec.schema.has_column("year") else None
        age_factor = None
        if year_column is not None:
            low, high = self.spec.numeric_range(year_column, product)
            year = self.rng.randint(int(low), int(high))
            values[year_column] = year
            age_factor = (year - low) / max(high - low, 1.0)  # 1.0 = newest
        for column in self.spec.schema.numeric_columns:
            if column.name == year_column:
                continue
            low, high = self.spec.numeric_range(column.name, product)
            base = self.rng.random()
            if age_factor is not None:
                if column.name in _USAGE_COLUMNS:
                    # older vehicles accumulate usage
                    base = 0.7 * (1.0 - age_factor) + 0.3 * base
                elif column.name == "price":
                    # newer vehicles hold value
                    base = 0.6 * age_factor + 0.4 * base
            value = low + base * (high - low)
            values[column.name] = round(value, 2) if high - low < 50 else int(value)

    def _render_text(self, values: dict[str, object]) -> str:
        """Render the ad as the free-text line a website would show."""
        parts: list[str] = []
        if "year" in values:
            parts.append(str(values["year"]))
        for column in self.spec.schema.type_i_columns:
            parts.append(str(values[column.name]))
        for column in self.spec.schema.type_ii_columns:
            value = values.get(column.name)
            if value is not None:
                parts.append(str(value))
        for column in self.spec.schema.numeric_columns:
            if column.name == "year":
                continue
            value = values.get(column.name)
            if value is None:
                continue
            unit = column.unit_words[0] if column.unit_words else column.name
            if unit == "$":
                parts.append(f"${value}")
            else:
                parts.append(f"{value} {unit}")
        filler_count = self.rng.randint(2, 4)
        if self.spec.filler_phrases:
            parts.extend(
                self.rng.sample(
                    self.spec.filler_phrases,
                    k=min(filler_count, len(self.spec.filler_phrases)),
                )
            )
        return ", ".join(parts)


@dataclass
class DomainDataset:
    """One domain's generated data, loaded into a table.

    Attributes
    ----------
    spec:
        The domain specification.
    table:
        The populated :class:`~repro.db.table.Table`.
    ads:
        The generated ads, aligned with the table's records
        (``ads[i]`` produced ``records[i]``).
    records:
        Inserted records in insertion order.
    value_ranges:
        Per numeric column: the paper's ebay-style
        ``Attribute_Value_Range`` — mean of the 10 largest values minus
        mean of the 10 smallest (Section 4.3.2).
    """

    spec: DomainSpec
    table: Table
    ads: list[GeneratedAd]
    records: list[Record]
    value_ranges: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name

    def ad_texts(self) -> list[str]:
        return [ad.text for ad in self.ads]

    def product_of_record(self, record_id: int) -> Product:
        """The source product of a record (ground truth for appraisers)."""
        for record, ad in zip(self.records, self.ads):
            if record.record_id == record_id:
                return ad.product
        raise KeyError(f"no generated record with id {record_id}")

    def compute_value_ranges(self) -> None:
        """Compute the top-10/bottom-10 range statistic per Eq. 4."""
        self.value_ranges = {}
        for column in self.spec.schema.numeric_columns:
            values = sorted(
                float(record[column.name])
                for record in self.records
                if record.get(column.name) is not None
            )
            if not values:
                continue
            k = min(10, len(values))
            low_mean = sum(values[:k]) / k
            high_mean = sum(values[-k:]) / k
            span = high_mean - low_mean
            if span <= 0:
                # degenerate single-value column: fall back to spec range
                low, high = self.spec.numeric_range(column.name)
                span = high - low
            self.value_ranges[column.name] = span


def build_dataset(
    domain: str | DomainSpec,
    database: Database,
    ads_per_domain: int = 500,
    seed: int = 7,
    shards: int | None = None,
) -> DomainDataset:
    """Generate *ads_per_domain* ads for *domain* into *database*.

    The default of 500 matches the paper's per-domain ad count
    (Section 4.1.4).  The table name comes from the domain schema.
    With ``shards`` the records load into a partitioned
    :class:`~repro.shard.table.ShardedTable` instead of a single
    table; generation is identical either way (same rng stream, same
    global record ids), so a sharded and an unsharded build of the
    same seed hold bit-identical data.
    """
    spec = domain if isinstance(domain, DomainSpec) else build_domain_spec(domain)
    # str hashes are salted per-process, so derive a stable per-domain
    # seed with crc32 instead of hash().
    rng = random.Random(seed ^ zlib.crc32(spec.name.encode()))
    generator = AdsGenerator(spec, rng)
    ads = generator.generate_many(ads_per_domain)
    table = database.create_table(spec.schema, shards=shards)
    # insert_many notifies mutation listeners once for the whole seed
    # batch — on a running system (a domain added after the build)
    # per-row inserts would notify them once per ad.
    records = table.insert_many(ad.values for ad in ads)
    dataset = DomainDataset(spec=spec, table=table, ads=ads, records=records)
    dataset.compute_value_ranges()
    return dataset
