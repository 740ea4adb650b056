"""The latent similarity model behind the synthetic data.

Every stochastic generator in this package (query logs, corpora,
appraiser judgments) is driven by one shared notion of "how similar are
these two things really":

* two **products** (Type I identities) are similar when they share a
  market segment (group), and mildly similar when their price bands
  overlap — a Honda Accord and a Toyota Camry are both midsize sedans,
  which is exactly the paper's motivating example ("Honda Accord is
  relevant to a search for Toyota Camry", Section 2.2);
* two **property words** (Type II values) are similar when the domain
  spec places them in the same word cluster;
* two **numeric values** are similar by proximity relative to the
  attribute's range (the paper's Eq. 4 — the latent model and CQAds
  agree on numeric similarity by construction, as both follow the
  paper).

The learned resources (TI-matrix from the query log, WS-matrix from the
corpus) only ever see *samples* drawn from this model, never the model
itself; the simulated appraisers see the model directly.  That keeps
the Figure 5 comparison non-circular while giving CQAds a learnable
signal.
"""

from __future__ import annotations

from repro.datagen.vocab.base import DomainSpec, Product

__all__ = ["LatentSimilarity"]

SAME_PRODUCT = 1.0
SAME_GROUP = 0.8
PRICE_BAND_WEIGHT = 0.3
UNRELATED = 0.05

SAME_CLUSTER = 0.7
SAME_ATTRIBUTE = 0.25
UNRELATED_WORD = 0.02


class LatentSimilarity:
    """Ground-truth similarity for one ads domain."""

    def __init__(self, spec: DomainSpec) -> None:
        self.spec = spec
        self._products_by_key: dict[tuple[str, ...], Product] = {
            product.key(): product for product in spec.products
        }
        #: Each product's key, in ``spec.products`` order: the row and
        #: column order of :attr:`product_table`.
        self.product_keys: list[tuple[str, ...]] = [
            product.key() for product in spec.products
        ]
        self._index_of = {key: index for index, key in enumerate(self.product_keys)}
        #: ``product_table[i][j]``: similarity of products *i* and *j*.
        self.product_table: list[list[float]] = [
            [self._pair_similarity(key_a, key_b) for key_b in self.product_keys]
            for key_a in self.product_keys
        ]
        self._cluster_of: dict[str, int] = {}
        for index, cluster in enumerate(spec.word_clusters):
            for word in cluster:
                # a word may appear in several clusters; first wins,
                # keeping the mapping deterministic
                self._cluster_of.setdefault(word.lower(), index)
        self._attribute_of: dict[str, str] = {}
        for column, values in spec.type_ii_values.items():
            for value in values:
                for word in value.lower().split():
                    self._attribute_of.setdefault(word, column)

    # ------------------------------------------------------------------
    # products (Type I)
    # ------------------------------------------------------------------
    def product(self, key: tuple[str, ...]) -> Product:
        return self._products_by_key[key]

    def product_similarity(
        self, key_a: tuple[str, ...], key_b: tuple[str, ...]
    ) -> float:
        """Ground-truth similarity of two products in [0, 1] (0.0 when
        either key is unknown), read from :attr:`product_table`."""
        if key_a == key_b:
            return SAME_PRODUCT
        row = self._index_of.get(key_a)
        column = self._index_of.get(key_b)
        if row is None or column is None:
            return 0.0
        return self.product_table[row][column]

    def _pair_similarity(
        self, key_a: tuple[str, ...], key_b: tuple[str, ...]
    ) -> float:
        """The similarity formula that fills :attr:`product_table`."""
        if key_a == key_b:
            return SAME_PRODUCT
        product_a = self._products_by_key[key_a]
        product_b = self._products_by_key[key_b]
        if product_a.group == product_b.group:
            return SAME_GROUP
        overlap = self._price_band_overlap(product_a, product_b)
        return max(UNRELATED, PRICE_BAND_WEIGHT * overlap)

    def _price_band_overlap(self, a: Product, b: Product) -> float:
        """Jaccard overlap of the two products' price bands in [0, 1]."""
        price_column = self._price_column()
        if price_column is None:
            return 0.0
        low_a, high_a = self.spec.numeric_range(price_column, a)
        low_b, high_b = self.spec.numeric_range(price_column, b)
        intersection = max(0.0, min(high_a, high_b) - max(low_a, low_b))
        union = max(high_a, high_b) - min(low_a, low_b)
        return intersection / union if union > 0 else 0.0

    def _price_column(self) -> str | None:
        for name in ("price", "salary"):
            if self.spec.schema.has_column(name):
                return name
        numeric = self.spec.numeric_columns
        return numeric[0] if numeric else None

    def similar_products(
        self, key: tuple[str, ...], threshold: float = 0.5
    ) -> list[Product]:
        """Products whose similarity to *key* is at least *threshold*,
        excluding the product itself, most similar first."""
        scored = [
            (self.product_similarity(key, other.key()), other)
            for other in self.spec.products
            if other.key() != key
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1].key()))
        return [product for score, product in scored if score >= threshold]

    # ------------------------------------------------------------------
    # property words (Type II)
    # ------------------------------------------------------------------
    def word_similarity(self, word_a: str, word_b: str) -> float:
        """Ground-truth similarity of two property words in [0, 1]."""
        word_a, word_b = word_a.lower(), word_b.lower()
        if word_a == word_b:
            return 1.0
        cluster_a = self._cluster_of.get(word_a)
        cluster_b = self._cluster_of.get(word_b)
        if cluster_a is not None and cluster_a == cluster_b:
            return SAME_CLUSTER
        attribute_a = self._attribute_of.get(word_a)
        attribute_b = self._attribute_of.get(word_b)
        if attribute_a is not None and attribute_a == attribute_b:
            return SAME_ATTRIBUTE
        return UNRELATED_WORD

    def value_similarity(self, value_a: str, value_b: str) -> float:
        """Similarity of two (possibly multi-word) Type II values.

        The best word-pair similarity across the two values; multiword
        values like "4 wheel drive" vs "all wheel drive" match on their
        informative words.
        """
        words_a = value_a.lower().split()
        words_b = value_b.lower().split()
        if not words_a or not words_b:
            return 0.0
        return max(
            self.word_similarity(a, b) for a in words_a for b in words_b
        )

    # ------------------------------------------------------------------
    # numeric values (Type III)
    # ------------------------------------------------------------------
    #: How much sharper human relatedness judgments are than Eq. 4's
    #: full-range normalization: a price one third of the attribute
    #: range away already reads as unrelated to a survey participant.
    NUMERIC_SHARPNESS = 3.0

    def numeric_similarity(
        self, column: str, value_a: float, value_b: float
    ) -> float:
        """Ground-truth numeric relatedness.

        Eq. 4's shape against the spec's global range, scaled by
        :data:`NUMERIC_SHARPNESS`: appraisers judge a $45,000 car
        unrelated to a $15,000 query even though Eq. 4 would still give
        the pair substantial similarity.
        """
        low, high = self.spec.numeric_range(column)
        span = high - low
        if span <= 0:
            return 1.0 if value_a == value_b else 0.0
        distance = abs(value_a - value_b) / span
        return max(0.0, 1.0 - self.NUMERIC_SHARPNESS * distance)
