"""Naive Bayes classifiers: multinomial baseline and JBBSM.

Section 3 of the paper classifies a question ``d`` into the ads domain
``c`` maximizing ``P(c | d) ∝ P(c) · P(d | c)`` (Bayes' theorem,
Equations 1-2), with ``P(d | c)`` estimated by the Joint Beta-Binomial
Sampling Model (JBBSM) of Allison (2008), which models word burstiness
and "accounts for unseen words in a document".

**Multinomial NB** treats each word occurrence as an independent draw
from a class-specific categorical distribution with Laplace smoothing.

**JBBSM / beta-binomial NB** instead models, for each word ``w`` and
class ``c``, the per-document *rate* of ``w`` as a Beta(α, β) random
variable, so the count of ``w`` in a document of length ``n`` is
beta-binomial:

    P(x | n, α, β) = C(n, x) · B(x + α, n − x + β) / B(α, β)

α and β are fit per (class, word) by the method of moments on the
per-document rates observed in training; words never seen in a class
fall back to a shared background prior whose mean is half the smallest
observed rate, which is how unseen words keep non-zero likelihood.
The "joint" in JBBSM is the product of the per-word beta-binomials
over the vocabulary (the Naive Bayes independence assumption at the
document level).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.classify.features import question_features
from repro.errors import ClassificationError

__all__ = [
    "NaiveBayesClassifier",
    "MultinomialNaiveBayes",
    "BetaBinomialNaiveBayes",
]


class NaiveBayesClassifier:
    """Shared scaffolding: priors, training loop, argmax decision."""

    def __init__(self) -> None:
        self._class_docs: dict[str, list[Counter]] = defaultdict(list)
        self._priors: dict[str, float] = {}
        self._trained = False

    # ------------------------------------------------------------------
    def add_document(self, label: str, text: str) -> None:
        """Add one training document (an ad or question) for *label*."""
        self._class_docs[label].append(question_features(text))
        self._trained = False

    def train(self, documents: list[tuple[str, str]] | None = None) -> None:
        """Fit the model; *documents* are optional extra (label, text)."""
        for label, text in documents or []:
            self.add_document(label, text)
        if not self._class_docs:
            raise ClassificationError("no training documents were provided")
        total = sum(len(docs) for docs in self._class_docs.values())
        self._priors = {
            label: len(docs) / total for label, docs in self._class_docs.items()
        }
        self._fit()
        self._trained = True

    def _fit(self) -> None:
        raise NotImplementedError

    def _log_likelihood(self, label: str, features: Counter) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def classes(self) -> list[str]:
        return sorted(self._class_docs.keys())

    def log_posteriors(self, text: str) -> dict[str, float]:
        """Unnormalized log P(c | d) for every class."""
        if not self._trained:
            raise ClassificationError("classifier must be trained before use")
        features = question_features(text)
        return {
            label: math.log(self._priors[label])
            + self._log_likelihood(label, features)
            for label in self._class_docs
        }

    def classify(self, text: str) -> str:
        """Equation 2: the class with the highest posterior."""
        posteriors = self.log_posteriors(text)
        # Ties break alphabetically for determinism.
        return max(sorted(posteriors), key=posteriors.__getitem__)

    def posteriors(self, text: str) -> dict[str, float]:
        """Normalized posterior probabilities (softmax of the logs)."""
        logs = self.log_posteriors(text)
        peak = max(logs.values())
        exp = {label: math.exp(value - peak) for label, value in logs.items()}
        norm = sum(exp.values())
        return {label: value / norm for label, value in exp.items()}


class MultinomialNaiveBayes(NaiveBayesClassifier):
    """Plain multinomial NB with Laplace (add-one) smoothing."""

    def __init__(self) -> None:
        super().__init__()
        self._word_counts: dict[str, Counter] = {}
        self._class_totals: dict[str, int] = {}
        self._vocabulary: set[str] = set()

    def _fit(self) -> None:
        self._word_counts = {}
        self._class_totals = {}
        self._vocabulary = set()
        for label, docs in self._class_docs.items():
            counts: Counter = Counter()
            for doc in docs:
                counts.update(doc)
            self._word_counts[label] = counts
            self._class_totals[label] = sum(counts.values())
            self._vocabulary.update(counts)

    def _log_likelihood(self, label: str, features: Counter) -> float:
        counts = self._word_counts[label]
        total = self._class_totals[label]
        vocab_size = max(len(self._vocabulary), 1)
        score = 0.0
        for word, count in features.items():
            probability = (counts.get(word, 0) + 1) / (total + vocab_size)
            score += count * math.log(probability)
        return score


@dataclass(frozen=True)
class _BetaParams:
    """Fitted Beta(α, β) for one (class, word) rate distribution, with
    the pmf's normalizer ``log B(α, β)`` computed once at fit time."""

    alpha: float
    beta: float
    log_beta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_beta", _log_beta(self.alpha, self.beta))


def _log_beta(alpha: float, beta: float) -> float:
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _beta_binomial_log_pmf(x: int, n: int, params: _BetaParams) -> float:
    """log P(x successes in n | beta-binomial(α, β))."""
    return (
        _log_choose(n, x)
        + _log_beta(x + params.alpha, n - x + params.beta)
        - params.log_beta
    )


class BetaBinomialNaiveBayes(NaiveBayesClassifier):
    """The paper's JBBSM classifier.

    Parameters
    ----------
    min_concentration:
        Lower bound on α+β.  Very small concentrations make the
        beta-binomial improper for the short documents in this corpus;
        the default keeps every fitted distribution well-behaved.
    """

    def __init__(self, min_concentration: float = 0.2) -> None:
        super().__init__()
        self.min_concentration = min_concentration
        self._params: dict[str, dict[str, _BetaParams]] = {}
        self._background: dict[str, _BetaParams] = {}
        self._vocabulary: set[str] = set()

    # ------------------------------------------------------------------
    def _fit(self) -> None:
        self._params = {}
        self._background = {}
        self._vocabulary = set()
        for docs in self._class_docs.values():
            for doc in docs:
                self._vocabulary.update(doc)
        for label, docs in self._class_docs.items():
            lengths = [max(sum(doc.values()), 1) for doc in docs]
            per_word: dict[str, _BetaParams] = {}
            words_in_class: set[str] = set()
            for doc in docs:
                words_in_class.update(doc)
            min_rate = 1.0
            for word in words_in_class:
                rates = [
                    doc.get(word, 0) / length
                    for doc, length in zip(docs, lengths)
                ]
                params = self._fit_beta(rates)
                per_word[word] = params
                mean = params.alpha / (params.alpha + params.beta)
                if 0 < mean < min_rate:
                    min_rate = mean
            self._params[label] = per_word
            # Background prior for words unseen in this class: mean at
            # half the smallest in-class rate, weak concentration, so
            # P(x=0) is high but P(x>0) stays non-zero (the "accounts
            # for unseen words" property of JBBSM).
            background_mean = max(min_rate / 2.0, 1e-4)
            concentration = 1.0
            self._background[label] = _BetaParams(
                alpha=background_mean * concentration,
                beta=(1.0 - background_mean) * concentration,
            )

    def _fit_beta(self, rates: list[float]) -> _BetaParams:
        """Method-of-moments fit of Beta(α, β) to observed rates.

        Rates are first shrunk slightly toward the interior of (0, 1)
        (add-half smoothing on the mean) so single-document classes and
        all-zero words stay fittable.
        """
        n = len(rates)
        mean = (sum(rates) + 0.5 / max(n, 1)) / (n + 1.0 / max(n, 1))
        mean = min(max(mean, 1e-4), 1.0 - 1e-4)
        if n > 1:
            variance = sum((rate - mean) ** 2 for rate in rates) / (n - 1)
        else:
            variance = 0.0
        max_variance = mean * (1.0 - mean)
        if variance <= 0 or variance >= max_variance:
            # Degenerate: fall back to a moderate concentration, which
            # reduces to a smoothed binomial.
            concentration = 2.0
        else:
            concentration = max_variance / variance - 1.0
        concentration = max(concentration, self.min_concentration)
        return _BetaParams(
            alpha=mean * concentration, beta=(1.0 - mean) * concentration
        )

    # ------------------------------------------------------------------
    def _log_likelihood(self, label: str, features: Counter) -> float:
        per_word = self._params[label]
        background = self._background[label]
        n = max(sum(features.values()), 1)
        score = 0.0
        # Product over the words present in the question.  Restricting
        # to present words keeps classification O(|question|); absent
        # words contribute a near-constant factor across classes.
        for word, count in features.items():
            params = per_word.get(word, background)
            score += _beta_binomial_log_pmf(min(count, n), n, params)
        return score
