"""Provisioning stays bit-identical: the query log and its TI-matrix.

Section 4.3.2 learns the TI-matrix (Eq. 3) from a simulated query log.
The log's generator reads product similarities from the latent model's
per-domain table; these tests pin, per domain at the golden build's
scale, a sha256 of the serialized log and of the learned matrix (every
float as its ``repr``), and hold the table to the pairwise formula
written out below.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.datagen.latent import (
    PRICE_BAND_WEIGHT,
    SAME_GROUP,
    SAME_PRODUCT,
    UNRELATED,
    LatentSimilarity,
)
from repro.datagen.querylog import generate_query_log
from repro.datagen.vocab import DOMAIN_NAMES, build_domain_spec
from repro.ranking.ti_matrix import TIMatrix

from tests.golden.generate import SYSTEM_SCALE

#: ``build_system``'s default seed, which the golden build uses; a
#: domain's query log is generated from ``seed + 4``.
GOLDEN_SEED = 7

#: sha256 of (serialized query log, sorted TI-matrix entries) per domain.
DIGESTS = {
    "cars": (
        "64c0308460db741c1180bc70b551be3d6acb5f2ac084bd618edc7afb3ffa4698",
        "0983f14383cead0cc334c71bd8177cf74a5a0475d0086cc13074b83197a7a262",
    ),
    "motorcycles": (
        "dc3db05d8c97efceb6a2cf48a28c7f795bc1bfd015946bced5585161a8c1253c",
        "735a6eea4073de240496dd7ec29edb72f0b61de73b1bd2da8cba08eba7df8669",
    ),
    "clothing": (
        "73403f45dc6ba11c57aee544c84dd0a7b9a5ee3750b8b8be15ebaa717f8af771",
        "115df7852e793ae08d8607637415422d64e229f2c9912531016e1bf19f1aaef6",
    ),
    "cs_jobs": (
        "0117286841eafcdac1239e4b46d476d6689cc9dc2bf5c07f85414e61cf7ec174",
        "b017fe62e53e72cb1842d700a9b277822d5b2e456d12aa5353ed2536a006a5a8",
    ),
    "furniture": (
        "6cb8d36ad5f243288c79466fb0648220dee868e79eeabf335262d817351db6a0",
        "fe44aebd2dafcdcb528196a52ebc28756441a2c575c7cd2333ca6413ed69ecb7",
    ),
    "food_coupons": (
        "e14c9cdffa6d2f7d1eb645bce1ad9e1b1adaa3f3640a6203b5813cce44a64552",
        "5633cdd201b17f83dbbf35ee4ab4fa6c8209caa17506808ce028786eb1ef1764",
    ),
    "instruments": (
        "9b79e517f396e58e3946b3edb9afa2204d9d382772f408cdd99a28798088d53e",
        "2bfa279e494c8f176bd8f647e00c24f3816339a0546f8fee463fbf129dcf8bd4",
    ),
    "jewellery": (
        "5cb03a016c1421e58abdfc005fef472d61978cbf68f7eb647f01665ec43f05fd",
        "60e4ebb311c40fd7ee0e540ab790506aba2f4ee97284a62d55a367398bd455a7",
    ),
}


def query_log_digest(sessions) -> str:
    """One JSON line per session: every field of every query and result."""
    digest = hashlib.sha256()
    for session in sessions:
        line = [
            session.user_id,
            [
                [
                    query.user_id,
                    repr(query.timestamp),
                    query.text,
                    query.product_key,
                    [
                        [r.product_key, r.rank, r.clicked, repr(r.dwell_seconds)]
                        for r in query.results
                    ],
                ]
                for query in session.queries
            ],
        ]
        digest.update(json.dumps(line).encode() + b"\n")
    return digest.hexdigest()


def ti_matrix_digest(matrix: TIMatrix) -> str:
    """The matrix's entries in sorted pair order, then its maximum."""
    digest = hashlib.sha256()
    for (a, b), value in sorted(matrix.similarities.items()):
        digest.update(json.dumps([a, b, repr(value)]).encode() + b"\n")
    digest.update(repr(matrix.max_value).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_query_log_and_ti_matrix_are_pinned(name):
    spec = build_domain_spec(name)
    sessions = generate_query_log(
        spec,
        LatentSimilarity(spec),
        n_sessions=SYSTEM_SCALE["sessions_per_domain"],
        seed=GOLDEN_SEED + 4,
    )
    matrix = TIMatrix.from_query_log(sessions)
    assert (query_log_digest(sessions), ti_matrix_digest(matrix)) == DIGESTS[name]


def _written_out_similarity(spec, a, b) -> float:
    """The latent product similarity, as the model defines it."""
    if a.key() == b.key():
        return SAME_PRODUCT
    if a.group == b.group:
        return SAME_GROUP
    column = next(
        (name for name in ("price", "salary") if spec.schema.has_column(name)),
        spec.numeric_columns[0] if spec.numeric_columns else None,
    )
    if column is None:
        return UNRELATED
    low_a, high_a = spec.numeric_range(column, a)
    low_b, high_b = spec.numeric_range(column, b)
    intersection = max(0.0, min(high_a, high_b) - max(low_a, low_b))
    union = max(high_a, high_b) - min(low_a, low_b)
    overlap = intersection / union if union > 0 else 0.0
    return max(UNRELATED, PRICE_BAND_WEIGHT * overlap)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_product_table_equals_the_pairwise_formula(name):
    spec = build_domain_spec(name)
    latent = LatentSimilarity(spec)
    products = spec.products
    assert len(latent.product_table) == len(products)
    for i, a in enumerate(products):
        assert latent.product_keys[i] == a.key()
        for j, b in enumerate(products):
            expected = repr(_written_out_similarity(spec, a, b))
            assert repr(latent.product_table[i][j]) == expected, (a.key(), b.key())
            assert repr(latent.product_similarity(a.key(), b.key())) == expected


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_equal_and_unknown_keys(name):
    latent = LatentSimilarity(build_domain_spec(name))
    known = latent.product_keys[0]
    unknown = ("no such", "product")
    assert latent.product_similarity(known, known) == 1.0
    assert latent.product_similarity(unknown, unknown) == 1.0
    assert latent.product_similarity(unknown, known) == 0.0
    assert latent.product_similarity(known, unknown) == 0.0
