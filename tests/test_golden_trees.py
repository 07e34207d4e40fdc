"""Pinned model digests for the five tree families.

Each digest is the SHA-256 of a fitted model's canonical payload on a
fixed task built to stress split search: 400 rows of 12 overlapping
classes whose 15 features are rounded to two decimals (so values tie
within a feature and split scores tie across features), non-uniform
boosting-style weights, and trees up to depth 10. One more multiway
case rounds to one decimal, so that zeros of both signs occur and
the sign kept on a zero cut point is pinned too. Any change to split
scoring, tie-breaking, row partitioning or bootstrap sampling changes
some digest. A change that is meant to alter fitted trees must update
the digests and say why. The digests were recorded with numpy 2.4 on
x86-64; the sign numpy's sort leaves on equal zeros may differ on
other platforms.
"""

import hashlib
import json

import numpy as np
import pytest

from harboost.dataset import Dataset
from harboost.learners import Family, LearnerSpec
from harboost.synthetic import make_activity_dataset

#: (family, decimals the features are rounded to) -> payload SHA-256
GOLDEN = {
    (Family.DECISION_STUMP, 2):
        "ceadc5072088ca31b175717c8ba7755233e87be22a66ac128a23606b4f075445",
    (Family.DECISION_TREE, 2):
        "61140f5ed1daa29ce147b0d7b476657fee1327b7f7f01aa42bef90c58e48a8c0",
    (Family.MULTIWAY_TREE, 2):
        "77bec10c184b34ed7c5b8d992e8a777d5c56b6d8b105941701eefc3e489fe4bc",
    (Family.RANDOM_TREE, 2):
        "336d274c43234ec171024c65845f0722ff220d8a701e5f9d7317fc5795478ca5",
    (Family.RANDOM_FOREST, 2):
        "052aa9d6f7611a0bdf3c3df8b24333af547cd6503a7abe6fa7d9db0c8aa0dd8f",
    (Family.MULTIWAY_TREE, 1):
        "34dda31fd6989b88868d016e245ee4833a597eae9510b07e687a24df8812dadf",
}


def _task(decimals: int):
    raw = make_activity_dataset(400, 12, 15, seed=11, spread=0.5)
    ds = Dataset(np.round(raw.features, decimals), raw.labels,
                 raw.feature_names)
    # one SAMME-like reweighting: every third row "misclassified" and
    # up-weighted, a second pattern to break exact weight symmetry
    i = np.arange(ds.n_rows)
    w = np.where(i % 3 == 0, 2.75, 1.0) * np.where(i % 7 == 0, 1.3, 1.0)
    return ds, w / w.sum()


def payload_digest(family: Family, decimals: int) -> str:
    ds, w = _task(decimals)
    model = LearnerSpec(family, max_depth=10, seed=5).fit_weighted(ds, w)
    doc = json.dumps(model.to_payload(), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("family,decimals", list(GOLDEN))
def test_tree_payload_digest(family, decimals):
    assert payload_digest(family, decimals) == GOLDEN[family, decimals]
