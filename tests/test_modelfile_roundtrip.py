"""save_model -> load_model keeps every family's ensemble, on random data.

load_model rebuilds each round's model and runs its check(n_features),
so a check that rejected a model fit_weighted can produce, or a loader
that changed a value, fails here on some drawn dataset. Every array a
loader builds is read-only.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from harboost.boosting import boost_fit, boost_predict_batch  # noqa: E402
from harboost.dataset import Dataset, dataset_digest  # noqa: E402
from harboost.learners import Family, LearnerSpec  # noqa: E402
from harboost.modelfile import load_model, save_model  # noqa: E402
from harboost.synthetic import make_activity_dataset  # noqa: E402


@st.composite
def tasks(draw):
    """A small dataset: 2-5 classes of at least 2 rows, 1-4 features,
    values rounded to 1 decimal half the time so that they tie."""
    classes = draw(st.integers(2, 5))
    ds = make_activity_dataset(
        draw(st.integers(2 * classes, 40)), classes, draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        spread=draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    if draw(st.booleans()):
        ds = Dataset(np.round(ds.features, 1), ds.labels, ds.feature_names)
    return ds


def arrays(value):
    """Every array in a model's fields, through tuples and nested models."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from arrays(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays(getattr(value, f.name))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(ds=tasks(), k=st.integers(1, 4), depth=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_reload_predicts_bit_identically(tmp_path_factory, family, ds, k,
                                         depth, seed):
    spec = LearnerSpec(family, k=k, max_depth=depth, trees=3, seed=seed)
    ens = boost_fit(spec, ds, rounds=3, seed=seed)
    path = tmp_path_factory.mktemp("roundtrip") / "m.json"
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
    loaded = load_model(path).ensemble
    assert [(r.alpha, r.epsilon, r.model.to_payload()) for r in loaded.rounds] \
        == [(r.alpha, r.epsilon, r.model.to_payload()) for r in ens.rounds]
    for r in loaded.rounds:
        assert not any(a.flags.writeable for a in arrays(r.model))
    queries = np.vstack([
        ds.features,
        np.random.default_rng(seed).uniform(-1.5, 1.5, (50, ds.n_features)),
    ])
    np.testing.assert_array_equal(boost_predict_batch(loaded, queries),
                                  boost_predict_batch(ens, queries))
