"""Pinned outputs of the synthetic data generators.

Demos, tests and the benchmark all draw their data here, so every byte
is pinned: the SHA-256 of each file write_hapt_layout writes, and of the
arrays and save_csv text of make_activity_dataset. The generators draw
their SplitMix64 floats in bulk; a guard counts scalar draws so that a
per-value loop cannot come back unseen. X_train.txt's array formatter
is checked value by value against the scalar "% .7e" format.
"""

import hashlib

import numpy as np
import pytest

from harboost import synthetic
from harboost.dataset import save_csv
from harboost.rng import SplitMix64


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


FEATURES_561 = "9d6548a2dc12e0ac7b75d7f013187c0de4d321615530b55dbcf77ee4ea9a3a92"
FEATURES_30 = "032b43f2e0af9b96f45ca5d66c1de1c81755a73dba903d611a9d6e180882b9eb"
ACTIVITIES = "e960949dee9733621cbb7d34b50af6996d1e9fc76f6da4be5525918c6d3c1bec"
BALANCED_37 = "6376b4c0d3702ecb3b90f6769d5f28c19a8cd1123b50d508a87b6f0c3ae9882f"
UNEVEN_37 = (9, 1, 2, 4, 3, 3, 2, 1, 5, 3, 2, 2)

# (seed, n_rows, total_features, class_counts) -> {file: sha256}
HAPT_LAYOUTS = [
    ((0, 37, 561, None), {
        "Train/X_train.txt":
            "229bac92e9d6b4b0f9ce913acd5da85919cae929e4541cfe7c7269cbf77ca1a7",
        "Train/y_train.txt": BALANCED_37,
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_561,
    }),
    ((0, 37, 30, None), {
        "Train/X_train.txt":
            "d503ad7386360cb07c923149f5e1684fc39973741e7dbfc8e6633a311c32f871",
        "Train/y_train.txt": BALANCED_37,
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_30,
    }),
    ((11, 37, 561, None), {
        "Train/X_train.txt":
            "4c811b4d8de36f3bc2bf5b78861d1f838579c0c64666c8d305cce8800b5c7722",
        "Train/y_train.txt": BALANCED_37,
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_561,
    }),
    ((11, 37, 30, None), {
        "Train/X_train.txt":
            "be9fff5988d0dc0b06557ad01f2afcd18c01cb064c37053b4258228983b1239d",
        "Train/y_train.txt": BALANCED_37,
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_30,
    }),
    # 300 x 561 cells span more than one of the writer's formatting blocks
    ((7, 300, 561, None), {
        "Train/X_train.txt":
            "54c585c7c2e97d3487c744916ca92da771333c00fa0f18d02ff171ecea9c4bee",
        "Train/y_train.txt":
            "274d99e898895b8be81d0720c6575cea76cddf02ad3e5a8bd7711766dfca9ff7",
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_561,
    }),
    ((5, 37, 30, UNEVEN_37), {
        "Train/X_train.txt":
            "34194eeb90c584508d595a9a0566be94527dd216c8273b2f561ceaff45558235",
        "Train/y_train.txt":
            "99df56d3be9cf705614e3c24fb1b900953f78ce646496ada56b1c1ff175b62f4",
        "activity_labels.txt": ACTIVITIES,
        "features.txt": FEATURES_30,
    }),
]


@pytest.mark.parametrize("args, expected", HAPT_LAYOUTS,
                         ids=["-".join(map(str, a[:3])) for a, _ in HAPT_LAYOUTS])
def test_hapt_layout_files_are_pinned(tmp_path, args, expected):
    seed, n_rows, total_features, class_counts = args
    root = synthetic.write_hapt_layout(
        tmp_path, n_rows=n_rows, seed=seed, total_features=total_features,
        class_counts=class_counts,
    )
    written = {
        p.relative_to(root).as_posix(): sha256(p.read_bytes())
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    assert written == expected


def test_a_pinned_layout_spans_more_than_one_formatting_block():
    assert max(rows * cols for (_, rows, cols, _), _ in HAPT_LAYOUTS) \
        > 2 * synthetic._BLOCK_CELLS


# make_activity_dataset kwargs -> sha256 of features, labels, save_csv text
ACTIVITY_DATASETS = [
    (dict(n_rows=101, seed=3), (
        "718cc0f4d0c53503002bbf4d1fd53cd29280606bc801c43910ccece817b27253",
        "c83255396bc228945c31042e8ffc12fa0f9f7d755aa9f44150a21751e81024d3",
        "2f9c321d3f051b4754697a1e76422c030fb2a3a43e8e40965e9ccfa85ac09a70",
    )),
    # every class starts at position 0: ties go in class id order
    (dict(n_rows=101, seed=9, class_counts=(40, 1, 13, 7, 29, 11)), (
        "ec0ce4ede240dbfb83661807cd828cb047b08691e647a4ddfe4851000dc0e2fb",
        "dca5fb3bd07c4fdd5df3a3cbaebda3de967d4687d31e6889bb671daf3ad122ad",
        "d7560c2530bd8eba2442c87a01f0f6184d8f0999256037545de552a68ea92135",
    )),
    (dict(n_rows=55, n_classes=5, n_features=7, seed=2, spread=0.4), (
        "26b8dffd90f8834721408a0e6fce2dc5f23bbe309396b456780b8aff3ed9034a",
        "13a7e8bbe407779a579c0f4d4f4728cf1c1e2f4deb2d1041b2ea4e06b42927b5",
        "e335343c358b696eac04bd856adf1fc13bf189bde66c8e04052abb156cd3d031",
    )),
]


@pytest.mark.parametrize("kwargs, expected", ACTIVITY_DATASETS,
                         ids=["balanced", "uneven", "5-classes"])
def test_activity_dataset_is_pinned(tmp_path, kwargs, expected):
    ds = synthetic.make_activity_dataset(**kwargs)
    save_csv(ds, tmp_path / "ds.csv")
    assert (
        sha256(ds.features.tobytes()),
        sha256(ds.labels.tobytes()),
        sha256((tmp_path / "ds.csv").read_bytes()),
    ) == expected


def _gauss_pairs_oracle(prng: SplitMix64, n: int) -> list:
    """Box-Muller on scalar next_float() draws, u1 then u2."""
    m = (n + 1) // 2
    u1 = np.array([prng.next_float() for _ in range(m)])
    u2 = np.array([prng.next_float() for _ in range(m)])
    r = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300)))
    out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return out[:n].tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1001])
@pytest.mark.parametrize("seed", [0, 0x5EED, 2**64 - 1])
def test_gauss_pairs_match_scalar_draws(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert synthetic._gauss_pairs(bulk, n).tolist() == _gauss_pairs_oracle(scalar, n)
    assert bulk.next_uint64() == scalar.next_uint64()


def test_generators_draw_no_scalar_floats(tmp_path, monkeypatch):
    calls = []
    scalar = SplitMix64.next_float

    def counted(self):
        calls.append(1)
        return scalar(self)

    monkeypatch.setattr(SplitMix64, "next_float", counted)
    synthetic.write_hapt_layout(tmp_path, n_rows=500, seed=4)
    synthetic.make_activity_dataset(
        7767, seed=0, spread=0.5,
        class_counts=(1226, 1073, 987, 1293, 1423, 1413, 47, 23, 75, 60, 90, 57),
    )
    assert calls == []


def _near_ties(n: int, seed: int) -> np.ndarray:
    """9-digit decimals ending in 5, the ties of an 8-digit rounding,
    over every exponent the array path scales exactly and a few past."""
    rng = np.random.default_rng(seed)
    mantissas = rng.integers(10 ** 7, 10 ** 8, n) * 10 + 5
    exponents = rng.integers(-17, 10, n)
    return np.array([float(f"{m}e{e - 8}")
                     for m, e in zip(mantissas.tolist(), exponents.tolist())])


_TIES = _near_ties(4000, 20)
E7_VALUES = {
    "signed-zero-and-one": [0.0, -0.0, 1.0, -1.0],
    "subnormal": [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                  -2.2250738585072014e-308],
    "three-digit-exponent": [1e-100, 9.99999995e-100, 9.999999996e-100,
                             1e-200, -3.14e-150, 1e100, 1.7976931348623157e308],
    "carry": [9.99999995e-3, 0.0999999995, 9.999999996e-3, 0.09999999996,
              0.99999999999, 9.9999999951, 99999999.6, 9.99999999e-16,
              float(np.nextafter(0.1, 0.0)), float(np.nextafter(1.0, 0.0)),
              float(np.nextafter(1e-15, 0.0)), float(np.nextafter(1e8, 0.0))],
    "exponent-edges": [1e-15, 1e-16, 1e7, 1e8, 99999999.0, 123456789.0,
                       1.5e-15, 7.5e-16],
    "non-finite": [np.inf, -np.inf, np.nan],
    "near-tie": _TIES.tolist(),
    "near-tie-up": np.nextafter(_TIES, np.inf).tolist(),
    "near-tie-down": np.nextafter(_TIES, -np.inf).tolist(),
    "near-tie-negative": (-_TIES).tolist(),
    "uniform": np.random.default_rng(21).uniform(-1, 1, 4000).tolist(),
    "wide": (np.random.default_rng(22).standard_normal(4000)
             * 10.0 ** np.random.default_rng(23).integers(-20, 12, 4000)
             ).tolist(),
}


@pytest.mark.parametrize("name", E7_VALUES)
def test_e7_text_matches_the_scalar_format_value_by_value(name):
    values = E7_VALUES[name]
    text = synthetic._e7_text(np.array(values).reshape(-1, 1))
    assert text.decode().splitlines() == ["% .7e" % v for v in values]


def test_e7_text_joins_cells_and_formats_odd_width_rows_whole():
    table = np.array([[0.5, -0.25, 1e-3],
                      [np.inf, 2.0, 1e-120],
                      [-0.0, 0.0999999995, 3.0],
                      [np.nan, 1.0, -1.0]])
    expected = "".join(" ".join("% .7e" % v for v in row) + "\n"
                       for row in table.tolist())
    assert synthetic._e7_text(table) == expected.encode()
    assert synthetic._e7_text(np.empty((0, 3))) == b""
