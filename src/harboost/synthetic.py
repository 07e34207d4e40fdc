"""Synthetic activity-style datasets for demos and tests.

Real HAPT data cannot be redistributed with this package, so demos and
most tests run on seeded Gaussian class blobs clipped to the dataset's
normalized [-1, 1] range. write_hapt_layout writes such a dataset in
the exact on-disk layout the ingestion code expects.

Every draw is a bulk SplitMix64.next_floats call, which gives the same
values and end state as that many next_float calls, so the outputs
equal those of a per-value loop while no Python code runs per value.

X_train.txt holds each value as C's "% .7e" text, and _e7_text writes
those bytes by array arithmetic, a block of rows at a time: the 8
digits are rint(|x| * 10**(7-e)) with an exact power of ten (scaled as
floattext scales a value for its shortest text), which is
the correctly rounded result unless the scaled value sits within
rounding error of a tie. A row holding such a value, one outside the
exact powers (|x| < 1e-15 or >= 1e8) or a non-finite one takes the
scalar "% .7e" format whole, so every byte equals that format's.
e7text.read_e7 reads the layout back.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import BODY_ACC_FEATURES, ActivityLabel, Dataset
from .e7text import E7_CELL
from .floattext import DIGITS, decimal_scale, words
from .rng import SplitMix64


#: Cells formatted per block of X_train.txt; the formatter's working
#: arrays take a few dozen bytes per cell, whatever the layout's size.
_BLOCK_CELLS = 1 << 16


#: " 0" .. " 9" then "-0" .. "-9", at 10 * sign + lead digit
_HEADS = words([f"{c}{d}" for c in " -" for d in range(10)], "<u2")
#: ".000" .. ".999", the first 3 of the 7 digits after the point:
#: "0000" .. "0999" with "." for "0"; DIGITS gives the last 4
_POINTS = DIGITS[:1000] - ord("0") + ord(".")
#: "-15 " .. "+08 " at exponent + 15
_TAILS = words([f"{e:+03d} " for e in range(-15, 9)], "<u4")


def _e7_text(table: np.ndarray) -> bytes:
    """The rows of a 2-D float array as "% .7e" texts joined by spaces,
    one line per row, byte for byte as the C format writes them."""
    n, m = table.shape
    x = table.ravel()
    zero = x == 0
    a = np.abs(x)
    done = np.isfinite(a) & ~zero
    a[~done] = 1.0
    # scale |x| to 8 digits with one rounding: s is within
    # 2**-53 * s < 1.5e-8 of the exact product, so rint(s) is printf's
    # rounding unless s's fraction is that close to .5
    e, scale, exact = decimal_scale(a, 8)
    done &= exact
    s = a * scale
    digits = np.rint(s)
    done &= np.abs(s - np.floor(s) - 0.5) > 1e-7
    carry = digits == 1e8
    digits[carry] = 1e7
    e += carry
    digits[~done] = 0  # zeros' digits; other rows take the scalar format
    e[~done] = 0
    lead, rest = np.divmod(digits.astype(np.int64), 10_000_000)
    high, low = np.divmod(rest, 10_000)

    cells = np.empty(n * m, dtype=E7_CELL)
    cells["head"] = _HEADS[lead + 10 * np.signbit(x)]
    cells["frac"] = _POINTS[high] | DIGITS[low] << np.uint64(32)
    cells["e"] = ord("e")
    cells["tail"] = _TAILS[e + 15]
    text = cells.view(np.uint8).reshape(n, m, E7_CELL.itemsize)
    text[:, -1, -1] = ord("\n")

    # a row with any other cell (near a tie, out of the exact range or
    # not finite) is formatted whole by the scalar format
    rows = text.reshape(n, m * E7_CELL.itemsize)
    odd = np.flatnonzero(~(done | zero).reshape(n, m).all(axis=1)).tolist()
    if not odd:
        return rows.tobytes()
    line = " ".join(["% .7e"] * m) + "\n"
    pieces, start = [], 0
    for r in odd:
        pieces += [rows[start:r].tobytes(),
                   (line % tuple(table[r].tolist())).encode()]
        start = r + 1
    pieces.append(rows[start:].tobytes())
    return b"".join(pieces)


def _gauss_pairs(prng: SplitMix64, n: int) -> np.ndarray:
    """n standard normal draws via Box-Muller on SplitMix64 floats."""
    m = (n + 1) // 2
    u1 = prng.next_floats(m)
    u2 = prng.next_floats(m)
    r = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300)))
    out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return out[:n]


def make_activity_dataset(
    n_rows: int,
    n_classes: int = 12,
    n_features: int = 15,
    seed: int = 0,
    spread: float = 0.12,
    feature_names=None,
    class_counts=None,
) -> Dataset:
    """Seeded class blobs: one Gaussian cluster per class, values in [-1, 1].

    Classes are balanced by default; pass class_counts (one count per
    class id 1..len(class_counts), summing to n_rows) for imbalanced
    data. Rows are interleaved so any prefix is roughly stratified.
    """
    if not 1 <= n_classes <= 12:
        raise ValueError("n_classes must be in 1..12")
    prng = SplitMix64(seed)
    if class_counts is not None:
        class_counts = [int(c) for c in class_counts]
        if sum(class_counts) != n_rows:
            raise ValueError("class_counts must sum to n_rows")
        n_classes = len(class_counts)
        # row i of a class of count rows sits at i * n_rows // count; the
        # stable sort keeps the rows at one position in class id order
        pos = np.concatenate([np.arange(c, dtype=np.int64) * n_rows // max(c, 1)
                              for c in class_counts])
        cids = np.repeat(np.arange(1, n_classes + 1, dtype=np.int64), class_counts)
        labels = cids[np.argsort(pos, kind="stable")]
    else:
        labels = 1 + np.arange(n_rows, dtype=np.int64) % n_classes
    centers = 0.8 * (
        2.0 * prng.next_floats(n_classes * n_features).reshape(
            n_classes, n_features) - 1.0
    )
    noise = _gauss_pairs(prng, n_rows * n_features).reshape(n_rows, n_features)
    feats = np.clip(centers[labels - 1] + spread * noise, -1.0, 1.0)
    if feature_names is None:
        feature_names = tuple(f"f{j + 1:02d}" for j in range(n_features))
    return Dataset(feats, labels, tuple(feature_names))


def write_hapt_layout(
    root,
    n_rows: int = 180,
    seed: int = 0,
    total_features: int = 561,
    spread: float = 0.12,
    class_counts=None,
) -> Path:
    """Write a synthetic dataset in the HAPT directory layout.

    The 15 modeled feature names occupy columns 1..15 (as in the real
    distribution); remaining columns carry filler names and noise.
    """
    if total_features < len(BODY_ACC_FEATURES):
        raise ValueError("total_features must cover the 15 modeled columns")
    root = Path(root)
    (root / "Train").mkdir(parents=True, exist_ok=True)
    names = list(BODY_ACC_FEATURES) + [
        f"synthetic-Extra-{j}" for j in range(total_features - len(BODY_ACC_FEATURES))
    ]
    (root / "features.txt").write_text("".join(
        f"{i + 1} {n}\n" for i, n in enumerate(names)), "utf-8", newline="\n")
    (root / "activity_labels.txt").write_text("".join(
        f"{int(l)} {l.name}\n" for l in ActivityLabel), "utf-8", newline="\n")
    ds = make_activity_dataset(
        n_rows, 12, len(BODY_ACC_FEATURES), seed=seed, spread=spread,
        class_counts=class_counts,
    )
    prng = SplitMix64(seed ^ 0x5EED)
    extra = _gauss_pairs(prng, n_rows * (total_features - ds.n_features))
    extra = np.clip(0.3 * extra, -1.0, 1.0).reshape(n_rows, -1)
    full = np.hstack([ds.features, extra])
    block = max(1, _BLOCK_CELLS // total_features)
    with open(root / "Train" / "X_train.txt", "wb") as fh:
        for start in range(0, n_rows, block):
            fh.write(_e7_text(full[start:start + block]))
    (root / "Train" / "y_train.txt").write_text("".join(
        f"{l}\n" for l in ds.labels.tolist()), "utf-8", newline="\n")
    return root
