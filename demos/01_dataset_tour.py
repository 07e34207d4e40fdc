"""Dataset tour: ingestion, feature selection, and per-activity summaries.

Uses the real HAPT directory when HAPT_DATA_DIR is set; otherwise writes
a small synthetic dataset in the same on-disk layout and walks through
the identical pipeline.
"""

import os
import tempfile

from harboost import (
    BODY_ACC_FEATURES,
    dataset_digest,
    load_hapt,
    select_features,
    summarize_by_activity,
)
from harboost.reports import render, summary_payload
from harboost.synthetic import write_hapt_layout


def main():
    data_dir = os.environ.get("HAPT_DATA_DIR")
    tmp = None
    if data_dir:
        print(f"loading real data from {data_dir}")
    else:
        tmp = tempfile.TemporaryDirectory()
        data_dir = write_hapt_layout(tmp.name, n_rows=240, seed=7)
        print(f"HAPT_DATA_DIR not set; wrote a synthetic layout at {data_dir}")

    full = load_hapt(data_dir)
    print(f"raw matrix: {full.n_rows} rows x {full.n_features} columns")

    ds = select_features(full, BODY_ACC_FEATURES)
    print(f"selected the {ds.n_features} body-acceleration features:")
    for name in ds.feature_names:
        print(f"  {name}")
    print(f"dataset digest: {dataset_digest(ds)}")

    print("\nclass counts:")
    for label, count in sorted(ds.class_counts().items()):
        print(f"  {int(label):2d} {label.name:<20s} {count}")

    rows = summarize_by_activity(ds)
    print(f"\nper-activity summary ({len(rows)} rows; first activity shown):")
    first = rows[: ds.n_features]
    print(render(summary_payload(first, {"command": "summarize"}, ds), "text"))

    if tmp:
        tmp.cleanup()


if __name__ == "__main__":
    main()
