"""Generate one workload's input files in a fresh interpreter.

    python3 perfbench/setup_inputs.py TASK ROWS SEED OUT_DIR

TASK "compare" writes OUT_DIR/features.csv, an ingested-style CSV of the
15 modeled features: ROWS rows sampled by SEED from the fixed population
(see workloads.py). TASK "headline" writes the 561-column HAPT layout of
ROWS rows drawn with SEED under OUT_DIR/hapt. run.py times this whole
process, so the set-up time it reports covers interpreter start,
importing harboost and generating the data.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from harboost import dataset, synthetic  # noqa: E402

from workloads import (  # noqa: E402
    HAPT_TRAIN_COUNTS, POPULATION_SEED, SPREAD, Paths, class_counts,
)


def main(argv) -> int:
    task, rows, seed, out_dir = argv[0], int(argv[1]), int(argv[2]), argv[3]
    os.makedirs(out_dir, exist_ok=True)
    paths = Paths.under(out_dir)
    counts = class_counts(rows)
    if task == "compare":
        population = synthetic.make_activity_dataset(
            sum(HAPT_TRAIN_COUNTS), seed=POPULATION_SEED, spread=SPREAD,
            class_counts=HAPT_TRAIN_COUNTS,
            feature_names=dataset.BODY_ACC_FEATURES,
        )
        # RandomState's streams are frozen, so a seed keeps its sample
        # across numpy versions.
        prng = np.random.RandomState(seed)
        picked = [
            prng.permutation(np.flatnonzero(population.labels == cid))[:count]
            for cid, count in enumerate(counts, start=1)
        ]
        dataset.save_csv(population.subset(np.sort(np.concatenate(picked))),
                         paths.csv)
    elif task == "headline":
        synthetic.write_hapt_layout(
            paths.hapt, n_rows=rows, seed=seed, spread=SPREAD,
            class_counts=counts,
        )
    else:
        raise SystemExit(f"unknown task {task!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
