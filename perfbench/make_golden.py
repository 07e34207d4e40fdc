"""Regenerate golden.json: the output digests run.py checks at full size.

    python3 perfbench/make_golden.py [FIRST_SEED LAST_SEED]

For each seed (default 0..31) it generates both tasks' inputs, runs one
iteration of compare-serial and of headline-pipeline, and records the
digests of their checked outputs. compare-threads2 is checked against
the compare-serial digests. Regenerate only when a change to harboost is
meant to change its outputs, and say why in CHANGES.md.
"""

import json
import shutil
import sys
from dataclasses import asdict

import run
from workloads import SIZES, WORKLOADS, Paths


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 31)
    sys.path.insert(0, str(run.SRC))
    from harboost import cli

    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    sizes = SIZES["full"]
    digests = {}
    for seed in range(first, last + 1):
        digests[str(seed)] = {}
        for name in ("compare-serial", "headline-pipeline"):
            workload = WORKLOADS[name]
            size = sizes[workload.task]
            work = run.OUT_DIR / f"golden-{name}"
            checks = run.Checks()
            try:
                run.set_up(workload.task, size.rows, seed, work, False, checks)
                paths = Paths.under(str(work))
                it = run.run_iteration(cli, workload, size, paths, checks)
                got, _ = run.read_outputs(workload, paths, it)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if checks.failures:
                print(f"seed {seed} {name}: {checks.failures}", file=sys.stderr)
                return 1
            digests[str(seed)][workload.task] = got
        print(f"seed {seed}: done", flush=True)
    golden = {
        "sizes": {task: asdict(size) for task, size in sizes.items()},
        "digests": digests,
    }
    (run.HERE / "golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
