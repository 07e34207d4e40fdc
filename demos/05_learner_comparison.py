"""The benchmark harness: every learner cross-validated on the same
stratified folds, ranked by micro-average accuracy."""

from harboost import Family, LearnerSpec, compare
from harboost.dataset import dataset_digest
from harboost.reports import comparison_payload, render
from harboost.synthetic import make_activity_dataset


def main():
    ds = make_activity_dataset(360, 12, 15, seed=5, spread=0.4)
    specs = [
        LearnerSpec(f, k=12, trees=5, max_depth=5, seed=0) for f in Family
    ]
    report = compare(specs, ds, folds=5, rounds=5, seed=99)
    config = {"folds": 5, "rounds": 5, "seed": 99, "learner": "all"}
    print(render(comparison_payload(report, config, ds), "text"))
    print(f"(dataset digest {dataset_digest(ds)[:16]}..., shared folds)")


if __name__ == "__main__":
    main()
