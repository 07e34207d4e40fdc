"""Command-line front end.

Subcommands: ingest, summarize, evaluate, compare, train, predict.
Dataset input comes from --data-dir (HAPT layout; defaults to the
HAPT_DATA_DIR environment variable) or --from-csv (a previously
ingested CSV). Exit codes: 0 success, 2 usage or validation error
(including missing files), 3 data-content error, 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .boosting import boost_fit, boost_predict_batch
from .dataset import (
    DataError,
    Dataset,
    dataset_digest,
    load_body_acc,
    load_csv,
    load_feature_csv,
    save_csv,
    summarize_by_activity,
)
from .evaluation import compare, cross_validate
from .learners import (
    FAMILIES,
    HYPERPARAMETERS,
    Family,
    LearnerSpec,
    value_type,
)
from .modelfile import ModelFormatError, load_model, save_model
from . import reports


class CliError(Exception):
    """Usage/validation problem; maps to exit code 2."""


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data-dir",
        help="HAPT directory (default: $HAPT_DATA_DIR); the 15 modeled "
        "features are selected automatically",
    )
    p.add_argument("--from-csv", help="read an ingested CSV instead")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--learner", default="knn",
        choices=sorted(f.value for f in Family),
        help="base learner family (default: knn)",
    )
    p.add_argument("--rounds", type=int, default=10, help="boosting rounds")
    for f in HYPERPARAMETERS:
        p.add_argument(f"--{f.name.replace('_', '-')}", type=value_type(f),
                       default=f.default, help=f.metadata.get("help"))


_THREADS_HELP = ("worker processes for fold evaluation, at most one per CPU "
                 "(never changes results)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="harboost",
        description="Boosted classical learners for activity recognition "
        "on HAPT-style body-acceleration features.",
    )
    ap.add_argument("--version", action="version", version=f"harboost {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="select the 15 modeled features, write CSV")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize", help="per-activity feature statistics")
    _add_dataset_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="boosted cross-validation report")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_output_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="benchmark the learner suite")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--learners", default=None,
                   help="comma-separated families (default: all twelve)")
    _add_output_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="fit one boosted ensemble on all rows")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--model-out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a CSV of feature rows")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--from-csv", required=True, help="input feature CSV")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_predict)
    return ap


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _resolve_dataset(args) -> tuple[Dataset, dict]:
    if getattr(args, "from_csv", None) and getattr(args, "data_dir", None):
        raise CliError("use either --data-dir or --from-csv, not both")
    if getattr(args, "from_csv", None):
        ds = load_csv(args.from_csv)
        return ds, {"source": f"csv:{args.from_csv}"}
    data_dir = getattr(args, "data_dir", None) or os.environ.get("HAPT_DATA_DIR")
    if not data_dir:
        raise CliError(
            "no dataset: pass --data-dir, --from-csv, or set HAPT_DATA_DIR"
        )
    return load_body_acc(data_dir), {"source": f"hapt:{data_dir}"}


def _spec_from_args(args, family: Family | None = None) -> LearnerSpec:
    fam = family if family is not None else Family(args.learner)
    return LearnerSpec(fam, **{f.name: getattr(args, f.name)
                               for f in HYPERPARAMETERS})


def _validate_run(args, specs, ds: Dataset, needs_folds: bool) -> None:
    """Raise CliError listing every flag that cannot run on ds (for the
    first spec that has one), or DataError if ds has fewer than 2
    classes (cross-validation checks each fold's training set)."""
    if len(ds.class_counts()) < 2:
        raise DataError("boosting needs at least 2 classes in the data")
    common = []
    train_rows = ds.n_rows
    if needs_folds:
        if args.folds < 2:
            common.append("--folds: folds must be >= 2")
        elif args.folds > ds.n_rows:
            common.append(f"--folds: fold count {args.folds} exceeds row "
                          f"count {ds.n_rows}")
        else:  # the largest fold holds ceil(rows / folds) rows
            train_rows -= -(-ds.n_rows // args.folds)
    if args.rounds < 1:
        common.append("--rounds: rounds must be >= 1")
    if needs_folds and args.threads < 1:
        common.append("--threads: threads must be >= 1")
    for spec in specs:
        problems = list(common)
        try:
            spec.validate(ds.n_features)
        except ValueError as e:
            problems.extend(f"--{p.split()[0].replace('_', '-')}: {p}"
                            for p in str(e).split("; "))
        if spec.family is Family.KNN and spec.k > train_rows:
            problems.append(f"--k: k={spec.k} exceeds the {train_rows} rows "
                            f"of the smallest training set")
        if problems:
            raise CliError("invalid configuration:\n  " + "\n  ".join(problems))


def _effective_config(args, spec: LearnerSpec, source: dict) -> dict:
    return {
        **spec.hyperparameters(),
        "learner": spec.family.value,
        "rounds": args.rounds,
        "folds": args.folds,
        "threads": args.threads,
        **source,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    ds, _ = _resolve_dataset(args)
    save_csv(ds, args.out)
    print(f"wrote {args.out}: {ds.n_rows} rows, {ds.n_features} features")
    print(f"dataset digest: {dataset_digest(ds)}")
    print("class counts:")
    for label, count in sorted(ds.class_counts().items()):
        print(f"  {int(label):2d} {label.name:<20s} {count}")
    return 0


def cmd_summarize(args) -> int:
    ds, source = _resolve_dataset(args)
    payload = reports.summary_payload(
        summarize_by_activity(ds), {"command": "summarize", **source}, ds)
    _emit(reports.render(payload, args.format), args.out)
    return 0


def cmd_evaluate(args) -> int:
    ds, source = _resolve_dataset(args)
    spec = _spec_from_args(args)
    _validate_run(args, [spec], ds, needs_folds=True)
    config = _effective_config(args, spec, source)
    result = cross_validate(
        spec, ds, folds=args.folds, rounds=args.rounds, seed=args.seed,
        threads=args.threads,
    )
    payload = reports.evaluation_payload(result, config, ds)
    _emit(reports.render(payload, args.format), args.out)
    return 0


def cmd_compare(args) -> int:
    ds, source = _resolve_dataset(args)
    if args.learners:
        families = []
        for name in args.learners.split(","):
            name = name.strip()
            try:
                families.append(Family(name))
            except ValueError:
                valid = ", ".join(sorted(f.value for f in Family))
                raise CliError(
                    f"unknown learner {name!r}; valid names: {valid}"
                ) from None
        include_placeholders = False
    else:
        families = list(Family)
        include_placeholders = True
    specs = [_spec_from_args(args, family=f) for f in families]
    _validate_run(args, specs, ds, needs_folds=True)
    config = _effective_config(args, specs[0], source)
    config["learner"] = ",".join(f.value for f in families)
    report = compare(
        specs, ds, folds=args.folds, rounds=args.rounds, seed=args.seed,
        threads=args.threads, include_placeholders=include_placeholders,
    )
    payload = reports.comparison_payload(report, config, ds)
    _emit(reports.render(payload, args.format), args.out)
    return 0


def cmd_train(args) -> int:
    ds, source = _resolve_dataset(args)
    spec = _spec_from_args(args)
    _validate_run(args, [spec], ds, needs_folds=False)
    ensemble = boost_fit(spec, ds, rounds=args.rounds, seed=args.seed)
    save_model(
        args.model_out, ensemble, ds.feature_names,
        dataset_digest(ds), ds.n_rows,
    )
    print(
        f"wrote {args.model_out}: {FAMILIES[spec.family].display_name}, "
        f"{len(ensemble.rounds)} of {args.rounds} rounds kept, "
        f"trained on {ds.n_rows} rows"
    )
    return 0


def _check_columns(names, expected) -> None:
    """Raise CliError unless the input columns equal the model's features."""
    names, expected = list(names), list(expected)
    if names == expected:
        return
    missing = [n for n in expected if n not in names]
    extra = [n for n in names if n not in expected]
    detail = []
    if missing:
        detail.append(f"missing: {', '.join(missing)}")
    if extra:
        detail.append(f"unexpected: {', '.join(extra)}")
    if not detail:
        detail.append("column order differs")
    raise CliError(
        "input columns do not match the model's features "
        f"({'; '.join(detail)})"
    )


def cmd_predict(args) -> int:
    loaded = load_model(args.model)
    names, feats = load_feature_csv(args.from_csv)
    _check_columns(names, loaded.feature_names)
    pred = boost_predict_batch(loaded.ensemble, feats)
    _emit(reports.predictions_csv(pred), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DataError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (CliError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 4
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
