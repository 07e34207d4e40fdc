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

import numpy as np

from . import __version__
from .boosting import boost_fit, boost_predict_batch
from .dataset import (
    BODY_ACC_FEATURES,
    ActivityLabel,
    DataError,
    Dataset,
    dataset_digest,
    load_csv,
    load_hapt,
    require_finite,
    save_csv,
    select_features,
    summarize_by_activity,
)
from .evaluation import compare, cross_validate
from .learners import DISPLAY_NAMES, Family, LearnerSpec
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
    p.add_argument("--k", type=int, default=12, help="k-NN neighbor count")
    p.add_argument("--rounds", type=int, default=10, help="boosting rounds")
    p.add_argument("--seed", type=int, default=0, help="top-level seed")
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--min-leaf-weight", type=float, default=1e-4)
    p.add_argument("--bins", type=int, default=4, help="multiway-tree intervals")
    p.add_argument("--trees", type=int, default=10, help="forest size")
    p.add_argument("--subset-size", type=int, default=None,
                   help="random-tree feature subset (default ceil(sqrt(d)))")
    p.add_argument("--ridge", type=float, default=None,
                   help="regularization for regressions/discriminants")


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
    ds = select_features(load_hapt(data_dir), BODY_ACC_FEATURES)
    return ds, {"source": f"hapt:{data_dir}"}


def _spec_from_args(args, family: Family | None = None) -> LearnerSpec:
    fam = family if family is not None else Family(args.learner)
    return LearnerSpec(
        family=fam,
        k=args.k,
        max_depth=args.max_depth,
        min_leaf_weight=args.min_leaf_weight,
        bins=args.bins,
        trees=args.trees,
        subset_size=args.subset_size,
        ridge=args.ridge,
        seed=args.seed,
    )


def _validate_run(args, spec: LearnerSpec, needs_folds: bool) -> None:
    problems = []
    if needs_folds and args.folds < 2:
        problems.append("--folds: folds must be >= 2")
    if args.rounds < 1:
        problems.append("--rounds: rounds must be >= 1")
    if needs_folds and args.threads < 1:
        problems.append("--threads: threads must be >= 1")
    try:
        spec.validate()
    except ValueError as e:
        problems.extend(f"--{p.split()[0].replace('_', '-')}: {p}"
                        for p in str(e).split("; "))
    if problems:
        raise CliError("invalid configuration:\n  " + "\n  ".join(problems))


def _effective_config(args, spec: LearnerSpec, source: dict,
                      needs_folds: bool) -> dict:
    cfg = {
        "learner": spec.family.value,
        "k": spec.k,
        "rounds": args.rounds,
        "seed": args.seed,
        "max_depth": spec.max_depth,
        "min_leaf_weight": spec.min_leaf_weight,
        "bins": spec.bins,
        "trees": spec.trees,
        "subset_size": spec.subset_size,
        "ridge": spec.ridge,
        **source,
    }
    if needs_folds:
        cfg["folds"] = args.folds
        cfg["threads"] = args.threads
    return cfg


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
    rows = summarize_by_activity(ds)
    config = {"command": "summarize", **source}
    if args.format == "json":
        text = reports.to_json(reports.summary_payload(rows, config, ds))
    elif args.format == "csv":
        text = reports.render_summary_csv(rows)
    else:
        text = reports.render_summary_text(rows)
    _emit(text, args.out)
    return 0


def cmd_evaluate(args) -> int:
    ds, source = _resolve_dataset(args)
    spec = _spec_from_args(args)
    _validate_run(args, spec, needs_folds=True)
    config = _effective_config(args, spec, source, needs_folds=True)
    result = cross_validate(
        spec, ds, folds=args.folds, rounds=args.rounds, seed=args.seed,
        threads=args.threads,
    )
    if args.format == "json":
        text = reports.to_json(reports.evaluation_payload(result, config, ds))
    elif args.format == "csv":
        text = reports.render_evaluation_csv(result, config, ds)
    else:
        text = reports.render_evaluation_text(result, config, ds)
    _emit(text, args.out)
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
    for spec in specs:
        _validate_run(args, spec, needs_folds=True)
    config = _effective_config(args, specs[0], source, needs_folds=True)
    config["learner"] = ",".join(f.value for f in families)
    report = compare(
        specs, ds, folds=args.folds, rounds=args.rounds, seed=args.seed,
        threads=args.threads, include_placeholders=include_placeholders,
    )
    if args.format == "json":
        text = reports.to_json(reports.comparison_payload(report, config, ds))
    elif args.format == "csv":
        text = reports.render_comparison_csv(report, config, ds)
    else:
        text = reports.render_comparison_text(report, config, ds)
    _emit(text, args.out)
    return 0


def cmd_train(args) -> int:
    ds, source = _resolve_dataset(args)
    spec = _spec_from_args(args)
    _validate_run(args, spec, needs_folds=False)
    ensemble = boost_fit(spec, ds, rounds=args.rounds, seed=args.seed)
    save_model(
        args.model_out, ensemble, ds.feature_names,
        dataset_digest(ds), ds.n_rows,
    )
    print(
        f"wrote {args.model_out}: {DISPLAY_NAMES[spec.family]}, "
        f"{len(ensemble.rounds)} of {args.rounds} rounds kept, "
        f"trained on {ds.n_rows} rows"
    )
    return 0


def _read_feature_csv(path, expected_names) -> np.ndarray:
    """Feature matrix from a CSV whose columns must equal expected_names
    (an ingested CSV's trailing label columns are ignored)."""
    ds_names = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header[-2:] == ["activity_id", "activity_name"]:
        ds = load_csv(path)
        ds_names, feats = list(ds.feature_names), ds.features
    else:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            for ln, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != len(header):
                    raise DataError(
                        f"{path}: line {ln} has {len(cells)} cells, "
                        f"expected {len(header)}"
                    )
                try:
                    rows.append([float(c) for c in cells])
                except ValueError as e:
                    raise DataError(f"{path}: line {ln}: {e}") from None
        if not rows:
            raise DataError(f"{path}: no data rows")
        ds_names, feats = header, np.array(rows, dtype=np.float64)
        require_finite(feats, f"{path}: ")
    expected = list(expected_names)
    if ds_names != expected:
        missing = [n for n in expected if n not in ds_names]
        extra = [n for n in ds_names if n not in expected]
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
    return feats


def cmd_predict(args) -> int:
    loaded = load_model(args.model)
    feats = _read_feature_csv(args.from_csv, loaded.feature_names)
    pred = boost_predict_batch(loaded.ensemble, feats)
    lines = ["row,activity_id,activity_name"]
    for i, p in enumerate(pred):
        lines.append(f"{i},{int(p)},{ActivityLabel(int(p)).name}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 4
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
