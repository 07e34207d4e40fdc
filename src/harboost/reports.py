"""Report payloads and their text, CSV and JSON renderings.

Each command's report is built once, as a payload dict
(evaluation_payload, comparison_payload, summary_payload), and
render(payload, fmt) turns that one dict into any of the three formats,
so text, CSV and JSON always carry the same numbers. predictions_csv
writes the rows `harboost predict` emits.

JSON reports are schema-stable ("harboost.report.v1"): existing keys are
never renamed, new keys may appear. to_json writes them with
jsontext.canonical_json, the package's one JSON writer (sorted keys,
two-space indent, shortest round-trip floats: json.dumps's bytes), so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import numpy as np

from .dataset import ACTIVITY_NAMES, ActivitySummary, Dataset, dataset_digest
from .evaluation import (
    ComparisonReport,
    ConfusionMatrix,
    CVResult,
    class_precision,
    class_recall,
)
from .floattext import repr_rows
from .jsontext import canonical_json

SCHEMA = "harboost.report.v1"
_HEAT_LEVELS = " .:-=+*#%@"
_UNDEFINED = "—"
_ACCURACIES = ("mean_accuracy", "std_accuracy", "micro_accuracy")
_SUMMARY_STATS = ("mean", "std", "median_abs_dev", "max", "min")


def pct(x: float | None) -> str:
    return _UNDEFINED if x is None else f"{100.0 * x:.2f}%"


def headline(result: CVResult) -> str:
    return (
        f"accuracy: {pct(result.mean_accuracy)} +/- {pct(result.std_accuracy)} "
        f"(micro average: {pct(result.micro_accuracy)})"
    )


def dataset_block(ds: Dataset) -> dict:
    return {
        "digest": dataset_digest(ds),
        "rows": ds.n_rows,
        "features": ds.n_features,
        "feature_names": list(ds.feature_names),
    }


def _align(table: list[list[str]], right_from: int = 1) -> str:
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = []
    for row in table:
        cells = [
            row[c].ljust(widths[c]) if c < right_from else row[c].rjust(widths[c])
            for c in range(len(row))
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _csv(table: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in table)


def _reprs(values) -> list[str]:
    """repr of each float in values."""
    column = np.array(values, dtype=np.float64).reshape(-1, 1)
    return list(repr_rows(column))


def _confusion_block(cm: ConfusionMatrix) -> dict:
    """The payload keys of a confusion matrix and its class margins."""
    return {
        "confusion": {
            "order": [l.name for l in cm.labels],
            "class_ids": [int(l) for l in cm.labels],
            "counts": cm.counts.tolist(),
        },
        "precision": {l.name: class_precision(cm, l) for l in cm.labels},
        "recall": {l.name: class_recall(cm, l) for l in cm.labels},
    }


def _matrix_table(block: dict) -> list[list[str]]:
    """Cells of the count matrix, its precision column and recall row."""
    names = block["confusion"]["order"]
    table = [[""] + [f"true {n}" for n in names] + ["class precision"]]
    for n, counts in zip(names, block["confusion"]["counts"]):
        table.append([f"pred {n}", *(str(int(v)) for v in counts),
                      pct(block["precision"][n])])
    table.append(["class recall", *(pct(block["recall"][n]) for n in names), ""])
    return table


def _heatmap(block: dict) -> str:
    counts = block["confusion"]["counts"]
    peak = max(max(int(v) for row in counts for v in row), 1)
    lines = ["count heatmap (rows = predicted, columns = true):"]
    for name, row in zip(block["confusion"]["order"], counts):
        cells = []
        for v in row:
            level = 0 if v == 0 else 1 + int(
                (len(_HEAT_LEVELS) - 2) * (int(v) / peak)
            )
            cells.append(_HEAT_LEVELS[min(level, len(_HEAT_LEVELS) - 1)])
        lines.append(f"  {' '.join(cells)}  {name}")
    lines.append(f"  scale: ' ' = 0 .. '@' = {peak}")
    return "\n".join(lines)


def render_matrix_text(cm: ConfusionMatrix) -> str:
    """Count matrix with a class-precision column and class-recall row."""
    return _align(_matrix_table(_confusion_block(cm)))


def render_heatmap(cm: ConfusionMatrix) -> str:
    """Plain-text intensity map of the count matrix (rows = predicted)."""
    return _heatmap(_confusion_block(cm))


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------


def _payload(command: str, config: dict, ds: Dataset, **body) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config,
            "dataset": dataset_block(ds), **body}


def evaluation_payload(result: CVResult, config: dict, ds: Dataset) -> dict:
    return _payload("evaluate", config, ds, result={
        "headline": headline(result),
        **{k: getattr(result, k) for k in _ACCURACIES},
        "fold_accuracies": list(result.fold_accuracies),
        **_confusion_block(result.aggregate),
    })


def comparison_payload(report: ComparisonReport, config: dict, ds: Dataset) -> dict:
    rows = [
        {"name": row.name, "implemented": row.implemented,
         **{k: getattr(row.result, k) if row.implemented else None
            for k in _ACCURACIES}}
        for row in report.rows
    ]
    return _payload("compare", config, ds, rows=rows)


def summary_payload(rows: list[ActivitySummary], config: dict, ds: Dataset) -> dict:
    return _payload("summarize", config, ds, rows=[
        {"activity": r.activity.name, "activity_id": int(r.activity),
         "feature": r.feature, **{k: getattr(r, k) for k in _SUMMARY_STATS}}
        for r in rows
    ])


# ---------------------------------------------------------------------------
# Rendering a payload
# ---------------------------------------------------------------------------


def to_json(payload: dict) -> str:
    return canonical_json(payload)


def _header(title: str, p: dict) -> list[str]:
    ds = p["dataset"]
    return [
        title,
        "configuration:",
        "\n".join(f"  {k}: {p['config'][k]}" for k in sorted(p["config"])),
        f"dataset: {ds['rows']} rows, {ds['features']} features, "
        f"digest {ds['digest']}",
        "",
    ]


def _metrics(p: dict, metrics: list[tuple[str, float]]) -> list[list[str]]:
    """The metric,value block that closes a CSV report."""
    rows = [["metric", "value"]]
    rows += [[name, text] for (name, _), text
             in zip(metrics, _reprs([v for _, v in metrics]))]
    rows.append(["dataset_digest", p["dataset"]["digest"]])
    rows += [[f"config_{k}", str(v)] for k, v in sorted(p["config"].items())]
    return rows


def _evaluation_text(p: dict) -> str:
    r = p["result"]
    return "\n".join([
        *_header("boosted cross-validation report", p),
        r["headline"],
        "",
        _align(_matrix_table(r)),
        "",
        _heatmap(r),
        "",
        "fold accuracies: " + ", ".join(pct(a) for a in r["fold_accuracies"]),
    ])


def _evaluation_csv(p: dict) -> str:
    r = p["result"]
    metrics = [(k, r[k]) for k in _ACCURACIES]
    metrics += [(f"fold_{i}_accuracy", a)
                for i, a in enumerate(r["fold_accuracies"])]
    return _csv(_matrix_table(r) + [[]] + _metrics(p, metrics))


def _comparison_text(p: dict) -> str:
    table = [["learner", "overall accuracy", "micro average"]]
    for row in p["rows"]:
        if row["implemented"]:
            table.append([
                row["name"],
                f"{pct(row['mean_accuracy'])} +/- {pct(row['std_accuracy'])}",
                pct(row["micro_accuracy"]),
            ])
        else:
            table.append([row["name"], "not implemented", ""])
    return "\n".join(
        [*_header("learner comparison (boosted, shared stratified folds)", p),
         _align(table)]
    )


def _comparison_csv(p: dict) -> str:
    table = [["learner", *_ACCURACIES, "implemented"]]
    for row in p["rows"]:
        done = row["implemented"]
        values = (_reprs([row[k] for k in _ACCURACIES]) if done
                  else [""] * len(_ACCURACIES))
        table.append([row["name"], *values, "true" if done else "false"])
    return _csv(table + [[]] + _metrics(p, []))


def _summary_text(p: dict) -> str:
    table = [["activity", "feature", "mean", "std", "mad", "max", "min"]]
    for r in p["rows"]:
        table.append([r["activity"], r["feature"],
                      *(f"{r[k]:.6f}" for k in _SUMMARY_STATS)])
    return _align(table, right_from=2)


def _summary_csv(p: dict) -> str:
    table = [["activity_id", "activity", "feature", *_SUMMARY_STATS]]
    n = len(_SUMMARY_STATS)
    stats = _reprs([r[k] for r in p["rows"] for k in _SUMMARY_STATS])
    for i, r in enumerate(p["rows"]):
        table.append([str(r["activity_id"]), r["activity"], r["feature"],
                      *stats[n * i:n * i + n]])
    return _csv(table)


_RENDERERS = {
    ("evaluate", "text"): _evaluation_text,
    ("evaluate", "csv"): _evaluation_csv,
    ("compare", "text"): _comparison_text,
    ("compare", "csv"): _comparison_csv,
    ("summarize", "text"): _summary_text,
    ("summarize", "csv"): _summary_csv,
}


def render(payload: dict, fmt: str) -> str:
    """A report payload as fmt: "json", "text" or "csv"."""
    if fmt == "json":
        return to_json(payload)
    return _RENDERERS[payload["command"], fmt](payload) + "\n"


def predictions_csv(pred) -> str:
    """The row,activity_id,activity_name CSV of predicted activity ids."""
    return "row,activity_id,activity_name\n" + "".join(
        f"{i},{p},{ACTIVITY_NAMES[p]}\n"
        for i, p in enumerate(np.asarray(pred, dtype=np.int64).tolist()))
