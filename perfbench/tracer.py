"""Spans and counters for the traced run, recorded from outside harboost.

``install`` rebinds the module-level names that harboost's callers look
up (for example ``harboost.evaluation.boost_fit`` and
``harboost.cli.load_csv``) and the methods the boosting loop calls
(``LearnerSpec.fit_weighted`` and each model class's ``predict_batch``)
to wrappers that record a span around the original. ``Tracer.restore``
puts every original back. Nothing in ``src/harboost`` is edited.

A span is (id, name, start, end, parent, thread). The parent is the
innermost open span on the same thread; a span opened on a worker thread
with nothing open adopts the innermost open span of the main thread,
which is the ``cross_validate`` call that started the pool. Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

#: Learner families in ``harboost.learners.Family`` order.
FAMILIES = (
    "knn", "decision-stump", "decision-tree", "multiway-tree", "random-tree",
    "random-forest", "naive-bayes", "kernel-naive-bayes", "lda", "qda",
    "linear-regression", "vector-linear-regression",
)
COMMANDS = ("ingest", "evaluate", "compare", "train", "predict")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident())
            )

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @property
    def family(self) -> str:
        """Learner family of the boosting call running on this thread."""
        return getattr(self._local, "family", None) or "unknown"

    def with_family(self, family: str, fn, *args, **kwargs):
        previous = getattr(self._local, "family", None)
        self._local.family = family
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.family = previous

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, fn, wrapper) -> None:
        """Replace fn by wrapper under every harboost module-level name
        that refers to it, so every caller looks up the wrapper."""
        wrapped = functools.wraps(fn)(wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "harboost":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._set(cls, attr, functools.wraps(getattr(cls, attr))(wrapper))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every harboost module. CLI commands
    are spanned by the benchmark itself, around each ``cli.main`` call.
    A boundary that no longer exists is skipped and named in
    ``tracer.missing``; its metrics then read 0."""
    from harboost import boosting, dataset, evaluation, modelfile, reports, rng
    from harboost import learners
    from harboost.learners import bayes, constant, discriminant, knn
    from harboost.learners import regression, trees

    tracer.missing = []

    def find(owner, attr):
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
        return fn

    def timed(name, owner, attr, after=None):
        fn = find(owner, attr)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        tracer.rebind(fn, wrapper)

    for attr in ("load_hapt", "save_csv", "load_csv", "select_features",
                 "stratified_folds"):
        timed(f"dataset.{attr}", dataset, attr)
    timed("dataset.dataset_digest", dataset, "dataset_digest",
          lambda args, result: tracer.count("dataset.dataset_digest"))

    spec_cls = find(learners, "LearnerSpec")
    if spec_cls is not None and find(spec_cls, "fit_weighted") is not None:
        fit_weighted = spec_cls.fit_weighted

        def traced_fit(spec, *args, **kwargs):
            name = f"learners.{spec.family.value}.fit"
            return tracer.call(name, fit_weighted, spec, *args, **kwargs)
        tracer.patch_method(spec_cls, "fit_weighted", traced_fit)

    def traced_predict(original):
        def wrapper(model, *args, **kwargs):
            name = f"learners.{tracer.family}.predict"
            return tracer.call(name, original, model, *args, **kwargs)
        return wrapper

    for module in (bayes, constant, discriminant, knn, regression, trees):
        for cls in list(vars(module).values()):
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and "predict_batch" in vars(cls):
                tracer.patch_method(cls, "predict_batch",
                                    traced_predict(cls.predict_batch))

    timed("learners.knn.neighbor_table", knn, "neighbor_table",
          lambda args, result: tracer.count("learners.knn.neighbor_table"))
    timed("learners.knn.vote_scores", knn, "vote_scores")

    rng_cls = find(rng, "SplitMix64")
    if rng_cls is not None and find(rng_cls, "next_uint64") is not None:
        next_uint64 = rng_cls.next_uint64

        def counted_next_uint64(self):
            tracer.count("rng.next_uint64")
            return next_uint64(self)
        tracer.patch_method(rng_cls, "next_uint64", counted_next_uint64)

    def family_of(spec):
        return getattr(getattr(spec, "family", None), "value", None)

    original_fit = find(boosting, "boost_fit")
    if original_fit is not None:
        def boost_fit(spec, ds, *args, **kwargs):
            ens = tracer.with_family(
                family_of(spec), tracer.call, "boosting.boost_fit",
                original_fit, spec, ds, *args, **kwargs,
            )
            tracer.count("boosting.rounds_kept", len(ens.rounds))
            tracer.count("boosting.rounds_requested", ens.rounds_requested)
            return ens
        tracer.rebind(original_fit, boost_fit)

    original_predict = find(boosting, "boost_predict_batch")
    if original_predict is not None:
        def boost_predict_batch(ens, *args, **kwargs):
            return tracer.with_family(
                family_of(ens.base_spec), tracer.call,
                "boosting.boost_predict_batch", original_predict, ens,
                *args, **kwargs,
            )
        tracer.rebind(original_predict, boost_predict_batch)

    timed("evaluation.cross_validate", evaluation, "cross_validate")
    timed("evaluation.compare", evaluation, "compare")
    timed("evaluation.fold", evaluation, "_fold_result")
    timed("evaluation.confusion_from_predictions", evaluation,
          "confusion_from_predictions")

    def count_bytes(args, result):
        tracer.count("reports.bytes_out", len(result.encode("utf-8")))

    for attr in ("evaluation_payload", "comparison_payload", "summary_payload"):
        timed("reports.payload", reports, attr)
    for attr in ("to_json", "render_evaluation_text", "render_evaluation_csv",
                 "render_comparison_text", "render_comparison_csv",
                 "render_summary_text", "render_summary_csv"):
        timed("reports.render", reports, attr, count_bytes)

    def count_model_bytes(args, result):
        tracer.count("modelfile.bytes", os.path.getsize(args[0]))

    timed("modelfile.save_model", modelfile, "save_model", count_model_bytes)
    timed("modelfile.load_model", modelfile, "load_model")


# -- per-layer metrics ------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy_s(spans) -> float:
    """Time covered by the spans, per thread, summed over threads; nested
    spans of the same layer count once."""
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append((s.start, s.end))
    return sum(_union_length(v) for v in by_thread.values())


def self_s(spans, children) -> float:
    """Each span's duration minus the union of its child spans."""
    total = 0.0
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
        ]
        total += (s.end - s.start) - _union_length(k for k in kids if k[1] > k[0])
    return total


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    names = [
        ("dataset.load_hapt_s", "s"), ("dataset.save_csv_s", "s"),
        ("dataset.load_csv_s", "s"), ("dataset.dataset_digest_s", "s"),
        ("dataset.dataset_digest_calls", "count"),
        ("dataset.stratified_folds_s", "s"),
    ]
    for fam in FAMILIES:
        names += [(f"learners.{fam}.fit_s", "s"), (f"learners.{fam}.predict_s", "s")]
    names += [
        ("learners.knn.neighbor_table_s", "s"),
        ("learners.knn.neighbor_table_calls", "count"),
        ("learners.knn.vote_scores_s", "s"),
        ("rng.next_uint64_calls", "count"),
        ("boosting.boost_fit_s", "s"), ("boosting.boost_fit_self_s", "s"),
        ("boosting.boost_predict_batch_s", "s"),
        ("boosting.rounds_kept_ratio", "ratio"),
        ("evaluation.cross_validate_s", "s"),
        ("evaluation.cross_validate_self_s", "s"),
        ("evaluation.confusion_from_predictions_s", "s"),
        ("evaluation.fold_busy_ratio", "ratio"),
        ("reports.payload_s", "s"), ("reports.render_s", "s"),
        ("reports.bytes_out", "bytes"),
        ("modelfile.save_model_s", "s"), ("modelfile.load_model_s", "s"),
        ("modelfile.bytes", "bytes"),
    ]
    names += [(f"cli.{cmd}_s", "s") for cmd in COMMANDS]
    names += [("cli.self_s", "s"), ("trace.overhead_ratio", "ratio")]
    return names


def per_layer_metrics(tracer: Tracer, iterations: int, threads: int,
                      traced_walls, untraced_walls) -> dict[str, tuple]:
    """(value, unit) of every per-layer metric. Times and counts are the
    run's totals divided by the number of traced iterations."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    counts = tracer.counts

    def busy(*names):
        return busy_s([s for n in names for s in by_name[n]]) / iterations

    def own(*names):
        return self_s([s for n in names for s in by_name[n]], children) / iterations

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "dataset.load_hapt_s": busy("dataset.load_hapt"),
        "dataset.save_csv_s": busy("dataset.save_csv"),
        "dataset.load_csv_s": busy("dataset.load_csv"),
        "dataset.dataset_digest_s": busy("dataset.dataset_digest"),
        "dataset.dataset_digest_calls": counts["dataset.dataset_digest"] / iterations,
        "dataset.stratified_folds_s": busy("dataset.stratified_folds"),
    }
    for fam in FAMILIES:
        m[f"learners.{fam}.fit_s"] = busy(f"learners.{fam}.fit")
        predict = [f"learners.{fam}.predict"]
        if fam == "knn":
            # Boosting scores k-NN rounds from one shared neighbor table
            # instead of calling predict_batch.
            predict += ["learners.knn.neighbor_table", "learners.knn.vote_scores"]
        m[f"learners.{fam}.predict_s"] = busy(*predict)
    cv_spans = by_name["evaluation.cross_validate"]
    cv_wall = sum(s.end - s.start for s in cv_spans)
    fold_busy = sum(s.end - s.start for s in by_name["evaluation.fold"])
    m.update({
        "learners.knn.neighbor_table_s": busy("learners.knn.neighbor_table"),
        "learners.knn.neighbor_table_calls":
            counts["learners.knn.neighbor_table"] / iterations,
        "learners.knn.vote_scores_s": busy("learners.knn.vote_scores"),
        "rng.next_uint64_calls": counts["rng.next_uint64"] / iterations,
        "boosting.boost_fit_s": busy("boosting.boost_fit"),
        "boosting.boost_fit_self_s": own("boosting.boost_fit"),
        "boosting.boost_predict_batch_s": busy("boosting.boost_predict_batch"),
        "boosting.rounds_kept_ratio": ratio(
            counts["boosting.rounds_kept"], counts["boosting.rounds_requested"]
        ),
        "evaluation.cross_validate_s": busy("evaluation.cross_validate"),
        "evaluation.cross_validate_self_s": own("evaluation.cross_validate"),
        "evaluation.confusion_from_predictions_s":
            busy("evaluation.confusion_from_predictions"),
        "evaluation.fold_busy_ratio": ratio(fold_busy, threads * cv_wall),
        "reports.payload_s": busy("reports.payload"),
        "reports.render_s": busy("reports.render"),
        "reports.bytes_out": counts["reports.bytes_out"] / iterations,
        "modelfile.save_model_s": busy("modelfile.save_model"),
        "modelfile.load_model_s": busy("modelfile.load_model"),
        "modelfile.bytes": counts["modelfile.bytes"] / iterations,
    })
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = busy(f"cli.{cmd}")
    m["cli.self_s"] = own(*(f"cli.{cmd}" for cmd in COMMANDS))
    m["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {name: (m[name], unit) for name, unit in per_layer_names()}
