"""Span tracing by wrapping the package's public functions at their call sites.

A traced run replaces, for its duration, attributes such as
`mfpose.pipelines.ransac` or `mfpose.solvers.essential_five_point` with a
wrapper that records one span per call: name, thread, parent span, start and
end.  Spans nest per thread (the CLI runs a worker pool), stay in memory and
are written out when the run ends.  Self time is a span's duration minus the
time its direct children cover.  Nothing in the package is edited; an
attribute that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


def _count_models(result, args, kwargs):
    return {"models": len(result)}


def _count_rows(position, name):
    def counter(result, args, kwargs):
        data = kwargs[name] if name in kwargs else args[position]
        return {"rows": len(data)}

    return counter


def _count_result_rows(result, args, kwargs):
    return {"rows": len(result)}


def _count_points(result, args, kwargs):
    return {"points": len(result)}


# (module, attribute path, span name, counter).  The attribute is replaced
# where the caller looks it up: pipelines imports ransac, sampson_error and
# scale_consensus by name, the CLI imports run_estimator, load_scene,
# score_query and aggregate_report by name.
TARGETS = [
    ("mfpose.solvers", "essential_five_point", "solvers.essential_five_point", _count_models),
    ("mfpose.solvers", "pnp_p3p", "solvers.pnp_p3p", _count_models),
    ("mfpose.solvers", "procrustes_align", "solvers.procrustes_align", None),
    ("mfpose.solvers", "refine_essential", "solvers.refine_essential", None),
    ("mfpose.solvers", "decompose_essential", "solvers.decompose_essential", None),
    ("mfpose.solvers", "refine_pnp", "solvers.refine_pnp", None),
    ("mfpose.pipelines", "ransac", "robust.ransac", None),  # counted by _wrap_ransac
    ("mfpose.pipelines", "sampson_error", "robust.sampson_error", _count_rows(1, "matches")),
    ("mfpose.pipelines", "scale_consensus", "robust.scale_consensus", _count_rows(0, "ref_points")),
    ("mfpose.pipelines", "estimate_essmat_dscale", "pipelines.estimate_essmat_dscale", None),
    ("mfpose.pipelines", "estimate_pnp", "pipelines.estimate_pnp", None),
    ("mfpose.pipelines", "estimate_procrustes", "pipelines.estimate_procrustes", None),
    ("mfpose.pipelines", "DepthMap.sample_nearest", "pipelines.DepthMap.sample_nearest", None),
    ("mfpose.geometry", "Pose.transform", "geometry.Pose.transform", None),
    ("mfpose.dataset", "SceneManifest.load_matches", "dataset.load_matches", _count_result_rows),
    ("mfpose.dataset", "SceneManifest.load_depth", "dataset.load_depth", None),
    ("mfpose.dataset", "load_scene", "dataset.load_scene", None),
    ("mfpose.cli", "load_scene", "dataset.load_scene", None),
    ("mfpose.dataset", "synth_scene", "dataset.synth_scene", None),
    ("mfpose.cli", "run_estimator", "cli.run_estimator", None),
    ("mfpose.cli", "parse_estimates", "cli.parse_estimates", None),
    ("mfpose.cli", "score_query", "evaluation.score_query", None),
    ("mfpose.evaluation", "vcre", "evaluation.vcre", None),
    ("mfpose.evaluation", "precision_curve", "evaluation.precision_curve", _count_points),
    ("mfpose.cli", "aggregate_report", "evaluation.aggregate_report", None),
]


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        # (span_id, parent_id, thread_id, name, start, end, child_seconds, counts)
        self.spans: list[tuple] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        # [id, parent, name, start, child_seconds]
        frame = [span_id, parent, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list, counts: dict | None = None) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        record = (frame[0], frame[1], threading.get_ident(), frame[2], frame[3], end, frame[4], counts or {})
        with self._lock:
            self.spans.append(record)
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def adopt(self, spans: list[tuple]) -> None:
        """Takes over spans recorded by a forked child; later span ids follow theirs."""
        self.spans.extend(spans)
        self._ids = itertools.count(max((s[0] for s in self.spans), default=0) + 1)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result, args, kwargs)
                return result
            finally:
                tracer.end(frame, counts)

        return traced

    def _wrap_ransac(self, fn, name):
        """Counts samples drawn, samples that yielded a model, and iterations."""
        tracer = self

        @functools.wraps(fn)
        def traced(data, minimal_solver, *args, **kwargs):
            tally = {"samples": 0, "useful": 0}

            def counted(sample):
                tally["samples"] += 1  # a DegenerateSampleError leaves it wasted
                models = minimal_solver(sample)
                if len(models):
                    tally["useful"] += 1
                return models

            frame = tracer.begin(name)
            try:
                result = fn(data, counted, *args, **kwargs)
                tally["iterations"] = result.iterations
                return result
            finally:
                tracer.end(frame, tally)

        return traced

    def install(self) -> None:
        for module_name, path, name, counter in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if name == "robust.ransac":
                wrapped = self._wrap_ransac(original, name)
            else:
                wrapped = self._wrap(original, name, counter)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _, _, _, name, start, end, child, counts in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
            for key, value in counts.items():
                entry[key] += value
        return out

    def threads_by_parent(self, parent_name: str, child_name: str) -> int:
        """Most distinct threads that ran `child_name` spans inside one `parent_name` span."""
        children = [(s[2], s[4], s[5]) for s in self.spans if s[3] == child_name]
        best = 0
        for s in self.spans:
            if s[3] == parent_name:
                threads = {thread for thread, start, end in children if s[4] <= start and end <= s[5]}
                best = max(best, len(threads))
        return best

    def write(self, path) -> None:
        """One JSON line per span, in end order."""
        with open(path, "w") as handle:
            for span_id, parent, thread, name, start, end, child, counts in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "thread": thread, "name": name,
                         "start": start, "end": end, "self": end - start - child, **counts},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
