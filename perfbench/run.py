"""Benchmark of the mfpose toolkit: per-query latency, CLI throughput, evaluation rate.

    python3 perfbench/run.py --workload sparse-outlier --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy.  A run writes its inputs to disk as
chunks (timed as set-up), then measures whole cycles over the chunks, one
round per chunk, as long as another cycle fits in `--seconds` (at least
one); a traced run (`--trace 1`) does exactly one cycle, so that its counts
repeat exactly.  Each round reads its chunk's inputs back from disk
(untimed) and takes them through

  1. one library call per query and estimator, estimators interleaved per
     query (latency),
  2. `mfpose estimate` over the chunk's dataset, per estimator (throughput),
  3. `mfpose evaluate` over the estimates (evaluation rate).

All outputs are checked against the benchmark's own computations
(`oracles.py`).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the environment and the
raw figures go to `perfbench/_results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from calibrate import Calibration
from oracles import CheckFailed
from tracing import Tracer
from workloads import ESTIMATORS, WORKLOADS, build_chunk, load_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_results"
WORK = HERE / "_work"

END_TO_END = (
    [("setup_s", "s")]
    + [(f"query_p50_ms.{e}", "ms") for e in ESTIMATORS]
    + [(f"estimate_qps.{e}", "1/s") for e in ESTIMATORS]
    + [("evaluate_qps", "1/s"), ("peak_rss_mb", "MB")]
)

# (metric, span, measure, unit); measure "self_ms" is self time, "busy_s" total time
PER_LAYER = [
    ("solvers.essential_five_point.calls", "solvers.essential_five_point", "calls", "count"),
    ("solvers.essential_five_point.models", "solvers.essential_five_point", "models", "count"),
    ("solvers.essential_five_point.self_ms", "solvers.essential_five_point", "self_ms", "ms"),
    ("solvers.pnp_p3p.calls", "solvers.pnp_p3p", "calls", "count"),
    ("solvers.pnp_p3p.models", "solvers.pnp_p3p", "models", "count"),
    ("solvers.pnp_p3p.self_ms", "solvers.pnp_p3p", "self_ms", "ms"),
    ("solvers.procrustes_align.calls", "solvers.procrustes_align", "calls", "count"),
    ("solvers.procrustes_align.self_ms", "solvers.procrustes_align", "self_ms", "ms"),
    ("solvers.refine_essential.calls", "solvers.refine_essential", "calls", "count"),
    ("solvers.refine_essential.self_ms", "solvers.refine_essential", "self_ms", "ms"),
    ("solvers.decompose_essential.self_ms", "solvers.decompose_essential", "self_ms", "ms"),
    ("solvers.refine_pnp.calls", "solvers.refine_pnp", "calls", "count"),
    ("solvers.refine_pnp.self_ms", "solvers.refine_pnp", "self_ms", "ms"),
    ("robust.ransac.calls", "robust.ransac", "calls", "count"),
    ("robust.ransac.iterations", "robust.ransac", "iterations", "count"),
    ("robust.ransac.self_ms", "robust.ransac", "self_ms", "ms"),
    ("robust.ransac.useful_ratio", "robust.ransac", "useful_ratio", "ratio"),
    ("robust.sampson_error.calls", "robust.sampson_error", "calls", "count"),
    ("robust.sampson_error.rows", "robust.sampson_error", "rows", "count"),
    ("robust.sampson_error.self_ms", "robust.sampson_error", "self_ms", "ms"),
    ("robust.scale_consensus.calls", "robust.scale_consensus", "calls", "count"),
    ("robust.scale_consensus.rows", "robust.scale_consensus", "rows", "count"),
    ("robust.scale_consensus.self_ms", "robust.scale_consensus", "self_ms", "ms"),
    ("pipelines.estimate_essmat_dscale.self_ms", "pipelines.estimate_essmat_dscale", "self_ms", "ms"),
    ("pipelines.estimate_pnp.self_ms", "pipelines.estimate_pnp", "self_ms", "ms"),
    ("pipelines.estimate_procrustes.self_ms", "pipelines.estimate_procrustes", "self_ms", "ms"),
    ("pipelines.DepthMap.sample_nearest.self_ms", "pipelines.DepthMap.sample_nearest", "self_ms", "ms"),
    ("geometry.Pose.transform.calls", "geometry.Pose.transform", "calls", "count"),
    ("geometry.Pose.transform.self_ms", "geometry.Pose.transform", "self_ms", "ms"),
    ("dataset.load_matches.calls", "dataset.load_matches", "calls", "count"),
    ("dataset.load_matches.rows", "dataset.load_matches", "rows", "count"),
    ("dataset.load_matches.self_ms", "dataset.load_matches", "self_ms", "ms"),
    ("dataset.load_depth.self_ms", "dataset.load_depth", "self_ms", "ms"),
    ("dataset.load_scene.self_ms", "dataset.load_scene", "self_ms", "ms"),
    ("dataset.synth_scene.self_ms", "dataset.synth_scene", "self_ms", "ms"),
    ("cli.run_estimator.busy_s", "cli.run_estimator", "busy_s", "s"),
    ("cli.worker_busy_ratio", "cli.run_estimator", "worker_busy_ratio", "ratio"),
    ("cli.parse_estimates.self_ms", "cli.parse_estimates", "self_ms", "ms"),
    ("evaluation.score_query.self_ms", "evaluation.score_query", "self_ms", "ms"),
    ("evaluation.vcre.calls", "evaluation.vcre", "calls", "count"),
    ("evaluation.vcre.self_ms", "evaluation.vcre", "self_ms", "ms"),
    ("evaluation.precision_curve.calls", "evaluation.precision_curve", "calls", "count"),
    ("evaluation.precision_curve.points", "evaluation.precision_curve", "points", "count"),
    ("evaluation.precision_curve.self_ms", "evaluation.precision_curve", "self_ms", "ms"),
    ("evaluation.aggregate_report.self_ms", "evaluation.aggregate_report", "self_ms", "ms"),
]

THREAD_VARIABLES = (
    "MFP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def import_package():
    """Import mfpose from this checkout's src/; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "mfpose" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {src}")
    sys.path.insert(0, str(src))
    import mfpose
    import mfpose.cli  # noqa: F401  (loads every module the benchmark drives)

    if Path(mfpose.__file__).resolve().parent != (src / "mfpose").resolve():
        raise SystemExit(f"perfbench: imported mfpose from {mfpose.__file__}, not from {src}")
    return mfpose


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run of one workload: inputs, timed rounds, checks, metrics."""

    def __init__(self, mfpose, workload, seed: int, work: Path, tracer: Tracer | None):
        self.mfpose = mfpose
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.chunks = []
        self.calibration = Calibration()
        # raw times; metrics scale them by the run's calibration factor
        self.setup_s = []
        self.latency = {e: [] for e in ESTIMATORS}
        self.cli_seconds = {e: 0.0 for e in ESTIMATORS}
        self.cli_queries = {e: 0 for e in ESTIMATORS}
        self.eval_seconds = 0.0
        self.eval_records = 0
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        # first result per (chunk, estimator) / evaluated file; later ones must match
        self.library = {}  # (chunk, estimator) -> [(line, estimate)]
        self.cli_output = {}  # (chunk, estimator) -> bytes
        self.reports = {}  # (chunk, file label) -> (report bytes, stdout text)
        self.mismatches = []

    # -- phases ------------------------------------------------------------

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> None:
        """Writes every chunk to disk in a forked child process.

        Generating a scene takes more memory than the measured work does on
        `sparse-outlier` and `eval-records`; done in this process it would
        set their peak resident set.  The child sends back the chunks' light
        part, the set-up times and, when traced, its spans.
        """
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=self._build_chunks, args=(send,))
        child.start()
        send.close()
        try:
            self.chunks, self.setup_s, spans = receive.recv()
        except EOFError:
            spans = None
        finally:
            receive.close()
            child.join()
        if spans is None or child.exitcode != 0:
            raise SystemExit(f"perfbench: set-up failed (child exit code {child.exitcode})")
        if self.tracer is not None:
            self.tracer.adopt(spans)
        for elapsed in self.setup_s:
            self.calibration.after(elapsed)

    def _build_chunks(self, send) -> None:
        """In the child: build each chunk and read its inputs back once, timed."""
        chunks, setup_s = [], []
        for index in range(self.workload.chunks):
            start = time.perf_counter()
            with self._span("bench.setup"):
                chunk = build_chunk(self.mfpose, self.workload, self.seed, index, self.work / f"chunk{index}")
                for _ in load_inputs(self.mfpose, chunk):
                    pass
            setup_s.append(time.perf_counter() - start)
            chunks.append(chunk)
        send.send((chunks, setup_s, self.tracer.spans if self.tracer else []))
        send.close()

    def _cli(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mfpose.cli.main(argv)
        if code != 0:
            print(f"perfbench: mfpose {' '.join(argv)} exited {code}: {err.getvalue()}", file=sys.stderr)
        return code, out.getvalue()

    def latency_phase(self, index: int) -> None:
        pipelines, cli = self.mfpose.pipelines, self.mfpose.cli
        chunk = self.chunks[index]
        lines = {e: [] for e in ESTIMATORS}
        for i, (q, matches, depth_ref, depth_query) in enumerate(load_inputs(self.mfpose, chunk)):
            cfg = pipelines.EstimatorConfig(rng_seed=cli.derive_seed(self.seed, q.scene_id, q.query_id))
            query_seconds = 0.0
            for estimator in ESTIMATORS[i % 3:] + ESTIMATORS[:i % 3]:
                with self._span(f"bench.query.{estimator}"):
                    start = time.perf_counter()
                    estimate = pipelines.run_estimator(
                        estimator, matches, depth_ref, depth_query, q.k_ref, q.k_query, cfg
                    )
                    elapsed = time.perf_counter() - start
                self.latency[estimator].append(elapsed)
                query_seconds += elapsed
                self.attempted += 1
                if estimate.status is not pipelines.EstimateStatus.OK:
                    self.failed += 1
                lines[estimator].append((cli.format_estimate_line(q.scene_id, q.query_id, estimate), estimate))
            self.calibration.after(query_seconds)
        for estimator, got in lines.items():
            first = self.library.setdefault((index, estimator), got)
            if [line for line, _ in first] != [line for line, _ in got]:
                self.mismatches.append(f"chunk {index} {estimator}: library results differ between rounds")

    def estimate_phase(self, index: int) -> None:
        chunk = self.chunks[index]
        for estimator in ESTIMATORS:
            out = self.work / "out" / f"chunk{index}-{estimator}.txt"
            for _ in range(self.workload.cli_passes[estimator]):
                argv = ["estimate", "--dataset", str(chunk.dataset), "--estimator", estimator,
                        "--seed", str(self.seed), "--out", str(out)]
                with self._span("bench.cli_estimate"):
                    start = time.perf_counter()
                    code, _ = self._cli(argv)
                    elapsed = time.perf_counter() - start
                self.calibration.after(elapsed, "pool")
                count = len(chunk.queries)
                self.attempted += count
                if code != 0:
                    self.failed += count
                    continue
                self.cli_seconds[estimator] += elapsed
                self.cli_queries[estimator] += count
                text = out.read_bytes()
                self.failed += sum(1 for line in text.decode().splitlines() if line.split()[2] != "ok")
                first = self.cli_output.setdefault((index, estimator), text)
                if first != text:
                    self.mismatches.append(f"chunk {index} {estimator}: estimate output differs between passes")

    def evaluate_phase(self, index: int) -> None:
        chunk = self.chunks[index]
        if chunk.estimates_file is not None:
            jobs = [("records", chunk.estimates_file, chunk.records_dataset, len(chunk.records))]
        else:
            jobs = [(e, self.work / "out" / f"chunk{index}-{e}.txt", chunk.dataset, len(chunk.queries))
                    for e in ESTIMATORS]
        for label, estimates, dataset, count in jobs * self.workload.eval_passes:
            report = self.work / "out" / f"chunk{index}-{label}.json"
            argv = ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset),
                    "--out-json", str(report), "--out-csv", str(report.with_suffix(".csv"))]
            with self._span("bench.cli_evaluate"):
                start = time.perf_counter()
                code, stdout = self._cli(argv)
                elapsed = time.perf_counter() - start
            self.calibration.after(elapsed, "pool")
            self.attempted += count
            if code != 0:
                self.failed += count
                continue
            self.eval_seconds += elapsed
            self.eval_records += count
            got = (report.read_bytes(), stdout)
            first = self.reports.setdefault((index, label), got)
            if first != got:
                self.mismatches.append(f"chunk {index} {label}: evaluate output differs between passes")

    def measure(self, seconds: float) -> None:
        """Whole cycles over the chunks while another fits in `seconds`, at least one; one when traced.

        Every chunk is measured equally often, so a faster program is
        measured on the same inputs with the same weights as a slower one.
        """
        start = time.perf_counter()
        longest = 0.0
        while True:
            cycle_start = time.perf_counter()
            for index in range(len(self.chunks)):
                self.latency_phase(index)
                self.estimate_phase(index)
                self.evaluate_phase(index)
            self.cycles += 1
            now = time.perf_counter()
            longest = max(longest, now - cycle_start)
            if self.tracer is not None or now - start + longest > seconds:
                break

    # -- checks ------------------------------------------------------------

    def _scored(self, chunk_index: int, estimator: str) -> list[dict]:
        """Benchmark-side record per query of a chunk, from the library estimates."""
        records = []
        for q, (_, estimate) in zip(self.chunks[chunk_index].queries, self.library[(chunk_index, estimator)]):
            k = q.k_query
            record = {"scene": q.scene_id, "query": q.query_id, "diagonal": float(np.hypot(k.width, k.height)),
                      "ok": estimate.status.value == "ok", "confidence": estimate.confidence}
            if record["ok"]:
                r, t = estimate.pose.rotation, estimate.pose.translation
                rot, trans = oracles.pose_errors(r, t, q.gt_rotation, q.gt_translation)
                record.update(rot=rot, trans=trans, scale=oracles.scale_error(t, q.gt_translation),
                              vcre=oracles.vcre_px(r, t, q.gt_rotation, q.gt_translation,
                                                   k.fx, k.fy, k.cx, k.cy, record["diagonal"]))
            records.append(record)
        return records

    def _check_records(self, label: str, estimates_file: Path, dataset: Path, records: list[dict]) -> None:
        """Program's per-record errors (parse + score) against the benchmark's."""
        cli, evaluation = self.mfpose.cli, self.mfpose.evaluation
        manifests = {}
        parsed = cli.parse_estimates(estimates_file)
        if len(parsed) != len(records):
            raise CheckFailed(f"{label}: {len(parsed)} estimates parsed, expected {len(records)}")
        for (scene_id, query_id, estimate), record in zip(parsed, records):
            if (scene_id, query_id, estimate.status.value == "ok") != (record["scene"], record["query"], record["ok"]):
                raise CheckFailed(f"{label}: estimate {scene_id}/{query_id} does not match the input record")
            if estimate.confidence != record["confidence"]:
                raise CheckFailed(f"{label}: {scene_id}/{query_id} confidence {estimate.confidence!r}")
            if not record["ok"]:
                continue
            if scene_id not in manifests:
                manifests[scene_id] = self.mfpose.dataset.load_scene(dataset, scene_id)
            manifest = manifests[scene_id]
            scored = evaluation.score_query(scene_id, query_id, estimate, manifest.poses[query_id],
                                            manifest.intrinsics[query_id])
            oracles.check_record(
                f"{label} {scene_id}/{query_id}",
                (scored.rotation_error_deg, scored.translation_error_m, scored.vcre_px),
                (record["rot"], record["trans"], record["vcre"]),
            )

    def _check_report(self, label: str, key, records: list[dict]) -> None:
        if key not in self.reports:
            raise CheckFailed(f"{label}: no report was written")
        report_bytes, stdout = self.reports[key]
        report = json.loads(report_bytes)
        oracles.check_report(report, records)
        expected = "".join(f"acceptance {name}: {oracles.acceptance_rate(records, name):.6f}\n"
                           for name in oracles.acceptance_names())
        if stdout != expected:
            raise CheckFailed(f"{label}: evaluate printed {stdout!r}, expected {expected!r}")

    def check(self) -> None:
        if self.mismatches:
            raise CheckFailed("; ".join(self.mismatches))
        errors = {e: [] for e in ESTIMATORS}
        for (index, estimator), results in sorted(self.library.items()):
            cli_text = self.cli_output.get((index, estimator))
            library_text = "".join(line + "\n" for line, _ in results).encode()
            if cli_text != library_text:
                raise CheckFailed(f"chunk {index} {estimator}: `mfpose estimate` lines differ from library results")
            records = self._scored(index, estimator)
            for record in records:
                if not record["ok"]:
                    raise CheckFailed(f"chunk {index} {estimator}: {record['scene']}/{record['query']} not ok")
                errors[estimator].append((record["rot"], record["trans"], record["scale"]))
            chunk = self.chunks[index]
            if chunk.estimates_file is None:
                out = self.work / "out" / f"chunk{index}-{estimator}.txt"
                self._check_records(f"chunk {index} {estimator}", out, chunk.dataset, records)
                self._check_report(f"chunk {index} {estimator} report", (index, estimator), records)
        for estimator, values in errors.items():
            oracles.check_pose_accuracy(estimator, values)
        for index in sorted({i for i, _ in self.reports}):
            chunk = self.chunks[index]
            if chunk.estimates_file is not None:
                self._check_records(f"chunk {index} records", chunk.estimates_file, chunk.records_dataset,
                                    chunk.records)
                self._check_report(f"chunk {index} records report", (index, "records"), chunk.records)

    # -- metrics -----------------------------------------------------------

    def raw_figures(self) -> dict:
        """End-to-end figures from the raw (unscaled) times."""
        values = {"setup_s": statistics.median(self.setup_s)}
        for e in ESTIMATORS:
            values[f"query_p50_ms.{e}"] = 1000.0 * statistics.median(self.latency[e])
            values[f"estimate_qps.{e}"] = self.cli_queries[e] / self.cli_seconds[e]
        values["evaluate_qps"] = self.eval_records / self.eval_seconds
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return values

    def end_to_end(self) -> dict:
        """Raw figures at the calibrated machine speed: times times a factor, rates divided by it.

        Library calls and set-up take the numpy kernel's factor, `mfpose
        estimate` and `mfpose evaluate` the pool kernel's (see calibrate.py).
        """
        raw, factor = self.raw_figures(), self.calibration.factor
        scale = {name: factor() for name, _ in END_TO_END}
        scale.update({name: 1.0 / factor("pool") for name in scale if "_qps" in name})
        scale.update(peak_rss_mb=1.0)
        return {name: {"value": raw[name] * scale[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        totals = self.tracer.totals()
        workers = self.tracer.threads_by_parent("bench.cli_estimate", "cli.run_estimator")
        cli_wall = totals.get("bench.cli_estimate", {}).get("total_s", 0.0)
        out = {}
        for metric, span, measure, unit in PER_LAYER:
            entry = totals.get(span, {})
            if measure == "self_ms":
                value = 1000.0 * entry.get("self_s", 0.0)
            elif measure == "busy_s":
                value = entry.get("total_s", 0.0)
            elif measure == "worker_busy_ratio":
                value = entry.get("total_s", 0.0) / (cli_wall * workers) if cli_wall and workers else 0.0
            elif measure == "useful_ratio":
                value = entry["useful"] / entry["samples"] if entry.get("samples") else 0.0
            else:
                value = entry.get(measure, 0)
                value = int(value) if float(value).is_integer() else value
            out[metric] = {"value": value, "unit": unit}
        return out

    def details(self) -> dict:
        """Figures kept beside the printed metrics."""
        detail = {
            "cycles": self.cycles,
            "calibration_factors": {kind: self.calibration.factor(kind) for kind in self.calibration.samples},
            "kernel_runs": {kind: len(runs) for kind, runs in self.calibration.samples.items()},
            "latency_samples": {e: len(v) for e, v in self.latency.items()},
            "cli_queries": self.cli_queries,
            "eval_records": self.eval_records,
            "raw": self.raw_figures(),
        }
        if self.tracer is not None:
            detail["spans"] = len(self.tracer.spans)
            detail["end_to_end"] = {name: m["value"] for name, m in self.end_to_end().items()}
            detail["absent"] = self.tracer.absent
        return detail


def run(workload_name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload; returns the result object (also written under _results/)."""
    mfpose = import_package()
    workload = workload or WORKLOADS[workload_name]
    env = environment()
    print("perfbench env " + json.dumps(env, sort_keys=True), file=sys.stderr)
    work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    tracer = Tracer() if trace else None
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Run(mfpose, workload, seed, work, tracer)
        if tracer is not None:
            tracer.install()
        try:
            bench.setup()
            bench.measure(seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        correct = True
        try:
            bench.check()
        except CheckFailed as exc:
            correct = False
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
        metrics = bench.per_layer() if trace else bench.end_to_end()
        result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{workload.name}-s{seed}-trace{int(trace)}"
        stem.with_suffix(".json").write_text(
            json.dumps({"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
                        "environment": env, "result": result, "details": bench.details()}, indent=1) + "\n"
        )
        if tracer is not None:
            if tracer.absent:
                print("perfbench: absent (not traced): " + ", ".join(tracer.absent), file=sys.stderr)
            tracer.write(stem.with_name(stem.name + "-spans.jsonl"))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
