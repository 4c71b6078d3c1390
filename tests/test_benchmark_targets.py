"""The benchmark's tracer still finds every function it times.

`perfbench/tracing.py` replaces functions by module and attribute name; a
name that no longer resolves is only reported on stderr, and its per-layer
metrics drop out of the benchmark's output.  So a rename or a deleted
function has to fail here.
"""

import importlib.util
from pathlib import Path

from mfpose import pipelines, robust
from mfpose.dataset import SyntheticSceneConfig, synth_scene
from mfpose.pipelines import EstimateStatus

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        absent = list(tracer.absent)
        assert pipelines.ransac is not robust.ransac
    finally:
        tracer.uninstall()
    assert pipelines.ransac is robust.ransac
    # the CLI scores through evaluation.score_queries and no longer imports score_query
    assert absent == ["mfpose.cli.score_query"]


def test_a_traced_essmat_query_records_its_window_scores_and_refinements():
    # the benchmark's robust.sampson_error and solvers.refine_essential counters come from these spans:
    # a window score or a refit that no longer goes through the traced names would zero them silently
    scene = synth_scene(SyntheticSceneConfig(num_points=120, num_queries=1, pixel_noise_px=1.0, outlier_fraction=0.3))
    query = scene.queries[0]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        estimate = pipelines.run_estimator(
            "essmat-dscale", query.correspondences, scene.depth_ref, query.depth_query, scene.intrinsics,
            scene.intrinsics,
        )
    finally:
        tracer.uninstall()
    assert estimate.status is EstimateStatus.OK
    spans = {span[0]: span for span in tracer.spans}  # (id, parent, thread, name, start, end, child seconds, counts)
    ransac = [span for span in spans.values() if span[3] == "robust.ransac"]
    scores = [span for span in spans.values() if span[3] == "robust.sampson_error"]
    refinements = [span for span in spans.values() if span[3] == "solvers.refine_essential"]
    assert len(ransac) == 1 and ransac[0][7]["iterations"] > 0
    assert scores and refinements
    assert all(span[1] == ransac[0][0] for span in scores + refinements)  # each called by the robust loop
    rows = len(query.correspondences)
    assert all(0 < span[7]["rows"] <= rows for span in scores)
