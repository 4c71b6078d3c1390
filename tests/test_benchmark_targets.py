"""The benchmark's tracer still finds every function it times.

`perfbench/tracing.py` replaces functions by module and attribute name; a
name that no longer resolves is only reported on stderr, and its per-layer
metrics drop out of the benchmark's output.  So a rename or a deleted
function has to fail here.
"""

import importlib.util
from pathlib import Path

from mfpose import pipelines, robust

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
