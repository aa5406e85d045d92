"""perfbench traces library functions by name; every name it lists must exist.

A target the tracer cannot find turns its per-layer metrics null. This
catches a rename in the package here, in well under a second, instead of in
a full benchmark smoke run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_the_package():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [f"{module}:{path}" for module, path, *_ in tracer.TARGETS
               if tracer._resolve(module, path) is None]
    assert not missing, f"trace targets not found: {missing}"
