"""perfbench traces library functions by name; every name it lists must exist.

A target the tracer cannot find turns its per-layer metrics null. This
catches a rename in the package here, in well under a second, instead of in
a full benchmark smoke run. Likewise, `make_inputs.py` must still build,
train and save through the names it imports.
"""

import importlib.util
import inspect
from pathlib import Path

from trajdiffuse.denoiser import load_checkpoint
from tests.test_pipeline import tiny_scenes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
MAKE_INPUTS = PERFBENCH / "make_inputs.py"


def load_by_path(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_the_package():
    tracer = load_by_path(TRACER)
    assert tracer.TARGETS
    missing = [f"{module}:{path}" for module, path, *_ in tracer.TARGETS
               if tracer._resolve(module, path) is None]
    assert not missing, f"trace targets not found: {missing}"


def test_make_inputs_builds_trains_and_saves_through_its_own_imports(tmp_path):
    module = load_by_path(MAKE_INPUTS)
    for kw in module.DATASETS.values():
        inspect.signature(module.generate_dataset).bind(**kw, **module.COMMON)
    cfg = module.TrainConfig(n_epochs=1, widths=(16, 32, 64), seed=0)
    schedule = module.build_cosine_schedule(cfg.n_steps, cfg.cosine_offset)
    params, log = module.train(tiny_scenes(), cfg)
    assert len(log) == 1
    module.save_checkpoint(params, schedule, tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt").arch == params.arch
