"""perfbench traces library functions by name; every name it lists must exist.

A target the tracer cannot find turns its per-layer metrics null. This
catches a rename in the package here, in well under a second, instead of in
a full benchmark smoke run. Likewise, `make_inputs.py` must still build,
train and save through the names it imports, the benchmark's datasets must
read and write back byte for byte, and its correctness check must pass a
prediction made through the package.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from trajdiffuse import TrajDiffuse
from trajdiffuse.denoiser import load_checkpoint
from trajdiffuse.synth import read_dataset, write_dataset
from tests.test_pipeline import tiny_scenes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUTS = PERFBENCH / "inputs"
TRACER = PERFBENCH / "tracer.py"
MAKE_INPUTS = PERFBENCH / "make_inputs.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_by_path(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
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


@pytest.mark.parametrize("name", ["maze-64", "open-128", "train-32"])
def test_benchmark_datasets_read_and_write_back_byte_for_byte(tmp_path, name):
    source = INPUTS / name
    write_dataset(read_dataset(source), tmp_path)
    files = sorted(p.relative_to(source) for p in source.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    differ = [str(rel) for rel in files
              if (tmp_path / rel).read_bytes() != (source / rel).read_bytes()]
    assert not differ, f"files that differ: {differ}"


def test_benchmark_check_passes_a_guided_maze_prediction():
    workloads = load_by_path(WORKLOADS)
    scene = read_dataset(INPUTS / "maze-64")[0]
    agent = scene.agents[0]
    model = TrajDiffuse.load(INPUTS / "toy-16-32-64.ckpt")
    result = model.predict(agent.trajectory[:scene.t_obs], agent.intents[:workloads.K],
                           env=scene.env, seed=0, guidance=True)
    assert workloads.check_prediction(result, scene, agent) is None
    goal = agent.intents[1].frames[-1]
    result.trajectories.samples[1, goal] += 1e-9
    assert workloads.check_prediction(result, scene, agent) == (
        "anchors of sample 1 not reproduced bit-exactly")
