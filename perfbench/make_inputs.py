"""Regenerate the benchmark's frozen inputs with the library's own synth and train.

    PYTHONPATH=src python3 perfbench/make_inputs.py

Writes three datasets and two checkpoints under perfbench/inputs/ and a
MANIFEST.json with the SHA-256 of every input file. run.py refuses to time
anything when a digest differs, so two commits are always measured on
byte-identical inputs. Regenerating changes the baseline: commit the new
inputs together with the benchmark change that needs them, never with a
change that claims a gain.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

from trajdiffuse.denoiser import save_checkpoint  # noqa: E402
from trajdiffuse.pipeline import TrainConfig, train  # noqa: E402
from trajdiffuse.schedule import build_cosine_schedule  # noqa: E402
from trajdiffuse.synth import IntentOracleConfig, generate_dataset, write_dataset  # noqa: E402

K_INTENTS = 20
COMMON = dict(
    resolution=0.5, t_obs=8, t_pred=12, frame_dt=0.4, speed_range=(0.6, 1.4),
    k_intents=K_INTENTS,
)

# name -> generate_dataset keyword arguments
DATASETS = {
    # 96 training trajectories on small maps: three batches of 32 per epoch.
    "train-32": dict(kinds=["corridor", "rooms", "maze"], n_scenes=32, n_agents=3,
                     size=(32, 32), intent_cfg=IntentOracleConfig(), seed=31),
    # Dense walls plus alternate goals: guidance has the most to correct.
    "maze-64": dict(kinds=["maze", "rooms"], n_scenes=12, n_agents=3, size=(64, 64),
                    intent_cfg=IntentOracleConfig(diversify=True), seed=64),
    # Large open corridors: distance transforms dominate set-up.
    "open-128": dict(kinds=["corridor"], n_scenes=8, n_agents=3, size=(128, 128),
                     intent_cfg=IntentOracleConfig(), seed=128),
}

# name -> (widths, epochs); both are trained on train-32 with train seed 0
CHECKPOINTS = {
    "toy-16-32-64": ((16, 32, 64), 200),
    "wide-32-64-128": ((32, 64, 128), 200),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "MANIFEST.json"
    }


def main() -> int:
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir(parents=True)
    scenes_by_name = {}
    for name, kw in DATASETS.items():
        scenes = generate_dataset(**kw, **COMMON)
        short = [a.agent_id for s in scenes for a in s.agents if len(a.intents) < K_INTENTS]
        if short:
            raise SystemExit(f"{name}: agents {short} have fewer than {K_INTENTS} intents")
        write_dataset(scenes, INPUTS / name)
        scenes_by_name[name] = scenes
        print(f"{name}: {len(scenes)} scenes, {sum(len(s.agents) for s in scenes)} agents")
    for name, (widths, epochs) in CHECKPOINTS.items():
        cfg = TrainConfig(n_epochs=epochs, widths=widths, seed=0)
        params, log = train(scenes_by_name["train-32"], cfg)
        save_checkpoint(params, build_cosine_schedule(cfg.n_steps, cfg.cosine_offset),
                        INPUTS / f"{name}.ckpt")
        print(f"{name}: loss {log[0]['mean_loss']:.4f} -> {log[-1]['mean_loss']:.4f}")
    digests = json.dumps(manifest(INPUTS), indent=1, sort_keys=True)
    (INPUTS / "MANIFEST.json").write_text(digests + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
