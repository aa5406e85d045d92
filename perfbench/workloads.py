"""The benchmark's workloads, driven through the library's public API.

A run is one closed loop with one caller: the next operation starts only
when the previous one has returned, as in ``trajdiffuse predict``. Its
stages:

1. set-up: read the dataset (PGM decode, distance transform and gradient
   field per map), then load the checkpoint or initialise parameters; it is
   repeated SETUP_REPEATS times in all, untraced runs spreading the repeats
   over the main loop;
2. the main loop, which fills ``--seconds``: one agent's ``predict`` per
   operation on predict-* workloads, one TRAIN_EPOCHS-epoch ``fit`` from the
   set-up parameters on train-default;
3. untraced runs only, secondary operations interleaved with the main loop,
   so that every workload reports every end-to-end metric and those timings
   see the same machine conditions as the main ones: FINE_TUNE_REPEATS
   gentle resumes of the checkpoint on predict-* workloads, PROBE_AGENTS
   unguided predictions with the frozen toy checkpoint on train-default;
4. evaluation with every metric ``trajdiffuse eval`` reports, timed per
   agent right after its prediction (ACFL per scene, after its last agent);
   the quality metrics are the scores of the first full pass;
5. the output checks, including one scene (or one short training run)
   through ``python -m trajdiffuse``, whose output must match byte for byte.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trajdiffuse.metrics as tdm
from trajdiffuse import TrajDiffuse, synth
from trajdiffuse.denoiser import ArchDescriptor, init_params, save_checkpoint
from trajdiffuse.schedule import build_cosine_schedule


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

K = 20  # samples per agent, as `trajdiffuse predict --k`
MVE_BINS = 36
ACFL_THRESHOLD_M = 0.5
SETUP_REPEATS = 11
MIN_PREDICT_OPS = 22  # the tail, with TAIL_BEYOND samples above it, lies above the median
MIN_TRACED_OPS = 5
TRAIN_EPOCHS = 2
MIN_TRAIN_OPS = 5
TRAIN_WIDTHS = (32, 64, 128)
# The initial parameters are a frozen input like the checkpoints: the
# workload seed sets only the training and sampling seeds.
INIT_SEED = 0
LOSS_SEED = 0
FINE_TUNE_EPOCHS = 2
# A trained checkpoint is fine-tuned gently; at the default 1e-3 the first Adam
# steps scatter the scored loss over a factor of two across seeds.
FINE_TUNE_LR = 1e-5
FINE_TUNE_REPEATS = 8
PROBE_AGENTS = MIN_PREDICT_OPS
PROBES_PER_TRAIN_OP = 2
PROBE_CHECKPOINT = "toy-16-32-64.ckpt"
EVAL_REPEATS = 3
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    dataset: str
    checkpoint: str | None  # None: initialise TRAIN_WIDTHS parameters instead
    guidance: bool
    main: str  # "predict" or "train"


WORKLOADS = {
    "predict-guided-maze": Workload("maze-64", "toy-16-32-64.ckpt", True, "predict"),
    "predict-unguided-open": Workload("open-128", "wide-32-64-128.ckpt", False, "predict"),
    "train-default": Workload("train-32", None, False, "train"),
}

def agent_seed(base: int, scene_idx: int, agent_id: int) -> int:
    """Per-agent sampling seed; the same formula `trajdiffuse predict` uses."""
    return base * 1_000_003 + scene_idx * 1009 + agent_id


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, n): the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


@dataclass
class Outcome:
    """Everything a run measured, plus its failures."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    units_per_op: int = 1  # epochs per training op, 1 for an agent
    predict_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)  # (seconds, trajectories trained)
    train_loss: float | None = None
    eval_s: list = field(default_factory=list)  # (seconds, agents scored)
    quality: dict = field(default_factory=dict)
    peak_rss_kb: int = 0

    def fail(self, what: str, exc: BaseException | str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {exc}")


# ------------------------------------------------------------------ checks

def check_prediction(result, scene, agent) -> str | None:
    """Why a predict output is wrong, or None when it passes every check."""
    samples = result.trajectories.samples
    t_total = scene.t_obs + scene.t_pred
    if samples.shape != (K, t_total, 2):
        return f"shape {samples.shape}, expected {(K, t_total, 2)}"
    if not np.isfinite(samples).all():
        return "non-finite samples"
    if not np.array_equal(samples[:, :scene.t_obs], np.broadcast_to(
            agent.trajectory[:scene.t_obs], (K, scene.t_obs, 2))):
        return "observed frames not reproduced bit-exactly"
    for j, spec in enumerate(agent.intents[:K]):
        if not np.array_equal(samples[j, spec.frames], spec.values):
            return f"anchors of sample {j} not reproduced bit-exactly"
    flags = result.per_sample_ecfl
    if flags is None or flags.shape != (K,):
        return "missing per-sample ECFL flags"
    return None


def prediction_record(scene, agent, result) -> dict:
    """The JSONL record `trajdiffuse predict` writes for one agent."""
    return {
        "scene_id": scene.scene_id,
        "agent_id": agent.agent_id,
        "t_obs": scene.t_obs,
        "trajectories": result.trajectories.samples.tolist(),
        "ecfl": [bool(v) for v in result.per_sample_ecfl],
    }


def _run_cli(args: list, timeout: float = 150.0) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "trajdiffuse", *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"trajdiffuse {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")


def cli_predict_matches(work: Path, wl: Workload, seed: int, scene, records: list) -> bool:
    """Predict the dataset's first scene through the CLI; compare its JSONL bytes."""
    data = work / "data"
    data.mkdir()
    src = INPUTS / wl.dataset
    shutil.copy(src / "dataset.json", data / "dataset.json")
    shutil.copytree(src / scene.scene_id, data / scene.scene_id)
    out = work / "preds.jsonl"
    _run_cli(["predict", "--checkpoint", INPUTS / wl.checkpoint, "--data", data, "--out", out,
              "--k", K, "--guidance", "on" if wl.guidance else "off", "--seed", seed])
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return out.read_bytes() == expected.encode()


def cli_train_matches(work: Path, wl: Workload, seed: int, init, log: list) -> bool:
    """Train TRAIN_EPOCHS epochs from `init` through the CLI; compare its loss.csv bytes."""
    start = work / "init.ckpt"
    desc = init.arch
    save_checkpoint(init, build_cosine_schedule(desc.n_steps), start)
    out = work / "run"
    _run_cli(["train", "--data", INPUTS / wl.dataset, "--out", out, "--epochs", TRAIN_EPOCHS,
              "--seed", seed, "--widths", ",".join(map(str, desc.widths)), "--resume", start])
    expected = "epoch,mean_loss\n" + "".join(
        f"{e['epoch']},{e['mean_loss']!r}\n" for e in log)
    return (out / "loss.csv").read_text() == expected


def round_robin(*groups: list) -> list:
    """Merge lists by taking one item from each in turn."""
    merged = []
    for i in range(max(map(len, groups), default=0)):
        merged += [g[i] for g in groups if i < len(g)]
    return merged


# --------------------------------------------------------------- evaluation

def score_agent(scene, agent, result) -> tuple:
    """The per-agent metrics `trajdiffuse eval` reports: ADE, FDE, KDE-NLL, ECFL, MVE."""
    batch = result.trajectories
    ade, fde = tdm.ade_fde(batch, agent.trajectory)
    return (ade, fde, tdm.kde_nll(batch, agent.trajectory), tdm.ecfl(batch, scene.env),
            tdm.mve(batch, n_bins=MVE_BINS))


def score_acfl(results: list) -> float | None:
    """ACFL of one scene's predictions, as `trajdiffuse eval` reports it per scene."""
    if len(results) < 2:
        return None
    return tdm.acfl([r.trajectories for _, _, r in results], threshold=ACFL_THRESHOLD_M)


def quality(results: list) -> dict:
    rows = [score_agent(*r) for r in results]
    per_scene: dict = {}
    for r in results:
        per_scene.setdefault(r[0].scene_id, []).append(r)
    acfl = [v for v in map(score_acfl, per_scene.values()) if v is not None]
    cols = np.array(rows)
    return {
        "ade_m": float(cols[:, 0].mean()), "fde_m": float(cols[:, 1].mean()),
        "kde_nll": float(cols[:, 2].mean()), "ecfl": float(cols[:, 3].mean()),
        "mve_bits": float(cols[:, 4].mean()),
        "acfl": float(np.mean(acfl)) if acfl else None,
    }


# ------------------------------------------------------------------- stages

class AgentStream:
    """A dataset's agents in order, cycling: predicts, checks and times one per
    step, and scores each scene as soon as its agents are done."""

    def __init__(self, run: "Run", scenes, model, guidance: bool):
        self.run, self.model, self.guidance = run, model, guidance
        self.tasks = [(si, sc, ag) for si, sc in enumerate(scenes) for ag in sc.agents]
        self.j = 0
        self.first_pass: list = []
        self.scene_results: list = []

    def step(self) -> None:
        si, scene, agent = self.tasks[self.j % len(self.tasks)]
        out = self.run.out
        if self.scene_results and scene is not self.scene_results[0][0]:
            self.finish()
        call = lambda: self.model.predict(  # noqa: E731
            agent.trajectory[:scene.t_obs], agent.intents[:K], env=scene.env,
            seed=agent_seed(self.run.seed, si, agent.agent_id), guidance=self.guidance)
        first = self.j < len(self.tasks)
        self.j += 1
        out.attempted += 1
        try:
            result, wall, untraced = self.run._timed("op", call)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.fail(f"predict {scene.scene_id}/{agent.agent_id}", exc)
            return
        problem = check_prediction(result, scene, agent)
        if problem is not None:
            out.fail(f"predict {scene.scene_id}/{agent.agent_id}", problem)
            return
        out.predict_s.append(wall if untraced is None else untraced)
        if untraced is not None:
            out.traced_op_s.append((wall, untraced))
        self.scene_results.append((scene, agent, result))
        if first:
            self.first_pass.append((scene, agent, result))
        self.run.time_scoring(lambda: score_agent(scene, agent, result), 1)

    def finish(self) -> None:
        """Score ACFL over the scene in progress."""
        if self.scene_results:
            results = self.scene_results
            self.run.time_scoring(lambda: score_acfl(results), 0)
            self.scene_results = []


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, tracer=None):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.out = Outcome()
        self._tuned = None  # last fine-tuned model, predict workloads only
        self._tuned_losses: set = set()

    # A traced run alternates each operation untraced then traced, so the
    # difference of the two wall times is the tracing overhead.
    def _timed(self, phase: str, fn, traced_only: bool = False):
        if self.tracer is None:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0, None
        untraced = None
        if not traced_only:
            self.tracer.activate(False)
            t0 = time.perf_counter()
            fn()
            untraced = time.perf_counter() - t0
            self.tracer.activate(True)
        t0 = time.perf_counter()
        self.tracer.begin(phase)
        try:
            result = fn()
        finally:
            self.tracer.end()
        return result, time.perf_counter() - t0, untraced

    def setup(self):
        """Read the dataset and load (or initialise) the model, timed."""
        def once():
            scenes = synth.read_dataset(INPUTS / self.wl.dataset)
            if self.wl.checkpoint is not None:
                return scenes, TrajDiffuse.load(INPUTS / self.wl.checkpoint)
            desc = ArchDescriptor(widths=TRAIN_WIDTHS, t_obs=scenes[0].t_obs,
                                  t_pred=scenes[0].t_pred)
            return scenes, init_params(desc, seed=INIT_SEED)
        state, wall, _ = self._timed("setup", once, traced_only=True)
        self.out.setup_s.append(wall)
        return state

    def predict_loop(self, scenes, model, deadline: float) -> list:
        """Closed loop over the dataset's agents until the deadline, once the
        minimum is done. Untraced runs always finish the first pass, so every
        run scores the same agents, and stop only at a scene boundary, so
        every scene's ACFL is scored whole; a pass longer than the deadline
        does not double the run. They interleave the fine-tunes and the
        repeated set-ups evenly over the first pass. Returns the first pass
        for the quality metrics."""
        stream = AgentStream(self, scenes, model, self.wl.guidance)
        tasks = stream.tasks
        n_tasks = len(tasks)
        side = []
        if self.tracer is None:
            side = round_robin([lambda: self.fine_tune_once(scenes, model)] * FINE_TUNE_REPEATS,
                               [self.setup] * (SETUP_REPEATS - 1))
        stride = max(1, n_tasks // max(1, len(side)))
        min_ops = max(MIN_PREDICT_OPS, n_tasks) if self.tracer is None else MIN_TRACED_OPS

        def scene_boundary() -> bool:
            j = stream.j
            return tasks[j % n_tasks][1] is not tasks[(j - 1) % n_tasks][1]

        while not (stream.j >= min_ops and time.perf_counter() >= deadline
                   and (self.tracer is not None or scene_boundary())):
            stream.step()
            if side and stream.j % stride == 0:
                side.pop(0)()
        for op in side:
            op()
        stream.finish()
        return stream.first_pass

    def train_loop(self, scenes, params, deadline: float):
        """Repeated TRAIN_EPOCHS-epoch fits from the same parameters until the
        deadline; untraced runs predict PROBES_PER_TRAIN_OP probe agents after
        each fit. Returns the last fitted model and the probe's predictions."""
        n_traj = sum(len(s.agents) for s in scenes)
        steps = TRAIN_EPOCHS * -(-n_traj // TrajDiffuse().batch_size)
        self.out.units_per_op = TRAIN_EPOCHS
        probe = None
        if self.tracer is None:
            probe = AgentStream(self, scenes, TrajDiffuse.load(INPUTS / PROBE_CHECKPOINT), False)
        model, losses = None, set()
        setups = SETUP_REPEATS - 1 if self.tracer is None else 0
        n_ops = 0
        while n_ops < MIN_TRAIN_OPS or time.perf_counter() < deadline:
            n_ops += 1
            candidate = TrajDiffuse(widths=TRAIN_WIDTHS, n_epochs=TRAIN_EPOCHS, seed=self.seed)
            self.out.attempted += steps
            try:
                _, wall, untraced = self._timed("op", lambda: candidate.fit(scenes, init=params))
            except Exception as exc:
                self.out.fail("train", exc, n=steps)
                continue
            self._check_training(candidate, "train")
            self.out.train_s.append((untraced or wall, n_traj * TRAIN_EPOCHS))
            if untraced is not None:
                self.out.traced_op_s.append((wall, untraced))
            losses.add(candidate.training_log_[-1]["mean_loss"])
            model = candidate
            for _ in range(PROBES_PER_TRAIN_OP):
                if probe is not None and probe.j < PROBE_AGENTS:
                    probe.step()
            if setups:
                self.setup()
                setups -= 1
        self.out.checks["train_deterministic"] = len(losses) == 1
        for _ in range(setups):
            self.setup()
        if probe is None:
            return model, []
        while probe.j < PROBE_AGENTS:
            probe.step()
        probe.finish()
        return model, probe.first_pass

    def _check_training(self, model, what: str) -> None:
        skipped = sum(e["skipped_steps"] for e in model.training_log_)
        if skipped:
            self.out.fail(what, f"{skipped} steps skipped for non-finite gradients", n=skipped)

    def score_training(self, scenes, model) -> None:
        """train_loss: the training objective of the trained parameters over one
        epoch of batches, steps and noise drawn from LOSS_SEED (lr 0 leaves the
        parameters untouched). A fixed draw keeps the value comparable across
        workload seeds, where the last epoch's own loss varies by a third."""
        scorer = TrajDiffuse(**model.get_params()).set_params(n_epochs=1, lr=0.0, seed=LOSS_SEED)
        scorer.fit(scenes, init=model.model_params_)
        self.out.train_loss = scorer.training_log_[0]["mean_loss"]

    def fine_tune_once(self, scenes, model) -> None:
        """Train-side metrics of a predict workload: resume the checkpoint gently."""
        n_traj = sum(len(s.agents) for s in scenes)
        steps = FINE_TUNE_EPOCHS * -(-n_traj // model.batch_size)
        tuned = TrajDiffuse(**model.get_params()).set_params(
            n_epochs=FINE_TUNE_EPOCHS, lr=FINE_TUNE_LR, seed=self.seed)
        self.out.attempted += steps
        t0 = time.perf_counter()
        try:
            tuned.fit(scenes, init=model.model_params_)
        except Exception as exc:
            self.out.fail("fine-tune", exc, n=steps)
            return
        self.out.train_s.append((time.perf_counter() - t0, n_traj * FINE_TUNE_EPOCHS))
        self._check_training(tuned, "fine-tune")
        self._tuned_losses.add(tuned.training_log_[-1]["mean_loss"])
        self._tuned = tuned

    def time_scoring(self, fn, n_agents: int) -> None:
        """Time one scoring step EVAL_REPEATS times.

        Each agent is scored right after its prediction, and each scene's
        ACFL right after its last agent, so the evaluation timings spread
        over the whole run like the predict timings instead of sitting in
        one window that the machine's slow or fast spells can cover whole.
        """
        for _ in range(EVAL_REPEATS):
            _, wall, _ = self._timed("eval", fn, traced_only=True)
            self.out.eval_s.append((wall, n_agents))

    def execute(self) -> Outcome:
        wl, out = self.wl, self.out
        scenes, loaded = self.setup()
        if self.tracer is not None:  # untraced runs repeat set-up inside the main loop
            for _ in range(SETUP_REPEATS - 1):
                self.setup()
        deadline = time.perf_counter() + self.seconds
        if wl.main == "predict":
            first_pass = self.predict_loop(scenes, loaded, deadline)
            if self._tuned is not None:
                out.checks["train_deterministic"] = len(self._tuned_losses) == 1
                self.score_training(scenes, self._tuned)
            scene = scenes[0]
            records = [prediction_record(s, a, r) for s, a, r in first_pass if s is scene]
            check = "cli_predict_bytes_equal"
            cli = lambda work: (len(records) == len(scene.agents)  # noqa: E731
                                and cli_predict_matches(work, wl, self.seed, scene, records))
        else:
            model, first_pass = self.train_loop(scenes, loaded, deadline)
            if self.tracer is None and model is not None:
                self.score_training(scenes, model)
            check = "cli_train_bytes_equal"
            cli = lambda work: (model is not None  # noqa: E731
                                and cli_train_matches(work, wl, self.seed, loaded,
                                                      model.training_log_))
        if self.tracer is None:
            out.quality = quality(first_pass)
        out.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        (HERE / ".work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            try:
                out.checks[check] = cli(Path(tmp))
            except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                out.checks[check] = False
                out.errors.append(f"{check}: {exc}")
        return out
