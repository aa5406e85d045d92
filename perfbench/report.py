"""Turn a run's measurements into the metrics BENCHMARK.json names."""

from __future__ import annotations

import statistics
import sys

from tracer import TARGETS
from workloads import tail

# name -> unit, for untraced runs
END_TO_END = {
    "setup_s": "s",
    "predict_agent_p50_s": "s",
    "predict_agent_tail_s": "s",
    "eval_agents_per_s": "agents/s",
    "train_samples_per_s": "traj/s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "ecfl": "share",
    "ade_m": "m",
    "fde_m": "m",
    "kde_nll": "nats",
    "train_loss": "mse",
}

_OPS = ("conv1d", "groupnorm", "mish", "attention", "linear")

# name -> (unit, phase, kind, source); kind "span" sums span durations,
# "self" sums self times, "count" reads a counter. Values are divided by
# the phase's unit of work: one set-up, one main-loop operation (an agent,
# or an epoch on train-default), or one scored agent.
PER_LAYER = {
    "synth.read_dataset_s": ("s/setup", "setup", "span", "synth.read_dataset"),
    "mapguide.env_build_s": ("s/setup", "setup", "span", "mapguide.env_build"),
    "mapguide.edt_s": ("s/setup", "setup", "span", "mapguide.edt"),
    "mapguide.map_px": ("px/setup", "setup", "count", "mapguide.map_px"),
    "denoiser.checkpoint_load_s": ("s/setup", "setup", "span", "denoiser.checkpoint_load"),
    "pipeline.predict_s": ("s/op", "op", "span", "pipeline.predict"),
    "pipeline.predict_self_s": ("s/op", "op", "self", "pipeline.predict"),
    "pipeline.train_s": ("s/op", "op", "span", "pipeline.train"),
    "pipeline.train_self_s": ("s/op", "op", "self", "pipeline.train"),
    "mapguide.guidance_s": ("s/op", "op", "span", "mapguide.guidance"),
    "mapguide.guidance_calls": ("calls/op", "op", "count", "mapguide.guidance_calls"),
    "mapguide.frames_checked": ("frames/op", "op", "count", "mapguide.frames_checked"),
    "mapguide.frames_corrected": ("frames/op", "op", "count", "mapguide.frames_corrected"),
    "mapguide.corrected_share": ("share", "op", "ratio",
                                 ("mapguide.frames_corrected", "mapguide.frames_checked")),
    "mapguide.nav_checks": ("calls/op", "op", "count", "mapguide.nav_checks"),
    "mapguide.descent_steps": ("calls/op", "op", "count", "mapguide.descent_steps"),
    "mapguide.ecfl_check_s": ("s/op", "op", "span", "mapguide.ecfl_check"),
    "denoiser.forward_s": ("s/op", "op", "span", "denoiser.forward"),
    "denoiser.forward_calls": ("calls/op", "op", "count", "denoiser.forward_calls"),
    "denoiser.forward_rows": ("rows/op", "op", "count", "denoiser.forward_rows"),
    "denoiser.backward_s": ("s/op", "op", "span", "denoiser.backward"),
    "denoiser.adam_s": ("s/op", "op", "span", "denoiser.adam"),
    **{f"denoiser.{op}_{d}_s": ("s/op", "op", "span", f"denoiser.{op}_{d}")
       for op in _OPS for d in ("fwd", "bwd")},
    **{f"denoiser.{op}_{d}_calls": ("calls/op", "op", "count", f"denoiser.{op}_{d}_calls")
       for op in _OPS for d in ("fwd", "bwd")},
    "denoiser.conv1d_gflop": ("GFLOP/op", "op", "count", "denoiser.conv1d_gflop"),
    "denoiser.attention_gflop": ("GFLOP/op", "op", "count", "denoiser.attention_gflop"),
    "denoiser.conv1d_mb": ("MB/op", "op", "count", "denoiser.conv1d_mb"),
    "diffusion.clamp_s": ("s/op", "op", "span", "diffusion.clamp"),
    "diffusion.loss_grad_s": ("s/op", "op", "span", "diffusion.loss_grad"),
    "metrics.ade_fde_s": ("s/agent", "eval", "span", "metrics.ade_fde"),
    "metrics.kde_nll_s": ("s/agent", "eval", "span", "metrics.kde_nll"),
    "metrics.ecfl_s": ("s/agent", "eval", "span", "metrics.ecfl"),
    "metrics.mve_s": ("s/agent", "eval", "span", "metrics.mve"),
    "metrics.acfl_s": ("s/agent", "eval", "span", "metrics.acfl"),
    "trace_overhead": ("s/op", "op", "overhead", None),
}

# Which trace target feeds each span or counter name; shape-derived counts
# belong to the function whose arguments they read.
_FED_BY = {name: f"{module}:{path}" for module, path, span, counter, _ in TARGETS
           for name in (span, counter) if name}
_FED_BY.update({
    "mapguide.map_px": "trajdiffuse.mapguide:distance_transform",
    "denoiser.forward_rows": "trajdiffuse.pipeline:forward_with_cache",
    "mapguide.frames_checked": "trajdiffuse.pipeline:guidance_delta",
    "mapguide.frames_corrected": "trajdiffuse.pipeline:guidance_delta",
    "denoiser.conv1d_gflop": "trajdiffuse.denoiser.net:conv1d_forward",
    "denoiser.conv1d_mb": "trajdiffuse.denoiser.net:conv1d_forward",
    "denoiser.attention_gflop": "trajdiffuse.denoiser.net:attention_forward",
})

# Per-layer metrics that legitimately read zero on a workload; any other
# zero reads null with a warning, because it means a trace target moved.
_TRAIN_ONLY = {
    "denoiser.backward_s", "denoiser.adam_s", "diffusion.loss_grad_s",
    "pipeline.train_s", "pipeline.train_self_s",
} | {f"denoiser.{op}_bwd{s}" for op in _OPS for s in ("_s", "_calls")}
_GUIDANCE = {
    "mapguide.guidance_s", "mapguide.guidance_calls", "mapguide.frames_checked",
    "mapguide.frames_corrected", "mapguide.corrected_share", "mapguide.nav_checks",
    "mapguide.descent_steps",
}
_PREDICT_ONLY = _GUIDANCE | {
    "denoiser.checkpoint_load_s", "pipeline.predict_s", "pipeline.predict_self_s",
    "mapguide.ecfl_check_s", "diffusion.clamp_s",
    "metrics.ade_fde_s", "metrics.kde_nll_s", "metrics.ecfl_s", "metrics.mve_s",
    "metrics.acfl_s",
}
IDLE = {
    "predict-guided-maze": _TRAIN_ONLY,
    "predict-unguided-open": _TRAIN_ONLY | _GUIDANCE,
    "train-default": _PREDICT_ONLY,
}


def end_to_end(out) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run."""
    tail_s, pct, n = tail(out.predict_s)
    q = out.quality
    values = {
        "setup_s": statistics.median(out.setup_s),
        "predict_agent_p50_s": statistics.median(out.predict_s),
        "predict_agent_tail_s": tail_s,
        "eval_agents_per_s": sum(n for _, n in out.eval_s) / sum(t for t, _ in out.eval_s),
        "train_samples_per_s": sum(n for _, n in out.train_s) / sum(t for t, _ in out.train_s),
        "peak_rss_mb": out.peak_rss_kb / 1024.0,
        "success_rate": 1.0 - out.failed / out.attempted,
        "ecfl": q["ecfl"],
        "ade_m": q["ade_m"],
        "fde_m": q["fde_m"],
        "kde_nll": q["kde_nll"],
        "train_loss": out.train_loss,
    }
    details = {
        "predict_agent_tail": {"percentile": pct, "n_agents": n},
        "error_rate": out.failed / out.attempted,
        "setup_samples": len(out.setup_s),
        "train_samples": len(out.train_s),
        "eval_samples": len(out.eval_s),
        "mve_bits": q["mve_bits"],
        "acfl": q["acfl"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, details


def per_layer(workload: str, out, tracer) -> tuple[dict, dict]:
    """(metrics, details) of a traced run; nulls where a target is gone or went quiet."""
    phases = {ph for _, ph in tracer.ops}
    totals = {ph: tracer.totals(ph) for ph in phases}
    n_ops = sum(1 for _, ph in tracer.ops if ph == "op")
    divisor = {
        "setup": sum(1 for _, ph in tracer.ops if ph == "setup"),
        "op": n_ops * out.units_per_op,
        "eval": sum(n for _, n in out.eval_s),
    }
    overhead = statistics.median(t - u for t, u in out.traced_op_s) / out.units_per_op
    warnings = []
    metrics = {}
    for name, (unit, phase, kind, source) in PER_LAYER.items():
        span_total, span_self = totals.get(phase, ({}, {}))
        counts = tracer.counts.get(phase, {})
        sources = source if isinstance(source, tuple) else (source,)
        gone = [_FED_BY[s] for s in sources if s and _FED_BY[s] in tracer.missing]
        if kind == "overhead":
            value = overhead
        elif gone:
            value = None
            warnings.append(f"{name}: null, {', '.join(gone)} not found")
        elif kind == "ratio":
            num, den = (counts.get(s, 0.0) for s in source)
            value = num / den if den else 0.0
        else:
            table = {"span": span_total, "self": span_self, "count": counts}[kind]
            value = table.get(source, 0.0) / divisor[phase] if divisor[phase] else 0.0
        if value == 0.0 and name not in IDLE[workload]:
            warnings.append(f"{name}: read zero where work was expected; reported null")
            value = None
        metrics[name] = {"value": value, "unit": unit}
    for w in warnings:
        print(f"perfbench: warning: {w}", file=sys.stderr)

    def share(part, whole):
        p, w = metrics[part]["value"], metrics[whole]["value"]
        return p / w if p is not None and w else None

    _, op_self = totals.get("op", ({}, {}))
    details = {
        "shares_of_predict": {k: share(f"{k}_s", "pipeline.predict_s") for k in (
            "denoiser.forward", "mapguide.guidance", "mapguide.ecfl_check", "diffusion.clamp",
            "pipeline.predict_self")},
        "shares_of_train": {k: share(f"{k}_s", "pipeline.train_s") for k in (
            "denoiser.forward", "denoiser.backward", "denoiser.adam", "diffusion.loss_grad",
            "pipeline.train_self")},
        "traced_ops": n_ops,
        "units_per_op": out.units_per_op,
        "traced_wall_s": sum(t for t, _ in out.traced_op_s),
        "untraced_wall_s": sum(u for _, u in out.traced_op_s),
        "self_time_sum_s": sum(op_self.values()),
        "warnings": warnings,
    }
    return metrics, details
