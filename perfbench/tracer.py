"""Spans and counters around the library's public functions, for traced runs only.

The tracer rebinds each called name in the module that calls it (for example
``trajdiffuse.pipeline.forward_with_cache``) to a wrapper that records a span
(name, start, end, parent span, operation id) or bumps a counter, and calls
the original. ``activate(False)`` puts every original back. Untraced runs never
create a Tracer, so they run the library unmodified.

A target that no longer exists is skipped with a warning; every metric fed by
it reads null instead of zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"


# ------------------------------------------------------------ shape counters
# Each takes (counts, args, kwargs, result) and adds to counts; all sizes
# below are computed from tensor shapes, not measured.

def _rows(counts, args, kwargs, out):
    counts["denoiser.forward_rows"] += args[1].shape[0]


def _map_px(counts, args, kwargs, out):
    counts["mapguide.map_px"] += out.size


def _guidance(counts, args, kwargs, out):
    t_obs = args[2] if len(args) > 2 else kwargs["t_obs"]
    future = out[t_obs:]
    counts["mapguide.frames_checked"] += future.shape[0]
    counts["mapguide.frames_corrected"] += int((future != 0.0).any(axis=1).sum())


def _conv_fwd(counts, args, kwargs, out):
    x, w = args[0], args[1]
    y = out[0]
    n_out, n_in, k = w.shape
    bsz, _, l_out = y.shape
    counts["denoiser.conv1d_gflop"] += 2e-9 * bsz * l_out * n_out * n_in * k
    # im2col columns written and read, weights read, output written; float64
    cols = bsz * l_out * n_in * k
    counts["denoiser.conv1d_mb"] += 8e-6 * (x.size + 2 * cols + w.size + y.size)


def _conv_bwd(counts, args, kwargs, out):
    dy, w = args[0], args[1]
    n_out, n_in, k = w.shape
    bsz, _, l_out = dy.shape
    # weight gradient and input-column gradient: two GEMMs of the forward's size
    counts["denoiser.conv1d_gflop"] += 4e-9 * bsz * l_out * n_out * n_in * k
    cols = bsz * l_out * n_in * k
    counts["denoiser.conv1d_mb"] += 8e-6 * (dy.size + 3 * cols + 2 * w.size + out[0].size)


def _attn_flops(x_shape) -> float:
    bsz, c, width = x_shape
    # four W x W projections, C x C scores, C x C mixing of values
    return 2e-9 * bsz * (4 * c * width * width + 2 * c * c * width)


def _attn_fwd(counts, args, kwargs, out):
    counts["denoiser.attention_gflop"] += _attn_flops(args[0].shape)


def _attn_bwd(counts, args, kwargs, out):
    counts["denoiser.attention_gflop"] += 2 * _attn_flops(args[0].shape)


# (module, attribute path, span name or None, counter name or None, shape counter)
TARGETS = [
    ("trajdiffuse.synth", "read_dataset", "synth.read_dataset", None, None),
    ("trajdiffuse.synth", "load_environment", "mapguide.env_build", None, None),
    ("trajdiffuse.mapguide", "distance_transform", "mapguide.edt", None, _map_px),
    ("trajdiffuse.estimator", "load_checkpoint", "denoiser.checkpoint_load", None, None),
    ("trajdiffuse.estimator", "predict", "pipeline.predict", None, None),
    ("trajdiffuse.estimator", "train", "pipeline.train", None, None),
    ("trajdiffuse.pipeline", "clamp_frames_batch", "diffusion.clamp", None, None),
    ("trajdiffuse.pipeline", "forward_with_cache", "denoiser.forward", "denoiser.forward_calls",
     _rows),
    ("trajdiffuse.pipeline", "guidance_delta", "mapguide.guidance", "mapguide.guidance_calls",
     _guidance),
    ("trajdiffuse.pipeline", "ecfl_check", "mapguide.ecfl_check", None, None),
    ("trajdiffuse.pipeline", "loss_and_grad", "diffusion.loss_grad", None, None),
    ("trajdiffuse.pipeline", "backward_from_cache", "denoiser.backward", None, None),
    ("trajdiffuse.pipeline", "adam_update", "denoiser.adam", None, None),
    ("trajdiffuse.mapguide", "NavEnvironment.is_navigable_point", None, "mapguide.nav_checks",
     None),
    ("trajdiffuse.mapguide", "sample_gradient", None, "mapguide.descent_steps", None),
    ("trajdiffuse.denoiser.net", "conv1d_forward", "denoiser.conv1d_fwd",
     "denoiser.conv1d_fwd_calls", _conv_fwd),
    ("trajdiffuse.denoiser.net", "conv1d_backward", "denoiser.conv1d_bwd",
     "denoiser.conv1d_bwd_calls", _conv_bwd),
    ("trajdiffuse.denoiser.net", "groupnorm_forward", "denoiser.groupnorm_fwd",
     "denoiser.groupnorm_fwd_calls", None),
    ("trajdiffuse.denoiser.net", "groupnorm_backward", "denoiser.groupnorm_bwd",
     "denoiser.groupnorm_bwd_calls", None),
    ("trajdiffuse.denoiser.net", "mish_forward", "denoiser.mish_fwd",
     "denoiser.mish_fwd_calls", None),
    ("trajdiffuse.denoiser.net", "mish_backward", "denoiser.mish_bwd",
     "denoiser.mish_bwd_calls", None),
    ("trajdiffuse.denoiser.net", "attention_forward", "denoiser.attention_fwd",
     "denoiser.attention_fwd_calls", _attn_fwd),
    ("trajdiffuse.denoiser.net", "attention_backward", "denoiser.attention_bwd",
     "denoiser.attention_bwd_calls", _attn_bwd),
    ("trajdiffuse.denoiser.net", "linear_forward", "denoiser.linear_fwd",
     "denoiser.linear_fwd_calls", None),
    ("trajdiffuse.denoiser.net", "linear_backward", "denoiser.linear_bwd",
     "denoiser.linear_bwd_calls", None),
    ("trajdiffuse.metrics", "ade_fde", "metrics.ade_fde", None, None),
    ("trajdiffuse.metrics", "kde_nll", "metrics.kde_nll", None, None),
    ("trajdiffuse.metrics", "ecfl", "metrics.ecfl", None, None),
    ("trajdiffuse.metrics", "mve", "metrics.mve", None, None),
    ("trajdiffuse.metrics", "acfl", "metrics.acfl", None, None),
]


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def is_pristine() -> bool:
    """True when no target is currently wrapped (checked at the end of untraced runs)."""
    for module, path, *_ in TARGETS:
        found = _resolve(module, path)
        if found is not None and getattr(found[2], MARK, False):
            return False
    return True


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it.

    A span is [name, start, end, parent index, op id]; spans of one
    operation (one agent, one training call, one set-up or one scene
    scoring) share its op id, and the op itself is the root span.
    """

    def __init__(self):
        self.spans: list = []
        self.ops: list = []  # (op id, phase)
        self.counts: dict = {}  # phase -> name -> value
        self.missing: list = []  # "module:attr" targets that were not found
        self._stack: list = []
        self._targets: list = []  # (owner, attribute, original, wrapper)
        self._phase_counts = None

    # ----------------------------------------------------------- wrappers
    def install(self) -> None:
        """Build a wrapper for every target that exists and switch them on."""
        for module, path, span, counter, shape_counter in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}:{path}")
                print(f"perfbench: warning: trace target {module}:{path} not found; "
                      f"its metrics read null", file=sys.stderr)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, span, counter, shape_counter)
            self._targets.append((owner, attr, original, wrapper))
        self.activate(True)

    def activate(self, on: bool) -> None:
        """Bind the wrappers (on) or the originals (off) in their modules."""
        for owner, attr, original, wrapper in self._targets:
            setattr(owner, attr, wrapper if on else original)

    def _wrap(self, fn, span, counter, shape_counter):
        tracer = self

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer._phase_counts is not None:
                    tracer._phase_counts[counter] += 1
                return fn(*args, **kwargs)
            setattr(counted, MARK, True)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # outside any operation: not attributed
                return fn(*args, **kwargs)
            record = [span, 0.0, 0.0, stack[-1], tracer.spans[stack[-1]][4]]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            counts = tracer._phase_counts
            if counter is not None:
                counts[counter] += 1
            if shape_counter is not None:
                shape_counter(counts, args, kwargs, out)
            return out
        setattr(spanned, MARK, True)
        return spanned

    # --------------------------------------------------------- operations
    def begin(self, phase: str) -> None:
        """Open the root span of one operation."""
        op_id = len(self.ops)
        self.ops.append((op_id, phase))
        self._phase_counts = self.counts.setdefault(phase, defaultdict(float))
        self._stack.append(len(self.spans))
        self.spans.append([phase, time.perf_counter(), 0.0, None, op_id])

    def end(self) -> None:
        """Close the current operation."""
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._phase_counts = None

    # ---------------------------------------------------------- summaries
    def totals(self, phase: str) -> tuple[dict, dict]:
        """Per span name: summed duration and summed self time, over one phase."""
        phase_of = {op_id: ph for op_id, ph in self.ops}
        child_time = defaultdict(float)
        for name, start, end, parent, op_id in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
            if phase_of[op_id] != phase:
                continue
            total[name] += end - start
            self_time[name] += end - start - child_time[idx]
        return total, self_time

    def write(self, path) -> None:
        """Dump every span and counter, gzip-compressed JSON with a name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "ops": self.ops,
            "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p, o]
                      for n, s, e, p, o in self.spans],
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "counts": {ph: dict(c) for ph, c in self.counts.items()},
            "missing": self.missing,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
