"""The denoising network: a 1-D convolutional U-Net over 2-channel trajectories.

Residual conv blocks (two per resolution level in both encoder and decoder,
each block = conv, group norm, additive step embedding, Mish, conv, group
norm, Mish, plus a skip), stride-2 conv downsampling, nearest-neighbor +
conv upsampling with channel-concatenated skips, cross-channel attention at
the bottleneck, and a zero-initialized output conv on top of a global
residual, so the untrained network is the identity map.

The U-Net is written once, as one recursive level (`_level_specs`,
`_level_forward`, `_level_backward`). Forward and backward are hand-written;
the backward's exact gradients are checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    _affine,
    _mish,
    _pad,
    attention_backward,
    attention_forward,
    conv1d_backward,
    conv1d_forward,
    groupnorm_backward,
    groupnorm_forward,
    linear_backward,
    linear_forward,
    mish_backward,
    mish_forward,
    sinusoidal_embedding,
)
from ..validation import as_int, as_int_array, check_positive, check_steps


@dataclass(frozen=True)
class ArchDescriptor:
    """Architecture and modeling constants; serialized into checkpoints."""

    widths: tuple = (32, 64, 128)
    kernel_len: int = 5
    gn_groups: int = 8
    emb_dim: int = 32
    in_channels: int = 2
    t_obs: int = 8
    t_pred: int = 12
    n_steps: int = 25
    coord_scale: float = 5.0

    def __post_init__(self):
        widths = as_int_array(self.widths, "widths", shape=(None,))
        if widths.min() < 1:
            raise ValueError("widths must be a non-empty tuple of positive ints")
        object.__setattr__(self, "widths", tuple(widths.tolist()))
        for name in ("kernel_len", "gn_groups", "emb_dim", "in_channels", "t_obs", "t_pred",
                     "n_steps"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.kernel_len % 2 != 1:
            raise ValueError("kernel_len must be odd")
        if self.emb_dim % 2 != 0 or self.emb_dim < 2:
            raise ValueError("emb_dim must be a positive even integer")
        check_positive(self.coord_scale, "coord_scale")
        if self.traj_len % self.downsample_factor != 0:
            raise ValueError(
                f"trajectory length {self.traj_len} not divisible by the "
                f"total downsampling factor {self.downsample_factor}"
            )

    @property
    def n_levels(self) -> int:
        return len(self.widths)

    @property
    def traj_len(self) -> int:
        return self.t_obs + self.t_pred

    @property
    def downsample_factor(self) -> int:
        return 2 ** (self.n_levels - 1)

    @property
    def bottleneck_len(self) -> int:
        return self.traj_len // self.downsample_factor

    def groups_for(self, channels: int) -> int:
        """Largest divisor of `channels` not exceeding gn_groups (1 divides every count)."""
        for g in range(min(self.gn_groups, channels), 0, -1):
            if channels % g == 0:
                return g


@dataclass
class DenoiserParams:
    """Named parameter tensors plus the architecture they belong to."""

    tensors: dict
    arch: ArchDescriptor

    @property
    def n_params(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(t)) for t in self.tensors.values())


def _res_block_specs(prefix, c_in, c_out, k, emb_dim):
    specs = [
        (f"{prefix}.conv1.w", (c_out, c_in, k), "conv"),
        (f"{prefix}.conv1.b", (c_out,), "zeros"),
        (f"{prefix}.gn1.g", (c_out,), "ones"),
        (f"{prefix}.gn1.b", (c_out,), "zeros"),
        (f"{prefix}.emb.w", (emb_dim, c_out), "linear"),
        (f"{prefix}.emb.b", (c_out,), "zeros"),
        (f"{prefix}.conv2.w", (c_out, c_out, k), "conv"),
        (f"{prefix}.conv2.b", (c_out,), "zeros"),
        (f"{prefix}.gn2.g", (c_out,), "ones"),
        (f"{prefix}.gn2.b", (c_out,), "zeros"),
    ]
    if c_in != c_out:
        specs.append((f"{prefix}.skip.w", (c_out, c_in, 1), "conv"))
        specs.append((f"{prefix}.skip.b", (c_out,), "zeros"))
    return specs


def _level_specs(desc: ArchDescriptor, lvl: int):
    """Specs of U-Net level `lvl` and every level below it, in forward order."""
    w = desc.widths
    k = desc.kernel_len
    e = desc.emb_dim
    c_in = desc.in_channels if lvl == 0 else w[lvl]
    specs = _res_block_specs(f"enc.{lvl}.0", c_in, w[lvl], k, e)
    specs += _res_block_specs(f"enc.{lvl}.1", w[lvl], w[lvl], k, e)
    if lvl == desc.n_levels - 1:
        width = desc.bottleneck_len
        for tag in ("q", "k", "v", "o"):
            specs.append((f"attn.w{tag}", (width, width), "linear"))
            specs.append((f"attn.b{tag}", (width,), "zeros"))
        c_dec = w[lvl]
    else:
        specs.append((f"down.{lvl}.w", (w[lvl + 1], w[lvl], k), "conv"))
        specs.append((f"down.{lvl}.b", (w[lvl + 1],), "zeros"))
        specs += _level_specs(desc, lvl + 1)
        specs.append((f"up.{lvl}.w", (w[lvl], w[lvl + 1], k), "conv"))
        specs.append((f"up.{lvl}.b", (w[lvl],), "zeros"))
        c_dec = 2 * w[lvl]
    specs += _res_block_specs(f"dec.{lvl}.0", c_dec, w[lvl], k, e)
    specs += _res_block_specs(f"dec.{lvl}.1", w[lvl], w[lvl], k, e)
    return specs


def param_specs(desc: ArchDescriptor):
    """Full list of (name, shape, init kind) for the architecture."""
    e = desc.emb_dim
    return [
        ("time_mlp.fc1.w", (e, e), "linear"),
        ("time_mlp.fc1.b", (e,), "zeros"),
        ("time_mlp.fc2.w", (e, e), "linear"),
        ("time_mlp.fc2.b", (e,), "zeros"),
        *_level_specs(desc, 0),
        ("out.w", (desc.in_channels, desc.widths[0], desc.kernel_len), "zeros"),
        ("out.b", (desc.in_channels,), "zeros"),
    ]


def init_params(desc: ArchDescriptor, seed: int = 0) -> DenoiserParams:
    """Seeded parameter initialization.

    Values are rounded through float32. Version-1 checkpoints stored float32,
    and the rounding keeps every seed's initial values, and so every model
    trained from them, what they were then.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, kind in param_specs(desc):
        if kind == "ones":
            t = np.ones(shape)
        elif kind == "zeros":
            t = np.zeros(shape)
        else:
            if kind == "conv":
                std = np.sqrt(2.0 / (shape[1] * shape[2]))
            else:  # linear
                std = np.sqrt(1.0 / shape[0])
            t = (rng.standard_normal(shape) * std).astype(np.float32).astype(np.float64)
        tensors[name] = t
    return DenoiserParams(tensors=tensors, arch=desc)


# ----------------------------------------------------------- residual block

def _conv_back(p, name, dy, cache, grads):
    """conv1d backward for the conv `name`; stores its weight and bias gradients."""
    dx, grads[f"{name}.w"], grads[f"{name}.b"] = conv1d_backward(dy, p[f"{name}.w"], cache)
    return dx


def _res_forward(p, prefix, x, emb, desc):
    """The block's output and its tape entry.

    The tape keeps conv1's padded input, the two group-norm caches and the
    step projection (its input and output): the backward rebuilds both Mish
    inputs, conv2's padded input and the skip conv's input from them.
    """
    c_out = p[f"{prefix}.conv1.w"].shape[0]
    groups = desc.groups_for(c_out)
    h, c_conv1 = conv1d_forward(x, p[f"{prefix}.conv1.w"], p[f"{prefix}.conv1.b"])
    h, c_gn1 = groupnorm_forward(h, p[f"{prefix}.gn1.g"], p[f"{prefix}.gn1.b"], groups)
    eb, c_emb = linear_forward(emb, p[f"{prefix}.emb.w"], p[f"{prefix}.emb.b"])
    h = h + eb[:, :, None]
    h, _ = mish_forward(h)
    h, _ = conv1d_forward(h, p[f"{prefix}.conv2.w"], p[f"{prefix}.conv2.b"])
    h, c_gn2 = groupnorm_forward(h, p[f"{prefix}.gn2.g"], p[f"{prefix}.gn2.b"], groups)
    h, _ = mish_forward(h)
    if f"{prefix}.skip.w" in p:
        s, _ = conv1d_forward(x, p[f"{prefix}.skip.w"], p[f"{prefix}.skip.b"])
    else:
        s = x
    return h + s, (c_conv1, c_gn1, c_emb, eb, c_gn2)


def _res_backward(p, prefix, dy, cache, grads, d_emb):
    """Returns (dx, d_emb + the block's step gradient); parameter gradients land in `grads`.

    Each input the tape dropped is rebuilt by the forward's own ops, so its
    bits are the forward's: a Mish input from its group norm's xhat (plus the
    step projection for Mish 1), conv2's padded input from Mish 1's output,
    the skip conv's input from the interior of conv1's padded input.
    """
    c_conv1, c_gn1, c_emb, eb, c_gn2 = cache
    xp = c_conv1[0]
    pad = (xp.shape[2] - dy.shape[2]) // 2  # conv1 and conv2 share the kernel length
    if f"{prefix}.skip.w" in p:
        x = _pad(xp[:, :, pad:xp.shape[2] - pad], 0)
        dx_skip = _conv_back(p, f"{prefix}.skip", dy, (x, 1), grads)
        del x
    else:
        dx_skip = dy
    dh = mish_backward(dy, _affine(c_gn2[0], p[f"{prefix}.gn2.g"], p[f"{prefix}.gn2.b"]))
    dh, grads[f"{prefix}.gn2.g"], grads[f"{prefix}.gn2.b"] = groupnorm_backward(dh, c_gn2)
    a1 = _affine(c_gn1[0], p[f"{prefix}.gn1.g"], p[f"{prefix}.gn1.b"]) + eb[:, :, None]
    dh = _conv_back(p, f"{prefix}.conv2", dh, (_pad(_mish(a1), pad), 1), grads)
    dh = mish_backward(dh, a1)
    del a1
    d_eb = dh.sum(axis=2)
    de, grads[f"{prefix}.emb.w"], grads[f"{prefix}.emb.b"] = linear_backward(
        d_eb, p[f"{prefix}.emb.w"], c_emb)
    dh, grads[f"{prefix}.gn1.g"], grads[f"{prefix}.gn1.b"] = groupnorm_backward(dh, c_gn1)
    dx = _conv_back(p, f"{prefix}.conv1", dh, c_conv1, grads)
    d_emb += de  # in place after the first block: the levels' frames share one array
    return dx + dx_skip, d_emb


# ------------------------------------------------------------- whole network

def _level_forward(run, p, desc, lvl, h, emb):
    """U-Net level `lvl` on h, the levels below it included; `run` tapes each
    layer. No frame holds the down conv's output while the levels below run."""
    for blk in (0, 1):
        h = run(_res_forward, p, f"enc.{lvl}.{blk}", h, emb, desc)
    if lvl == desc.n_levels - 1:
        h = run(attention_forward, h, p, "attn")
    else:
        inner = _level_forward(
            run, p, desc, lvl + 1,
            run(conv1d_forward, h, p[f"down.{lvl}.w"], p[f"down.{lvl}.b"], stride=2), emb)
        h = np.concatenate([run(conv1d_forward, np.repeat(inner, 2, axis=2),
                                p[f"up.{lvl}.w"], p[f"up.{lvl}.b"]), h], axis=1)
    for blk in (0, 1):
        h = run(_res_forward, p, f"dec.{lvl}.{blk}", h, emb, desc)
    return h


def _level_backward(p, desc, lvl, dh, tape, grads, d_emb):
    """Reverse of `_level_forward`: returns (dx, d_emb), the step-embedding
    gradient `d_emb` summed in backward order."""
    for blk in (1, 0):
        dh, d_emb = _res_backward(p, f"dec.{lvl}.{blk}", dh, tape.pop(), grads, d_emb)
    if lvl == desc.n_levels - 1:
        dh = attention_backward(dh, p, "attn", tape.pop(), grads)
    else:
        d_up, d_skip = np.split(dh, [desc.widths[lvl]], axis=1)
        # the upsample's backward: one add per pair of frames, as x[:, :, 0::2] + x[:, :, 1::2]
        # (a sum over the pair axis turns -0.0 + -0.0 into 0.0); passed with no name, so no
        # frame holds it while the levels below run
        dh, d_emb = _level_backward(p, desc, lvl + 1, np.add(*np.moveaxis(
            _conv_back(p, f"up.{lvl}", d_up, tape.pop(), grads).reshape(
                len(d_up), desc.widths[lvl + 1], -1, 2), 3, 0)), tape, grads, d_emb)
        dh = _conv_back(p, f"down.{lvl}", dh, tape.pop(), grads) + d_skip
    for blk in (1, 0):
        dh, d_emb = _res_backward(p, f"enc.{lvl}.{blk}", dh, tape.pop(), grads, d_emb)
    return dh, d_emb


def _check_input(desc: ArchDescriptor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != desc.in_channels:
        raise ValueError(f"input must have shape (B, T, {desc.in_channels}), got {x.shape}")
    if x.shape[1] != desc.traj_len:
        raise ValueError(
            f"trajectory length {x.shape[1]} does not match the descriptor's {desc.traj_len}"
        )
    return x


def forward_with_cache(params: DenoiserParams, x: np.ndarray, i, *, keep_cache: bool = True):
    """Network forward on (B, T, 2) inputs; i is an int or a (B,) int array.

    Returns (y, cache) for one `backward_from_cache`. The cache is (x.shape,
    tape): the tape holds one entry per layer or residual block in forward
    order, and the backward pops it in reverse, so the cache serves one
    backward. An entry keeps only what the backward cannot rebuild exactly:
    a conv's zero-padded input, Mish's input, attention's (x, q, k, v, o),
    and for a residual block conv1's padded input, both group-norm caches
    and the step projection (see `_res_backward` for what it rebuilds).
    With keep_cache=False the forward keeps no cache:
    each block's is dropped as soon as the block returns, and the cache
    returned is None. The output is the same.
    """
    desc = params.arch
    p = params.tensors
    x = _check_input(desc, x)
    steps = check_steps(i, desc.n_steps, shape=() if np.ndim(i) == 0 else (x.shape[0],))
    i_arr = np.broadcast_to(steps, (x.shape[0],))
    x_cf = np.ascontiguousarray(x.transpose(0, 2, 1))
    tape = []

    def run(layer, *args, **kwargs):
        """y of layer(*args, **kwargs) -> (y, c); c goes on the tape when kept."""
        y, c = layer(*args, **kwargs)
        if keep_cache:
            tape.append(c)
        return y

    emb0 = sinusoidal_embedding(i_arr, desc.emb_dim)
    t1 = run(linear_forward, emb0, p["time_mlp.fc1.w"], p["time_mlp.fc1.b"])
    tm = run(mish_forward, t1)
    emb = run(linear_forward, tm, p["time_mlp.fc2.w"], p["time_mlp.fc2.b"])

    h = _level_forward(run, p, desc, 0, x_cf, emb)
    yc = run(conv1d_forward, h, p["out.w"], p["out.b"])
    y = np.ascontiguousarray((x_cf + yc).transpose(0, 2, 1))
    return y, ((x.shape, tape) if keep_cache else None)


def backward_from_cache(params: DenoiserParams, cache, upstream: np.ndarray):
    """Reverse-mode pass; returns (grads, d_input) with grads keyed like tensors.

    It consumes the cache: each layer's entry is popped off the caller's
    tape, and so freed, once its gradient is done. The upstream shape is
    checked first, with the tape untouched; a cache that an earlier backward
    used raises ValueError.
    """
    desc = params.arch
    p = params.tensors
    if cache is None:
        raise ValueError("no cache to run the backward from: the forward kept none "
                         "(keep_cache=False)")
    shape, tape = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match the forward "
            f"output {shape}"
        )
    if not tape:
        raise ValueError("the cache was consumed by an earlier backward; "
                         "run the forward again")
    dy = upstream.transpose(0, 2, 1)

    grads: dict = {}
    dh, d_emb = _level_backward(p, desc, 0, _conv_back(p, "out", dy, tape.pop(), grads),
                                tape, grads, 0.0)

    dt, grads["time_mlp.fc2.w"], grads["time_mlp.fc2.b"] = linear_backward(
        d_emb, p["time_mlp.fc2.w"], tape.pop())
    dt = mish_backward(dt, tape.pop())
    _, grads["time_mlp.fc1.w"], grads["time_mlp.fc1.b"] = linear_backward(
        dt, p["time_mlp.fc1.w"], tape.pop())

    dx = (dy + dh).transpose(0, 2, 1)  # the global residual plus the trunk
    return grads, np.ascontiguousarray(dx)
