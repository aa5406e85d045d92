"""Differentiable layer primitives in plain numpy.

Each layer is a forward/backward function pair. Forwards return (y, cache);
backwards take the upstream gradient plus the cache and return the input
gradient along with gradients for every parameter used. Everything runs in
float64; reductions use BLAS matmuls where shapes allow:
- conv1d is im2col GEMMs. It caches its zero-padded input, the backward
  rebuilds dw's columns from it, and dx is a conv of dy with the flipped kernel;
- attention runs its projections and weight gradients as whole-batch GEMMs.
  In both passes its (n, C, C) score blocks run over batch slices of
  n = max(1, 2**17 // C**2) samples, at most 1 MiB each while C <= 362. It
  caches q, k and v, not the softmax weights, and the backward recomputes
  each slice's weights. Every op on a slice is per sample (stacked GEMMs,
  row reductions), so the slicing changes no bit;
- Mish takes one exponential, e = exp(min(x, 20)), and caches only x; the
  backward takes e again and rebuilds tanh(softplus(x)) and sigmoid(x) from it;
- group norm forms x - mean once and takes the variance from it.

The private helpers `_pad`, `_affine` and `_mish` are the math of a conv's
padding, group norm's scale and shift, and Mish's value. The layers call
them, and so does a caller that rebuilds one of their inputs in a backward
instead of keeping it.
"""

from __future__ import annotations

import math

import numpy as np


# ------------------------------------------------------------------ conv1d

def _im2col(xp, k, stride):
    """(C_in * k, B * L_out) columns of the padded (B, C_in, L_p) input.

    The windows are one strided view of `xp`; the reshape copies them once.
    """
    bsz, n_in, length = xp.shape
    l_out = (length - k) // stride + 1
    s_b, s_c, s_l = xp.strides
    win = np.ndarray((bsz, n_in, l_out, k), xp.dtype, xp, 0,
                     (s_b, s_c, stride * s_l, s_l))  # (B, Cin, Lo, k)
    return win.transpose(1, 3, 0, 2).reshape(n_in * k, bsz * l_out)


def _pad(x, pad):
    """(B, C, L) zero-padded to (B, C, L + 2 * pad) on both ends of L."""
    bsz, n_in, length = x.shape
    xp = np.zeros((bsz, n_in, length + 2 * pad))
    xp[:, :, pad:pad + length] = x
    return xp


def conv1d_forward(x, w, b, stride=1):
    """1-D convolution over (B, C_in, L) with symmetric zero padding.

    w: (C_out, C_in, k) with odd k; output length is L for stride 1 and
    L // stride when L divides evenly. The cache is the zero-padded input,
    k times smaller than its im2col columns, which the backward rebuilds.
    """
    n_out, n_in, k = w.shape
    bsz = x.shape[0]
    xp = _pad(x, (k - 1) // 2)
    xcol = _im2col(xp, k, stride)
    l_out = (xp.shape[2] - k) // stride + 1
    y = (w.reshape(n_out, n_in * k) @ xcol).reshape(n_out, bsz, l_out)
    y = y.transpose(1, 0, 2) + b[None, :, None]
    return y, (xp, stride)


def conv1d_backward(dy, w, cache):
    """dx is the stride-1 conv of dy, spread onto the input grid, with the flipped kernel."""
    xp, stride = cache
    n_out, n_in, k = w.shape
    bsz, _, l_pad = xp.shape
    l_out = dy.shape[2]
    dy2 = dy.transpose(1, 0, 2).reshape(n_out, bsz * l_out)
    dw = (dy2 @ _im2col(xp, k, stride).T).reshape(n_out, n_in, k)
    db = dy2.sum(axis=1)
    pad = (k - 1) // 2
    dyp = np.zeros((bsz, n_out, l_pad))
    dyp[:, :, pad:pad + stride * l_out:stride] = dy
    w_flip = w[:, :, ::-1].transpose(1, 0, 2).reshape(n_in, n_out * k)
    dx = (w_flip @ _im2col(dyp, k, 1)).reshape(n_in, bsz, l_pad - 2 * pad)
    return dx.transpose(1, 0, 2), dw, db


# --------------------------------------------------------------- group norm

def _affine(xhat, gamma, beta):
    """Group norm's per-channel scale and shift of the normalized (B, C, L)."""
    return gamma[None, :, None] * xhat + beta[None, :, None]


GN_EPS = 1e-5  # added to each group's variance before the square root


def groupnorm_forward(x, gamma, beta, groups):
    """Group normalization over (B, C, L); groups must divide C."""
    bsz, c, length = x.shape
    xg = x.reshape(bsz, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    d = xg - mu
    # the operation sequence of xg.var, reusing d instead of a second mean
    var = np.square(d).sum(axis=2, keepdims=True) / xg.shape[2]
    inv = 1.0 / np.sqrt(var + GN_EPS)
    d *= inv
    xhat = d.reshape(bsz, c, length)
    return _affine(xhat, gamma, beta), (xhat, inv, gamma, groups)


def groupnorm_backward(dy, cache):
    xhat, inv, gamma, groups = cache
    bsz, c, length = dy.shape
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxh = (dy * gamma[None, :, None]).reshape(bsz, groups, -1)
    xh = xhat.reshape(bsz, groups, -1)
    m1 = dxh.mean(axis=2, keepdims=True)
    m2 = (dxh * xh).mean(axis=2, keepdims=True)
    dx = (inv * (dxh - m1 - xh * m2)).reshape(bsz, c, length)
    return dx, dgamma, dbeta


# --------------------------------------------------------------------- mish

def _tanh_softplus(e):
    """tanh(log(1 + e)) for e = exp(x): n / (n + 2) with n = e * (e + 2)."""
    t = e + 2.0
    t *= e
    t /= t + 2.0
    return t


def _exp_clamped(x):
    """exp(min(x, 20)): beyond 20, tanh(softplus(x)) rounds to 1.0 and
    1 - t*t in the backward is exactly 0, so the clamp loses nothing."""
    e = np.minimum(x, 20.0)
    np.exp(e, out=e)
    return e


def _mish(x):
    """x * tanh(softplus(x)) from one exponential."""
    y = _tanh_softplus(_exp_clamped(x))
    y *= x
    return y


def mish_forward(x):
    """Mish; the cache is x alone, from which the backward takes e again."""
    return _mish(x), x


def mish_backward(dy, cache):
    x = cache
    e = _exp_clamped(x)
    t = _tanh_softplus(e)
    sig = e / (1.0 + e)
    return dy * (t + x * (1.0 - t * t) * sig)


# ------------------------------------------------------------------- linear

def linear_forward(x, w, b):
    """x: (B, D_in), w: (D_in, D_out)."""
    return x @ w + b, x


def linear_backward(dy, w, cache):
    x = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# ------------------------------------------------------ channel attention

# floats per (n, C, C) score block (1 MiB); a block is one sample when C**2 is larger
_SCORE_BLOCK = 2 ** 17


def _batch_slices(bsz, c):
    """Slices of n = max(1, _SCORE_BLOCK // c**2) samples covering range(bsz)."""
    n = max(1, _SCORE_BLOCK // (c * c))
    return [slice(s, s + n) for s in range(0, bsz, n)]


def _softmax_scores(q, k, width):
    """softmax(q k^T / sqrt(width)) over the last axis for (n, C, W) q and k.

    Done in place on the (n, C, C) scores: each step is bit-identical to its
    out-of-place form, without allocating three more such arrays.
    """
    attn = q @ k.transpose(0, 2, 1)
    attn /= math.sqrt(width)
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    return attn


def attention_forward(x, p, prefix):
    """Single-head self-attention with channels as tokens, plus residual.

    x: (B, C, W). Queries/keys/values are per-token projections of the W-dim
    token vectors; scores are scaled by 1/sqrt(W). The cache is
    (x, q, k, v, o); the backward recomputes the softmax weights from q, k.
    """
    wq, bq = p[prefix + ".wq"], p[prefix + ".bq"]
    wk, bk = p[prefix + ".wk"], p[prefix + ".bk"]
    wv, bv = p[prefix + ".wv"], p[prefix + ".bv"]
    wo, bo = p[prefix + ".wo"], p[prefix + ".bo"]
    width = x.shape[2]
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    o = np.empty_like(v)
    for s in _batch_slices(*x.shape[:2]):
        o[s] = _softmax_scores(q[s], k[s], width) @ v[s]
    y = o @ wo + bo
    return y + x, (x, q, k, v, o)


def attention_backward(dy, p, prefix, cache, grads):
    x, q, k, v, o = cache
    wq, wk, wv, wo = (p[prefix + s] for s in (".wq", ".wk", ".wv", ".wo"))
    width = x.shape[2]
    grads[prefix + ".wo"] = o.reshape(-1, width).T @ dy.reshape(-1, width)
    grads[prefix + ".bo"] = dy.sum(axis=(0, 1))
    do = dy @ wo.T
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for s in _batch_slices(*x.shape[:2]):
        attn = _softmax_scores(q[s], k[s], width)
        dv[s] = attn.transpose(0, 2, 1) @ do[s]
        dscores = do[s] @ v[s].transpose(0, 2, 1)  # d attn, turned into d scores in place
        dscores -= (dscores * attn).sum(axis=2, keepdims=True)
        dscores *= attn
        dscores /= math.sqrt(width)
        dq[s] = dscores @ k[s]
        dk[s] = dscores.transpose(0, 2, 1) @ q[s]
    x2 = x.reshape(-1, width)
    dx = dy.copy()  # residual branch
    for dt, w, tag in ((dq, wq, "q"), (dk, wk, "k"), (dv, wv, "v")):
        grads[prefix + ".w" + tag] = x2.T @ dt.reshape(-1, width)
        grads[prefix + ".b" + tag] = dt.sum(axis=(0, 1))
        dx += dt @ w.T
    return dx


# ------------------------------------------------------- step embedding

def sinusoidal_embedding(i, dim):
    """Sinusoidal encoding of integer step indices; i scalar or (B,)."""
    idx = np.atleast_1d(np.asarray(i, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    args = idx[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)
