import re
from collections import Counter

import numpy as np
import pytest

from trajdiffuse.denoiser import (
    ArchDescriptor,
    backward_from_cache,
    forward_with_cache,
    init_params,
    net,
    param_specs,
)
from trajdiffuse.denoiser.layers import attention_forward, conv1d_forward

TINY = ArchDescriptor(
    widths=(4,), kernel_len=5, gn_groups=8, emb_dim=8,
    t_obs=4, t_pred=4, n_steps=10, coord_scale=5.0,
)
THREE_LEVEL = ArchDescriptor(
    widths=(4, 6, 8), kernel_len=5, gn_groups=8, emb_dim=8,
    t_obs=8, t_pred=12, n_steps=10, coord_scale=5.0,
)


def tiny_batch(rng, desc=TINY, k=2):
    return rng.normal(size=(k, desc.traj_len, 2))


def test_zero_initialized_net_is_identity():
    rng = np.random.default_rng(0)
    params = init_params(TINY, seed=1)
    x = tiny_batch(rng)
    y, _ = forward_with_cache(params, x, 3)
    np.testing.assert_array_equal(y, x)


def test_step_embedding_reaches_output():
    rng = np.random.default_rng(1)
    params = init_params(TINY, seed=2)
    # perturb the output conv so the residual trunk contributes
    params.tensors["out.w"] += 0.05
    x = tiny_batch(rng)
    y1, _ = forward_with_cache(params, x, 1)
    yn, _ = forward_with_cache(params, x, TINY.n_steps)
    assert np.abs(y1 - yn).max() > 0


def test_internal_lengths_follow_stride_arithmetic(monkeypatch):
    rng = np.random.default_rng(2)
    params = init_params(THREE_LEVEL, seed=3)
    x = rng.normal(size=(1, 20, 2))
    attn_shapes, down_lengths = [], []

    def attention(h, *args):
        attn_shapes.append(h.shape)
        return attention_forward(h, *args)

    def conv(h, w, b, stride=1):
        if stride == 2:
            down_lengths.append(h.shape[2])  # input lengths of the down convs
        return conv1d_forward(h, w, b, stride=stride)

    monkeypatch.setattr(net, "attention_forward", attention)
    monkeypatch.setattr(net, "conv1d_forward", conv)
    y, _ = forward_with_cache(params, x, 5)
    assert y.shape == (1, 20, 2)
    # bottleneck attention saw length 20 -> 10 -> 5
    assert attn_shapes == [(1, 8, 5)]
    assert down_lengths == [20, 10]


class _ReadOrder(dict):
    """A tensor dict that records each name the first time it is read."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.reads = []

    def __getitem__(self, name):
        if name not in self.reads:
            self.reads.append(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("widths", [(4,), (4, 6), (4, 6, 8), (4, 6, 8, 10)])
def test_param_specs_list_the_tensors_in_the_order_the_forward_reads_them(widths):
    # the spec order is init_params' RNG order, so the forward's walk fixes it
    desc = ArchDescriptor(widths=widths, kernel_len=3, gn_groups=2, emb_dim=8,
                          t_obs=2, t_pred=6, n_steps=5)
    params = init_params(desc, seed=1)
    params.tensors = _ReadOrder(params.tensors)
    forward_with_cache(params, np.zeros((1, desc.traj_len, 2)), 3)
    assert params.tensors.reads == [name for name, _, _ in param_specs(desc)]


TRACED_LAYERS = ("conv1d", "groupnorm", "mish", "attention", "linear")


def test_each_layer_runs_once_per_pass_through_the_traced_names(monkeypatch):
    """perfbench's per-layer metrics count calls to these `net` module names,
    so every layer must run through them: once forward, once backward."""
    counts = Counter()
    for op in TRACED_LAYERS:
        for way in ("forward", "backward"):
            name = f"{op}_{way}"

            def counting(*args, _name=name, _layer=getattr(net, name), **kwargs):
                counts[_name] += 1
                return _layer(*args, **kwargs)

            monkeypatch.setattr(net, name, counting)
    rng = np.random.default_rng(21)
    params = init_params(THREE_LEVEL, seed=22)
    x = tiny_batch(rng, THREE_LEVEL)
    specs = param_specs(THREE_LEVEL)
    n_res = sum(name.endswith(".conv1.w") for name, _, _ in specs)
    assert n_res == 4 * THREE_LEVEL.n_levels  # two encoder and two decoder blocks a level
    expected = {
        "conv1d": sum(len(shape) == 3 for _, shape, _ in specs),
        "groupnorm": 2 * n_res,
        "mish": 1 + 2 * n_res,
        "attention": 1,
        "linear": 2 + n_res,
    }

    forward_with_cache(params, x, 4, keep_cache=False)
    assert {op: counts[f"{op}_forward"] for op in TRACED_LAYERS} == expected
    assert not any(counts[f"{op}_backward"] for op in TRACED_LAYERS)

    counts.clear()
    _, cache = forward_with_cache(params, x, 4)
    backward_from_cache(params, cache, rng.normal(size=x.shape))
    assert {op: counts[f"{op}_forward"] for op in TRACED_LAYERS} == expected
    assert {op: counts[f"{op}_backward"] for op in TRACED_LAYERS} == expected


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    params = init_params(THREE_LEVEL, seed=4)
    x = tiny_batch(rng, THREE_LEVEL)
    a, _ = forward_with_cache(params, x, 7)
    b, _ = forward_with_cache(params, x, 7)
    np.testing.assert_array_equal(a, b)


def test_input_validation():
    params = init_params(THREE_LEVEL, seed=5)
    rng = np.random.default_rng(4)
    for t_len in (18, 24):  # 18 is not divisible by the downsampling factor, 24 is
        with pytest.raises(ValueError, match="does not match the descriptor"):
            forward_with_cache(params, rng.normal(size=(1, t_len, 2)), 3)
    with pytest.raises(ValueError, match=re.escape("input must have shape (B, T, 2), got "
                                                   "(1, 20, 3)")):
        forward_with_cache(params, rng.normal(size=(1, 20, 3)), 3)
    with pytest.raises(IndexError):
        forward_with_cache(params, rng.normal(size=(1, 20, 2)), 0)
    with pytest.raises(IndexError):
        forward_with_cache(params, rng.normal(size=(1, 20, 2)), 11)


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(5)
    params = init_params(TINY, seed=6)
    x = tiny_batch(rng)
    _, cache = forward_with_cache(params, x, 4)
    grads, _ = backward_from_cache(params, cache, np.zeros_like(x))
    assert set(grads) == set(params.tensors)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def _fd_check(desc, seed, h=1e-4, tol=1e-4):
    """Central finite differences over every parameter of a small net."""
    rng = np.random.default_rng(seed)
    params = init_params(desc, seed=seed)
    # move off the zero-init point so the output conv has signal
    params.tensors["out.w"] = (
        (rng.standard_normal(params.tensors["out.w"].shape) * 0.1)
        .astype(np.float32).astype(np.float64)
    )
    x = rng.normal(size=(1, desc.traj_len, 2))
    upstream = rng.normal(size=x.shape)
    i = int(rng.integers(1, desc.n_steps + 1))

    _, cache = forward_with_cache(params, x, i)
    grads, _ = backward_from_cache(params, cache, upstream)

    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            yp, _ = forward_with_cache(params, x, i)
            flat[j] = orig - h
            ym, _ = forward_with_cache(params, x, i)
            flat[j] = orig
            fd = float(((yp - ym) * upstream).sum()) / (2 * h)
            a = g_flat[j]
            rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-3)
            worst = max(worst, rel)
            assert rel < tol, f"{name}[{j}]: analytic {a:.6e} vs fd {fd:.6e}"
    return worst


def test_whole_net_gradients_match_finite_differences():
    worst = _fd_check(TINY, seed=11)
    assert worst < 1e-4


def test_multi_level_gradients_match_finite_differences():
    for widths in ((3, 4), (3, 4, 5), (3, 4, 5, 3)):  # 2**(levels - 1) divides 2 + 6
        small = ArchDescriptor(
            widths=widths, kernel_len=3, gn_groups=1, emb_dim=4,
            t_obs=2, t_pred=6, n_steps=6, coord_scale=1.0,
        )
        worst = _fd_check(small, seed=12)
        assert worst < 1e-4


def test_input_gradient_matches_finite_differences():
    for desc in (TINY, THREE_LEVEL):  # THREE_LEVEL's runs through the down and up convs
        rng = np.random.default_rng(13)
        params = init_params(desc, seed=13)
        params.tensors["out.w"] += 0.1
        x = rng.normal(size=(1, desc.traj_len, 2))
        upstream = rng.normal(size=x.shape)
        _, cache = forward_with_cache(params, x, 5)
        _, dx = backward_from_cache(params, cache, upstream)
        h = 1e-6
        for idx in [(0, 0, 0), (0, 3, 1), (0, 7, 0), (0, desc.traj_len - 1, 1)]:
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fp, _ = forward_with_cache(params, xp, 5)
            fm, _ = forward_with_cache(params, xm, 5)
            fd = float(((fp - fm) * upstream).sum()) / (2 * h)
            assert dx[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_backward_rejects_bad_upstream_shape():
    rng = np.random.default_rng(14)
    params = init_params(TINY, seed=15)
    x = tiny_batch(rng)
    _, cache = forward_with_cache(params, x, 3)
    # wrong length, another batch size, channels-first
    for shape in [(1, 2, 2), (3, TINY.traj_len, 2), (2, 2, TINY.traj_len)]:
        with pytest.raises(ValueError, match="upstream gradient shape"):
            backward_from_cache(params, cache, np.zeros(shape))


def test_cross_channel_attention_public_shape():
    params = init_params(TINY, seed=16)
    rng = np.random.default_rng(15)
    feats = rng.normal(size=(4, TINY.bottleneck_len))
    out, _ = attention_forward(feats[None], params.tensors, "attn")
    assert out.shape == (1,) + feats.shape


def test_per_sample_step_indices():
    rng = np.random.default_rng(16)
    params = init_params(TINY, seed=17)
    params.tensors["out.w"] += 0.05
    x = rng.normal(size=(3, TINY.traj_len, 2))
    y_mixed, _ = forward_with_cache(params, x, np.array([1, 5, 9]))
    # BLAS blocking differs across batch shapes, so compare to tight tolerance
    for pos, i in enumerate((1, 5, 9)):
        y_single, _ = forward_with_cache(params, x[pos:pos + 1], i)
        np.testing.assert_allclose(y_mixed[pos:pos + 1], y_single, rtol=0, atol=1e-12)


TOY = ArchDescriptor(widths=(16, 32, 64))
WIDE = ArchDescriptor(widths=(32, 64, 128))


@pytest.mark.parametrize("desc", [TOY, WIDE], ids=["toy", "wide"])
@pytest.mark.parametrize("bsz", [1, 20])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar-i", "per-row-i"])
def test_forward_without_cache_equals_the_cached_forward(desc, bsz, per_row):
    rng = np.random.default_rng(bsz)
    params = init_params(desc, seed=18)
    for t in params.tensors.values():  # every branch, the zero-initialized ones too
        t += 0.05 * rng.standard_normal(t.shape)
    x = rng.normal(size=(bsz, desc.traj_len, 2))
    i = rng.integers(1, desc.n_steps + 1, size=bsz) if per_row else 7
    y_kept, cache = forward_with_cache(params, x, i)
    y_free, none = forward_with_cache(params, x, i, keep_cache=False)
    assert cache is not None and none is None
    assert y_free.dtype == y_kept.dtype and y_free.shape == y_kept.shape
    assert y_free.tobytes() == y_kept.tobytes()


def test_backward_needs_a_kept_cache():
    rng = np.random.default_rng(19)
    params = init_params(TINY, seed=20)
    x = tiny_batch(rng)
    _, cache = forward_with_cache(params, x, 3, keep_cache=False)
    with pytest.raises(ValueError, match="the forward kept none"):
        backward_from_cache(params, cache, np.zeros_like(x))


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(21)
    params = init_params(TINY, seed=22)
    x = tiny_batch(rng)
    upstream = rng.normal(size=x.shape)
    _, cache = forward_with_cache(params, x, 3)
    _, tape = cache
    assert tape
    first, _ = backward_from_cache(params, cache, upstream)
    assert tape == []  # every layer's cache was freed
    with pytest.raises(ValueError, match="upstream gradient shape"):  # checked first
        backward_from_cache(params, cache, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        backward_from_cache(params, cache, upstream)
    _, cache = forward_with_cache(params, x, 3)
    again, _ = backward_from_cache(params, cache, upstream)
    assert all(again[k].tobytes() == first[k].tobytes() for k in first)
