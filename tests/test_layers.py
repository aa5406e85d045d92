import math

import numpy as np
import pytest
from conftest import traced_peak
from numpy.lib.stride_tricks import sliding_window_view

from trajdiffuse.denoiser.layers import (
    _im2col,
    _softmax_scores,
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


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_close(analytic, numeric, tol=1e-6, atol=5e-9):
    # atol absorbs finite-difference noise at structurally-zero gradients
    err = np.abs(analytic - numeric) - atol - tol * np.maximum(np.abs(analytic), np.abs(numeric))
    assert err.max() <= 0, f"worst excess {err.max():.3e}"


def test_conv1d_gradients_stride1():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4)
    up = rng.normal(size=(2, 4, 8))

    def loss():
        y, _ = conv1d_forward(x, w, b)
        return float((y * up).sum())

    y, cache = conv1d_forward(x, w, b)
    dx, dw, db = conv1d_backward(up, w, cache)
    assert_close(dx, fd_grad(loss, x))
    assert_close(dw, fd_grad(loss, w))
    assert_close(db, fd_grad(loss, b))


def test_conv1d_gradients_stride2():
    rng = np.random.default_rng(1)
    for length in (8, 9):  # at 9, odd, the last output is centred on the last input
        x = rng.normal(size=(2, 3, length))
        w = rng.normal(size=(5, 3, 5))
        b = rng.normal(size=5)
        up = rng.normal(size=(2, 5, (length + 1) // 2))

        def loss():
            y, _ = conv1d_forward(x, w, b, stride=2)
            return float((y * up).sum())

        _, cache = conv1d_forward(x, w, b, stride=2)
        dx, dw, db = conv1d_backward(up, w, cache)
        assert dx.shape == x.shape
        assert_close(dx, fd_grad(loss, x))
        assert_close(dw, fd_grad(loss, w))
        assert_close(db, fd_grad(loss, b))


def test_conv1d_bias_grad_is_summed_upstream():
    # hand-checkable single-channel, length-4 case
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 1, 4))
    w = rng.normal(size=(1, 1, 5))
    b = np.zeros(1)
    up = rng.normal(size=(1, 1, 4))
    _, cache = conv1d_forward(x, w, b)
    _, _, db = conv1d_backward(up, w, cache)
    assert db[0] == pytest.approx(up.sum(), rel=1e-12)


def test_conv1d_output_lengths():
    x = np.zeros((1, 2, 20))
    w = np.zeros((3, 2, 5))
    b = np.zeros(3)
    assert conv1d_forward(x, w, b)[0].shape == (1, 3, 20)
    assert conv1d_forward(x, w, b, stride=2)[0].shape == (1, 3, 10)


CONV_SHAPES = [(5, 1), (5, 2), (3, 1), (3, 2), (1, 1)]  # (k, stride)


@pytest.mark.parametrize("k, stride", CONV_SHAPES)
def test_conv1d_caches_no_array_larger_than_its_padded_input(k, stride):
    rng = np.random.default_rng(k + 10 * stride)
    x = rng.normal(size=(2, 3, 12))
    _, cache = conv1d_forward(x, rng.normal(size=(4, 3, k)), np.zeros(4), stride=stride)
    arrays = [c for c in cache if isinstance(c, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= x.shape[0] * x.shape[1] * (x.shape[2] + k - 1)


@pytest.mark.parametrize("k, stride", CONV_SHAPES)
def test_im2col_equals_the_sliding_window_columns(k, stride):
    # the GEMM operands of both conv passes stay what the windowed view built
    xp = np.random.default_rng(k).normal(size=(3, 4, 11 + k))
    want = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    want = want.transpose(1, 3, 0, 2).reshape(4 * k, -1)
    got = _im2col(xp, k, stride)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_groupnorm_gradients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6, 5))
    g = rng.normal(size=6) + 1.0
    beta = rng.normal(size=6)
    up = rng.normal(size=(2, 6, 5))

    def loss():
        y, _ = groupnorm_forward(x, g, beta, groups=3)
        return float((y * up).sum())

    _, cache = groupnorm_forward(x, g, beta, groups=3)
    dx, dg, dbeta = groupnorm_backward(up, cache)
    assert_close(dx, fd_grad(loss, x), tol=5e-6)
    assert_close(dg, fd_grad(loss, g))
    assert_close(dbeta, fd_grad(loss, beta))


def test_mish_gradient_and_values():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4)) * 3
    up = rng.normal(size=(3, 4))

    def loss():
        y, _ = mish_forward(x)
        return float((y * up).sum())

    y, cache = mish_forward(x)
    np.testing.assert_allclose(y, x * np.tanh(np.log1p(np.exp(x))), rtol=1e-12)
    assert_close(mish_backward(up, cache), fd_grad(loss, x))


def test_linear_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=6)
    up = rng.normal(size=(3, 6))

    def loss():
        y, _ = linear_forward(x, w, b)
        return float((y * up).sum())

    _, cache = linear_forward(x, w, b)
    dx, dw, db = linear_backward(up, w, cache)
    assert_close(dx, fd_grad(loss, x))
    assert_close(dw, fd_grad(loss, w))
    assert_close(db, fd_grad(loss, b))


def _attention_params(rng, width):
    p = {}
    for tag in ("q", "k", "v", "o"):
        p[f"attn.w{tag}"] = rng.normal(size=(width, width)) / np.sqrt(width)
        p[f"attn.b{tag}"] = rng.normal(size=width) * 0.1
    return p


def test_attention_matches_scalar_oracle():
    # brute-force softmax(Q K^T / sqrt(W)) V with explicit python loops
    rng = np.random.default_rng(7)
    c, w = 3, 4
    x = rng.normal(size=(1, c, w))
    p = _attention_params(rng, w)
    y, _ = attention_forward(x, p, "attn")

    q = x[0] @ p["attn.wq"] + p["attn.bq"]
    k = x[0] @ p["attn.wk"] + p["attn.bk"]
    v = x[0] @ p["attn.wv"] + p["attn.bv"]
    expected = np.zeros((c, w))
    for ci in range(c):
        scores = [float(q[ci] @ k[cj]) / np.sqrt(w) for cj in range(c)]
        exps = [np.exp(s - max(scores)) for s in scores]
        attn = [e / sum(exps) for e in exps]
        o = sum(attn[cj] * v[cj] for cj in range(c))
        expected[ci] = o @ p["attn.wo"] + p["attn.bo"] + x[0, ci]
    np.testing.assert_allclose(y[0], expected, rtol=0, atol=1e-10)


def test_attention_single_token():
    rng = np.random.default_rng(8)
    w = 5
    x = rng.normal(size=(1, 1, w))
    p = _attention_params(rng, w)
    y, (_, q, k, _, _) = attention_forward(x, p, "attn")
    attn = _softmax_scores(q, k, w)
    assert attn.shape == (1, 1, 1) and attn[0, 0, 0] == 1.0
    v = x[0] @ p["attn.wv"] + p["attn.bv"]
    np.testing.assert_allclose(y[0], v @ p["attn.wo"] + p["attn.bo"] + x[0], rtol=1e-12)


def test_attention_uniform_weights_for_identical_channels():
    rng = np.random.default_rng(9)
    c, w = 4, 6
    row = rng.normal(size=w)
    x = np.tile(row, (1, c, 1))
    p = _attention_params(rng, w)
    _, (_, q, k, _, _) = attention_forward(x, p, "attn")
    attn = _softmax_scores(q, k, w)
    np.testing.assert_allclose(attn, 1.0 / c, rtol=0, atol=1e-12)


def test_attention_gradients():
    rng = np.random.default_rng(10)
    c, w = 3, 4
    x = rng.normal(size=(2, c, w))
    p = _attention_params(rng, w)
    up = rng.normal(size=(2, c, w))

    def loss():
        y, _ = attention_forward(x, p, "attn")
        return float((y * up).sum())

    _, cache = attention_forward(x, p, "attn")
    grads = {}
    dx = attention_backward(up, p, "attn", cache, grads)
    assert_close(dx, fd_grad(loss, x))
    for name in p:
        assert_close(grads[name], fd_grad(loss, p[name]), tol=5e-6)


def test_sinusoidal_embedding_distinctness():
    for dim in (32, 2):  # 2: one frequency, exp(-0.0) = 1
        e = sinusoidal_embedding(np.arange(1, 26), dim)
        assert e.shape == (25, dim)
        np.testing.assert_array_equal(sinusoidal_embedding(7, dim), sinusoidal_embedding(7, dim))
        for i in range(25):
            for j in range(i + 1, 25):
                assert np.abs(e[i] - e[j]).max() > 1e-6


# ---------------------------------------------- oracles: the einsum / logaddexp forms

def _oracle_attention_forward(x, p, prefix):
    wq, bq = p[prefix + ".wq"], p[prefix + ".bq"]
    wk, bk = p[prefix + ".wk"], p[prefix + ".bk"]
    wv, bv = p[prefix + ".wv"], p[prefix + ".bv"]
    wo, bo = p[prefix + ".wo"], p[prefix + ".bo"]
    width = x.shape[2]
    q = np.einsum("bcw,wu->bcu", x, wq) + bq
    k = np.einsum("bcw,wu->bcu", x, wk) + bk
    v = np.einsum("bcw,wu->bcu", x, wv) + bv
    scores = np.einsum("bcu,bdu->bcd", q, k) / np.sqrt(width)
    scores -= scores.max(axis=2, keepdims=True)
    expw = np.exp(scores)
    attn = expw / expw.sum(axis=2, keepdims=True)
    o = np.einsum("bcd,bdu->bcu", attn, v)
    y = np.einsum("bcu,uv->bcv", o, wo) + bo
    return y + x, (x, q, k, v, attn, o)


def _oracle_attention_backward(dy, p, prefix, cache, grads):
    x, q, k, v, attn, o = cache
    wq, wk, wv, wo = (p[prefix + s] for s in (".wq", ".wk", ".wv", ".wo"))
    width = x.shape[2]
    grads[prefix + ".wo"] = np.einsum("bcu,bcv->uv", o, dy)
    grads[prefix + ".bo"] = dy.sum(axis=(0, 1))
    do = np.einsum("bcv,uv->bcu", dy, wo)
    dattn = np.einsum("bcu,bdu->bcd", do, v)
    dv = np.einsum("bcd,bcu->bdu", attn, do)
    dscores = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    dscores /= np.sqrt(width)
    dq = np.einsum("bcd,bdu->bcu", dscores, k)
    dk = np.einsum("bcd,bcu->bdu", dscores, q)
    dx = dy.copy()
    for dt, w, tag in ((dq, wq, "q"), (dk, wk, "k"), (dv, wv, "v")):
        grads[prefix + ".w" + tag] = np.einsum("bcw,bcu->wu", x, dt)
        grads[prefix + ".b" + tag] = dt.sum(axis=(0, 1))
        dx += np.einsum("bcu,wu->bcw", dt, w)
    return dx


def _oracle_mish(x):
    return x * np.tanh(np.logaddexp(0.0, x))


def _oracle_mish_grad(x):
    t = np.tanh(np.logaddexp(0.0, x))
    sig = np.exp(-np.logaddexp(0.0, -x))
    return t + x * (1.0 - t * t) * sig


def _oracle_groupnorm_forward(x, gamma, beta, groups, eps=1e-5):
    bsz, c, length = x.shape
    xg = x.reshape(bsz, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(bsz, c, length)
    return gamma[None, :, None] * xhat + beta[None, :, None], inv


PREDICT_SHAPES = [(20, 32, 20), (20, 64, 10), (20, 128, 5)]  # (B, C, L) per U-Net level


@pytest.mark.parametrize("shape", PREDICT_SHAPES)
def test_attention_matches_einsum_oracle_at_predict_shapes(shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape)
    p = _attention_params(rng, shape[2])
    up = rng.normal(size=shape)
    y, cache = attention_forward(x, p, "attn")
    y_ref, cache_ref = _oracle_attention_forward(x, p, "attn")
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
    x_ref, q_ref, k_ref, v_ref, _, o_ref = cache_ref
    assert len(cache) == 5
    for got, ref in zip(cache, (x_ref, q_ref, k_ref, v_ref, o_ref)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    grads, grads_ref = {}, {}
    dx = attention_backward(up, p, "attn", cache, grads)
    dx_ref = _oracle_attention_backward(up, p, "attn", cache_ref, grads_ref)
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
    assert set(grads) == set(grads_ref) == set(p)
    for name in p:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", PREDICT_SHAPES)
def test_mish_matches_logaddexp_oracle_at_predict_shapes(shape):
    rng = np.random.default_rng(12)
    x = rng.normal(size=shape) * 4
    up = rng.normal(size=shape)
    y, cache = mish_forward(x)
    np.testing.assert_allclose(y, _oracle_mish(x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        mish_backward(up, cache), up * _oracle_mish_grad(x), rtol=0, atol=1e-12
    )


def test_mish_extreme_inputs_match_oracle():
    x = np.array([-800.0, 800.0, 19.99, 20.0, 20.01, 0.0, -0.0, 1e-300, -1e-300,
                  -30.0, 30.0, -745.0, 709.0])
    y, cache = mish_forward(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, _oracle_mish(x), rtol=1e-15, atol=1e-300)
    np.testing.assert_array_equal(np.signbit(y), np.signbit(_oracle_mish(x)))
    np.testing.assert_array_equal(y[[1, 4, 12]], x[[1, 4, 12]])  # tanh(softplus) is 1.0
    dy = mish_backward(np.ones_like(x), cache)
    assert np.all(np.isfinite(dy))
    np.testing.assert_allclose(dy, _oracle_mish_grad(x), rtol=1e-14, atol=1e-300)
    assert cache is x  # the backward takes e again: nothing else is cached


@pytest.mark.parametrize("shape", PREDICT_SHAPES)
def test_groupnorm_is_bit_identical_to_var_oracle(shape):
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape) * 3 + 1
    gamma = rng.normal(size=shape[1]) + 1.0
    beta = rng.normal(size=shape[1])
    groups = 8
    y, cache = groupnorm_forward(x, gamma, beta, groups)
    y_ref, inv_ref = _oracle_groupnorm_forward(x, gamma, beta, groups)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(cache[1], inv_ref)


def test_attention_gradients_at_bottleneck_shape():
    rng = np.random.default_rng(14)
    c, w = 128, 5
    x = rng.normal(size=(1, c, w))
    p = _attention_params(rng, w)
    up = rng.normal(size=(1, c, w))

    def loss():
        y, _ = attention_forward(x, p, "attn")
        return float((y * up).sum())

    # the loss sums 640 terms with |terms| summing to ~420, so rounding in
    # each central difference is up to eps * 420 / h ~ 1e-7
    atol = 1e-7
    _, cache = attention_forward(x, p, "attn")
    grads = {}
    dx = attention_backward(up, p, "attn", cache, grads)
    assert_close(dx, fd_grad(loss, x), tol=5e-6, atol=atol)
    for name in p:
        assert_close(grads[name], fd_grad(loss, p[name]), tol=5e-6, atol=atol)


# ------------------------------------------- attention's batch slices: same bits, less memory

def _whole_batch_attention_forward(x, p, prefix):
    """attention_forward with the (B, C, C) softmax weights of the whole batch at once."""
    width = x.shape[2]
    q = x @ p[prefix + ".wq"] + p[prefix + ".bq"]
    k = x @ p[prefix + ".wk"] + p[prefix + ".bk"]
    v = x @ p[prefix + ".wv"] + p[prefix + ".bv"]
    attn = q @ k.transpose(0, 2, 1)
    attn /= math.sqrt(width)
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    o = attn @ v
    return o @ p[prefix + ".wo"] + p[prefix + ".bo"] + x, (x, q, k, v, attn, o)


def _whole_batch_attention_backward(dy, p, prefix, cache, grads):
    x, q, k, v, attn, o = cache
    width = x.shape[2]
    grads[prefix + ".wo"] = o.reshape(-1, width).T @ dy.reshape(-1, width)
    grads[prefix + ".bo"] = dy.sum(axis=(0, 1))
    do = dy @ p[prefix + ".wo"].T
    dv = attn.transpose(0, 2, 1) @ do
    dscores = do @ v.transpose(0, 2, 1)
    dscores -= (dscores * attn).sum(axis=2, keepdims=True)
    dscores *= attn
    dscores /= math.sqrt(width)
    dq = dscores @ k
    dk = dscores.transpose(0, 2, 1) @ q
    dx = dy.copy()
    for dt, tag in ((dq, "q"), (dk, "k"), (dv, "v")):
        grads[prefix + ".w" + tag] = x.reshape(-1, width).T @ dt.reshape(-1, width)
        grads[prefix + ".b" + tag] = dt.sum(axis=(0, 1))
        dx += dt @ p[prefix + ".w" + tag].T
    return dx


@pytest.mark.parametrize("bsz, c", [(13, 128), (20, 64)])  # slices of 8 and 5; one slice
def test_sliced_attention_is_bit_identical_to_the_whole_batch(bsz, c):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(bsz, c, 5))
    p = _attention_params(rng, 5)
    up = rng.normal(size=x.shape)
    y, cache = attention_forward(x, p, "attn")
    y_ref, cache_ref = _whole_batch_attention_forward(x, p, "attn")
    assert y.tobytes() == y_ref.tobytes()
    grads, grads_ref = {}, {}
    dx = attention_backward(up, p, "attn", cache, grads)
    dx_ref = _whole_batch_attention_backward(up, p, "attn", cache_ref, grads_ref)
    assert dx.tobytes() == dx_ref.tobytes()
    assert set(grads) == set(grads_ref) == set(p)
    for name in p:
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


def test_attention_backward_holds_three_score_blocks_at_most():
    """Three (n, C, C) blocks of 2**17 floats (the weights, their gradient and
    one product) plus the (B, C, W) gradients; whole-batch score arrays read
    8.35 MB here."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(32, 128, 5))
    p = _attention_params(rng, 5)
    up = rng.normal(size=x.shape)
    _, cache = attention_forward(x, p, "attn")
    peak = traced_peak(lambda: attention_backward(up, p, "attn", cache, {}))
    assert peak <= 3 * 2**17 * 8 + 8 * x.nbytes, peak
