import numpy as np
import pytest

from genrekit.kernels import (
    backend,
    conv2d_backward,
    conv2d_forward,
    maxpool_backward,
    maxpool_forward,
)


def conv_oracle(x, w, b):
    """Six-loop convolution straight from the definition."""
    B, C, H, W = x.shape
    F, _, KH, KW = w.shape
    OH, OW = H - KH + 1, W - KW + 1
    out = np.zeros((B, F, OH, OW))
    for bi in range(B):
        for f in range(F):
            for oh in range(OH):
                for ow in range(OW):
                    acc = b[f]
                    for c in range(C):
                        for i in range(KH):
                            for j in range(KW):
                                acc += x[bi, c, oh + i, ow + j] * w[f, c, i, j]
                    out[bi, f, oh, ow] = acc
    return out


def random_case(rng, B=2, C=3, H=7, W=9, F=4, KH=3, KW=2):
    x = rng.normal(size=(B, C, H, W))
    w = rng.normal(size=(F, C, KH, KW))
    b = rng.normal(size=F)
    return x, w, b


def test_conv_forward_matches_oracle():
    rng = np.random.default_rng(0)
    x, w, b = random_case(rng)
    np.testing.assert_allclose(conv2d_forward(x, w, b), conv_oracle(x, w, b),
                               atol=1e-12)


def test_conv_forward_1x1_is_channel_mix():
    rng = np.random.default_rng(1)
    x, w, b = random_case(rng, KH=1, KW=1)
    got = conv2d_forward(x, w, b)
    expect = np.einsum("bchw,fcij->bfhw", x, w) + b[None, :, None, None]
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x, w, b = random_case(rng, B=1, C=2, H=5, W=5, F=2, KH=2, KW=3)
    dout = rng.normal(size=conv2d_forward(x, w, b).shape)

    dx, dw, db = conv2d_backward(x, w, dout)
    step = 1e-6

    def loss(xv, wv, bv):
        return float((conv2d_forward(xv, wv, bv) * dout).sum())

    for arr, grad in ((x, dx), (w, dw), (b, db)):
        flat = arr.reshape(-1)
        n_coords = min(12, flat.size)
        for k in np.random.default_rng(3).choice(flat.size, n_coords, replace=False):
            orig = flat[k]
            flat[k] = orig + step
            lp = loss(x, w, b)
            flat[k] = orig - step
            lm = loss(x, w, b)
            flat[k] = orig
            numeric = (lp - lm) / (2 * step)
            assert grad.reshape(-1)[k] == pytest.approx(numeric, abs=1e-5)


def test_conv_backward_without_dx_gives_same_weight_gradients():
    rng = np.random.default_rng(4)
    x, w, _ = random_case(rng, B=3, C=2, H=8, W=10, F=5, KH=3, KW=4)
    dout = rng.normal(size=(3, 5, 6, 7))
    dx, dw, db = conv2d_backward(x, w, dout)
    none, dw_only, db_only = conv2d_backward(x, w, dout, need_dx=False)
    assert dx is not None and none is None
    np.testing.assert_array_equal(dw_only, dw)
    np.testing.assert_array_equal(db_only, db)


def test_maxpool_drops_remainder():
    x = np.arange(2 * 1 * 5 * 7, dtype=float).reshape(2, 1, 5, 7)
    out, _ = maxpool_forward(x, 2, 3)
    assert out.shape == (2, 1, 2, 2)


def test_maxpool_values():
    x = np.array([[[[1.0, 2.0, 5.0, 4.0],
                    [3.0, 0.0, 1.0, 6.0]]]])
    out, _ = maxpool_forward(x, 2, 2)
    np.testing.assert_array_equal(out, [[[[3.0, 6.0]]]])


def test_maxpool_tie_takes_first():
    """Equal values within a window must route to the earliest position
    (gradient determinism depends on it)."""
    x = np.full((1, 1, 2, 2), 7.0)
    out, arg = maxpool_forward(x, 2, 2)
    assert out[0, 0, 0, 0] == 7.0
    assert arg[0, 0, 0, 0] == 0
    dout = np.ones((1, 1, 1, 1))
    dx = maxpool_backward(dout, arg, x.shape, 2, 2)
    np.testing.assert_array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_backward_routes_all_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 6, 8))
    out, arg = maxpool_forward(x, 2, 4)
    dout = rng.normal(size=out.shape)
    dx = maxpool_backward(dout, arg, x.shape, 2, 4)
    assert dx.sum() == pytest.approx(dout.sum(), abs=1e-12)
    # gradient lands only at positions that equal the pooled maximum
    assert ((dx != 0) <= (np.repeat(np.repeat(out, 2, axis=2), 4, axis=3) == x)).all()


def test_backend_name():
    assert backend() == "numpy"
