import contextlib
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genrekit import kernels
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
    np.testing.assert_allclose(conv2d_forward(x, w, b)[0], conv_oracle(x, w, b),
                               atol=1e-12)


def test_conv_forward_1x1_is_channel_mix():
    rng = np.random.default_rng(1)
    x, w, b = random_case(rng, KH=1, KW=1)
    got, none = conv2d_forward(x, w, b)
    assert none is None
    expect = np.einsum("bchw,fcij->bfhw", x, w) + b[None, :, None, None]
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x, w, b = random_case(rng, B=1, C=2, H=5, W=5, F=2, KH=2, KW=3)
    dout = rng.normal(size=conv2d_forward(x, w, b)[0].shape)

    dx, dw, db = conv2d_backward(x, w, dout)
    step = 1e-6

    def loss(xv, wv, bv):
        return float((conv2d_forward(xv, wv, bv)[0] * dout).sum())

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


# ------------------------------------------- sample groups of the column buffer

def conv_backward_oracle(x, w, dout):
    """(dx, dw, db) by six loops, the adjoint of ``conv_oracle``."""
    B, C, H, W = x.shape
    F, _, KH, KW = w.shape
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for bi in range(B):
        for f in range(F):
            for oh in range(dout.shape[2]):
                for ow in range(dout.shape[3]):
                    g = dout[bi, f, oh, ow]
                    for c in range(C):
                        for i in range(KH):
                            for j in range(KW):
                                dx[bi, c, oh + i, ow + j] += g * w[f, c, i, j]
                                dw[f, c, i, j] += g * x[bi, c, oh + i, ow + j]
    return dx, dw, dout.sum(axis=(0, 2, 3))


@contextlib.contextmanager
def column_cap(cols):
    """Run with ``kernels.COLS`` set to ``cols`` (usable inside Hypothesis)."""
    old, kernels.COLS = kernels.COLS, cols
    try:
        yield
    finally:
        kernels.COLS = old


def assert_matches_oracles(x, w, b, dout):
    np.testing.assert_allclose(conv2d_forward(x, w, b)[0], conv_oracle(x, w, b), atol=1e-12)
    expect = conv_backward_oracle(x, w, dout)
    for got, want in zip(conv2d_backward(x, w, dout), expect):
        np.testing.assert_allclose(got, want, atol=1e-12)
    for got, want in zip(conv2d_backward(x, w, dout, need_dx=False)[1:], expect[1:]):
        np.testing.assert_allclose(got, want, atol=1e-12)


# one sample's columns are 3*3*2 rows x 4*6 columns = 432 elements
@pytest.mark.parametrize("cols", [100, 432, 900, 1 << 18],
                         ids=["sample-over-cap", "one-per-group", "partial-last-group",
                              "one-group"])
def test_conv_grouped_matches_oracle_and_finite_differences(monkeypatch, cols):
    monkeypatch.setattr(kernels, "COLS", cols)
    rng = np.random.default_rng(6)
    x, w, b = random_case(rng, B=5, C=3, H=6, W=7, F=4, KH=3, KW=2)
    dout = rng.normal(size=(5, 4, 4, 6))
    assert_matches_oracles(x, w, b, dout)

    dx, dw, db = conv2d_backward(x, w, dout)
    step = 1e-6
    coords = np.random.default_rng(7)
    for arr, grad in ((x, dx), (w, dw), (b, db)):
        flat = arr.reshape(-1)
        for k in coords.choice(flat.size, min(8, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + step
            lp = float((conv2d_forward(x, w, b)[0] * dout).sum())
            flat[k] = orig - step
            lm = float((conv2d_forward(x, w, b)[0] * dout).sum())
            flat[k] = orig
            assert grad.reshape(-1)[k] == pytest.approx((lp - lm) / (2 * step), abs=1e-5)


@st.composite
def conv_cases(draw):
    B, C, F = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    H, W = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    KH, KW = draw(st.integers(1, H)), draw(st.integers(1, W))
    cols = draw(st.sampled_from([1, 7, 40, 150, 1 << 18]))
    return B, C, H, W, F, KH, KW, cols, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_grouped_property(case):
    B, C, H, W, F, KH, KW, cols, seed = case
    rng = np.random.default_rng(seed)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=KH, KW=KW)
    dout = rng.normal(size=(B, F, H - KH + 1, W - KW + 1))
    with column_cap(cols):
        assert_matches_oracles(x, w, b, dout)


@pytest.mark.parametrize("shape", [(5, 1, 96, 48, 8, 70, 4), (40, 16, 13, 11, 8, 3, 3)],
                         ids=["sample-over-cap", "samples-under-cap"])
def test_conv_single_sample_equals_batched_row(shape):
    """A served request's few patches and the whole batch fall into different
    sample groups; each sample's output must not depend on its group."""
    B, C, H, W, F, KH, KW = shape
    rng = np.random.default_rng(8)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=KH, KW=KW)
    batched = conv2d_forward(x, w, b)[0]
    for i in range(B):
        np.testing.assert_allclose(conv2d_forward(x[i:i + 1], w, b)[0][0], batched[i],
                                   rtol=0, atol=1e-12)


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
    dx = maxpool_backward(dout, arg, 2, 2, np.empty(x.shape))
    np.testing.assert_array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_backward_routes_all_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 6, 8))
    out, arg = maxpool_forward(x, 2, 4)
    dout = rng.normal(size=out.shape)
    dx = maxpool_backward(dout, arg, 2, 4, np.empty(x.shape))
    assert dx.sum() == pytest.approx(dout.sum(), abs=1e-12)
    # gradient lands only at positions that equal the pooled maximum
    assert ((dx != 0) <= (np.repeat(np.repeat(out, 2, axis=2), 4, axis=3) == x)).all()


def test_backend_name():
    assert backend() == "numpy"


# ------------------------------------------- pooling against the reshape oracle

def maxpool_forward_oracle(x, ph, pw):
    """Reshape the windows to (B, C, OH, OW, ph*pw) and take the first argmax."""
    B, C, H, W = x.shape
    OH, OW = H // ph, W // pw
    win = x[:, :, :OH * ph, :OW * pw].reshape(B, C, OH, ph, OW, pw)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(B, C, OH, OW, ph * pw)
    arg = win.argmax(axis=-1)
    return np.take_along_axis(win, arg[..., None], axis=-1)[..., 0], arg


def maxpool_backward_oracle(dout, arg, x_shape, ph, pw):
    B, C, H, W = x_shape
    OH, OW = dout.shape[2], dout.shape[3]
    dwin = np.zeros((B, C, OH, OW, ph * pw))
    np.put_along_axis(dwin, arg[..., None].astype(np.int64), dout[..., None], axis=-1)
    dwin = dwin.reshape(B, C, OH, OW, ph, pw).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(x_shape)
    dx[:, :, :OH * ph, :OW * pw] = dwin.reshape(B, C, OH * ph, OW * pw)
    return dx


def assert_pool_matches_oracle(x, ph, pw, dout):
    out, arg = maxpool_forward(x, ph, pw)
    want_out, want_arg = maxpool_forward_oracle(x, ph, pw)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(arg, want_arg)
    assert arg.dtype == np.min_scalar_type(ph * pw - 1)
    np.testing.assert_array_equal(maxpool_backward(dout, arg, ph, pw, np.empty(x.shape)),
                                  maxpool_backward_oracle(dout, want_arg, x.shape, ph, pw))
    no_arg_out, none = maxpool_forward(x, ph, pw, need_arg=False)
    assert none is None
    np.testing.assert_array_equal(no_arg_out, want_out)


@st.composite
def pool_cases(draw):
    B, C = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    H, W = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ph, pw = draw(st.integers(1, H)), draw(st.integers(1, W))
    return B, C, H, W, ph, pw, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(pool_cases())
def test_maxpool_property_equals_reshape_oracle(case):
    """Values drawn from a few small integers, zeros and negative zeros, so
    most windows hold exact ties, many of them at the maximum."""
    B, C, H, W, ph, pw, seed = case
    rng = np.random.default_rng(seed)
    x = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 3.0], size=(B, C, H, W))
    dout = rng.normal(size=(B, C, H // ph, W // pw))
    assert_pool_matches_oracle(x, ph, pw, dout)


@pytest.mark.parametrize("ph,pw,dtype", [(1, 1, np.uint8), (16, 16, np.uint8),
                                         (16, 17, np.uint16), (20, 30, np.uint16)])
def test_maxpool_argmax_dtype_holds_every_position(ph, pw, dtype):
    """Above 256 window positions the argmax no longer fits in a byte."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 2 * ph + 1, pw))
    x[0, 0, :ph, :pw] = 0.0
    x[0, 0, ph - 1, pw - 1] = 5.0  # the window's last position
    out, arg = maxpool_forward(x, ph, pw)
    assert arg.dtype == dtype
    assert arg[0, 0, 0, 0] == ph * pw - 1
    assert_pool_matches_oracle(x, ph, pw, rng.normal(size=out.shape))


# ------------------------------------------ fused conv + pool against the chain

def unfused_chain(x, w, b, ph, pw, dout, need_dx):
    """conv2d_forward -> maxpool_forward, then maxpool_backward -> conv2d_backward."""
    conv = conv2d_forward(x, w, b)[0]
    out, arg = maxpool_forward(conv, ph, pw)
    dconv = maxpool_backward(dout, arg, ph, pw, np.empty(conv.shape))
    return (out, arg) + conv2d_backward(x, w, dconv, need_dx=need_dx)


@st.composite
def fused_cases(draw):
    B, C, F = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    H, W = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    KH, KW = draw(st.integers(1, H)), draw(st.integers(1, W))
    ph, pw = draw(st.integers(1, H - KH + 1)), draw(st.integers(1, W - KW + 1))
    cols = draw(st.sampled_from([1, 7, 40, 150, 1 << 18]))
    return (B, C, H, W, F, KH, KW, ph, pw, cols, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(fused_cases())
@example((1, 1, 3, 2, 1, 2, 2, 1, 1, 1, False, 0))  # a one-column band would run as gemv
@example((2, 1, 3, 4, 1, 2, 2, 1, 4, 1 << 18, True, 0))  # a pool wider than the map: empty
def test_fused_conv_pool_equals_unfused_chain(case):
    """The fused kernels give the chain's pooled map, argmax and gradients
    to the bit.  A zeroed input region makes the conv output equal the bias
    there, so windows hold exact ties."""
    B, C, H, W, F, KH, KW, ph, pw, cols, need_dx, seed = case
    rng = np.random.default_rng(seed)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=KH, KW=KW)
    r0, c0 = rng.integers(0, H), rng.integers(0, W)
    x[rng.integers(0, B), :, r0:r0 + rng.integers(1, H + 1), c0:c0 + rng.integers(1, W + 1)] = 0.0
    dout = rng.normal(size=(B, F, (H - KH + 1) // ph, (W - KW + 1) // pw))
    with column_cap(cols):
        want = unfused_chain(x, w, b, ph, pw, dout, need_dx)
        out, arg = conv2d_forward(x, w, b, pool=(ph, pw), need_arg=True)
        no_arg_out, no_arg = conv2d_forward(x, w, b, pool=(ph, pw))
        grads = conv2d_backward(x, w, dout, need_dx=need_dx, pool=(ph, pw), arg=arg)
    assert no_arg is None
    np.testing.assert_array_equal(no_arg_out, want[0])
    assert arg.dtype == want[1].dtype
    for got, expect in zip((out, arg) + grads, want):
        if expect is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, expect)


def test_fused_stage_never_holds_a_full_resolution_map():
    """The audio CNN's first stage (70x4 filters over a batch of 16 96x96
    patches, 2x4 pool): one fused forward and backward peak below the
    16*64*27*93 float64 conv output that the unfused chain allocates."""
    import tracemalloc
    rng = np.random.default_rng(15)
    x, w, b = random_case(rng, B=16, C=1, H=96, W=96, F=64, KH=70, KW=4)
    dout = rng.normal(size=(16, 64, 27 // 2, 93 // 4))
    full_map = 8 * 16 * 64 * 27 * 93
    tracemalloc.start()
    try:
        _, arg = conv2d_forward(x, w, b, pool=(2, 4), need_arg=True)
        conv2d_backward(x, w, dout, pool=(2, 4), arg=arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_map


def over_cols_case(B, C, H, W, F, KH, KW, ph, pw, seed):
    """x, w, b and a pooled gradient of a fused stage whose one sample's
    column matrix is over COLS."""
    rng = np.random.default_rng(seed)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=KH, KW=KW)
    x[0, :, H // 3:2 * H // 3, W // 4:W // 2] = 0.0  # conv output = bias there: tied windows
    assert C * KH * KW * (H - KH + 1) * (W - KW + 1) > kernels.COLS
    return x, w, b, rng.normal(size=(B, F, (H - KH + 1) // ph, (W - KW + 1) // pw))


@pytest.mark.parametrize("shape,banded", [
    ((2, 1, 96, 96, 64, 70, 4, 2, 4), (True, True)),
    ((2, 2, 60, 100, 16, 40, 4, 2, 3), (True, True)),
    ((2, 1, 96, 96, 64, 70, 3, 3, 3), (False, False)),
    ((2, 1, 96, 60, 64, 70, 4, 1, 2), (False, True)),
], ids=["first-audio-stage", "bands-across-channels", "dw-width-not-a-multiple-of-8",
        "pool-reads-the-last-columns"])
def test_samples_over_cols_run_in_bands_where_bits_allow(monkeypatch, shape, banded):
    """The fused forward and the need_dx=False backward run a sample over
    COLS in bands no larger than COLS, and give the unfused chain's bits (its
    need_dx=True backward keeps every sample whole for col2im).  A sample
    stays whole where a band would round differently: a 70x3 kernel's 210 dw
    columns end in a partial group of 8, and a 1x2 pool over 57 columns reads
    the last P % 8 columns of the whole product."""
    x, w, b, dout = over_cols_case(*shape, seed=22)
    pool = shape[-2:]
    want = unfused_chain(x, w, b, *pool, dout, need_dx=True)
    sizes = []
    unroll = kernels._unroll

    def recording_unroll(*args, **kwargs):
        cols = unroll(*args, **kwargs)
        sizes.append(cols.size)
        return cols

    monkeypatch.setattr(kernels, "_unroll", recording_unroll)
    out, arg = conv2d_forward(x, w, b, pool=pool, need_arg=True)
    forward, sizes[:] = sizes[:], []
    grads = conv2d_backward(x, w, dout, need_dx=False, pool=pool, arg=arg)
    assert (len(forward) > len(x), len(sizes) > len(x)) == banded
    for calls, in_bands in zip((forward, sizes), banded):
        assert (max(calls) <= kernels.COLS) == in_bands
    assert grads[0] is None
    for got, expect in zip((out, arg) + grads[1:], want[:2] + want[3:], strict=True):
        assert got.dtype == expect.dtype
        np.testing.assert_array_equal(got, expect)


def test_first_audio_stage_scratch_is_bounded_by_cols():
    """With two threads and B = 16, the fused forward and the need_dx=False
    backward each peak below their outputs plus two COLS-sized float64
    arrays per thread (its column buffer, and its GEMM output, widened
    gradient and pool scratch).  A whole sample's column matrix per thread
    (5.6 MB each) does not fit."""
    import tracemalloc
    x, w, b, dout = over_cols_case(16, 1, 96, 96, 64, 70, 4, 2, 4, seed=23)
    scratch = 2 * 2 * kernels.COLS * 8
    with workers(2):
        tracemalloc.start()
        try:
            out, arg = conv2d_forward(x, w, b, pool=(2, 4), need_arg=True)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _, dw, db = conv2d_backward(x, w, dout, need_dx=False, pool=(2, 4), arg=arg)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert forward_peak < out.nbytes + arg.nbytes + scratch
    assert backward_peak < dw.nbytes + db.nbytes + scratch


# tag-serve's second stage: K = 576 and P = 11*9 give groups of 4, each
# sample's windows read 10x8 conv outputs; audio-train's third stage: one
# group of 16, each sample's windows read 2x3 of a 3x3 map.  Under a 2x3
# pool a tag-serve sample reads 10x9 (90 columns), so a group of 4 keeps
# the bits and a group of 1 does not: the whole call forms whole maps.
@pytest.mark.parametrize("shape,F,pool,groups,read", [
    ((1, 64, 13, 11), 128, (2, 4), [1], True),
    ((2, 64, 13, 11), 128, (2, 4), [2], True),
    ((3, 64, 13, 11), 128, (2, 4), [3], True),
    ((4, 64, 13, 11), 128, (2, 4), [4], True),
    ((6, 64, 13, 11), 128, (2, 4), [4, 2], True),
    ((16, 128, 5, 5), 128, (2, 3), [16], True),
    ((5, 64, 13, 11), 128, (2, 3), [4, 1], False),
], ids=["tag-serve-stage-2-B1", "tag-serve-stage-2-B2", "tag-serve-stage-2-B3",
        "tag-serve-stage-2-B4", "tag-serve-stage-2-B6", "audio-train-stage-3",
        "last-group-refused"])
def test_every_pooled_group_forms_only_the_conv_outputs_its_windows_read(
        monkeypatch, shape, F, pool, groups, read):
    """A fused forward's groups unroll only the conv rows and columns that
    windows read where the cut rule accepts them for every group size of
    the call, and their whole maps otherwise; either way the pooled map and
    argmax are the unfused chain's bits."""
    B, C, H, W = shape
    rng = np.random.default_rng(24)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=3, KW=3)
    x[0, :, H // 3:2 * H // 3, :W // 2] = 0.0  # conv output = bias there: tied windows
    conv = conv2d_forward(x, w, b)[0]
    want = maxpool_forward(conv, *pool)
    oh, ow = H - 2, W - 2
    if read:
        oh, ow = oh // pool[0] * pool[0], ow // pool[1] * pool[1]
    unrolled = []
    unroll = kernels._unroll

    def recording_unroll(xs, *args):
        unrolled.append(xs.shape)
        return unroll(xs, *args)

    monkeypatch.setattr(kernels, "_unroll", recording_unroll)
    for need_arg in (True, False):
        unrolled.clear()
        out, arg = conv2d_forward(x, w, b, pool=pool, need_arg=need_arg)
        assert sorted(unrolled) == sorted((n, C, oh + 2, ow + 2) for n in groups)
        np.testing.assert_array_equal(out, want[0])
        if need_arg:
            assert arg.dtype == want[1].dtype
            np.testing.assert_array_equal(arg, want[1])
        else:
            assert arg is None


# ------------------------------------------------- sample groups on worker threads

@contextlib.contextmanager
def workers(n):
    """Run with ``n`` threads per kernel call (usable inside Hypothesis)."""
    kernels._set_workers(n)
    try:
        yield
    finally:
        kernels._set_workers(None)


def test_fused_stage_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    """On a host with many CPUs a call still uses at most MAX_WORKERS
    threads, so the fused stage stays below one full-resolution map."""
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(16)))
    with workers(None):
        x = np.empty((16, 1, 96, 96))
        assert kernels._plan(x, 70, 4)[3] == kernels.MAX_WORKERS
        test_fused_stage_never_holds_a_full_resolution_map()


def conv_outputs(x, w, b, dout, pool, need_dx, need_arg):
    """Every output of one forward and one backward, fused when ``pool``."""
    if pool is None:
        return conv2d_forward(x, w, b)[:1] + conv2d_backward(x, w, dout, need_dx=need_dx)
    out, arg = conv2d_forward(x, w, b, pool=pool, need_arg=need_arg)
    if arg is None:  # the backward needs the argmax of a training forward
        arg = conv2d_forward(x, w, b, pool=pool, need_arg=True)[1]
    return (out, arg) + conv2d_backward(x, w, dout, need_dx=need_dx, pool=pool, arg=arg)


def assert_same_outputs(got, want):
    for g, e in zip(got, want, strict=True):
        if e is None:
            assert g is None
        else:
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)


@st.composite
def threaded_cases(draw):
    B, C, F = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    H, W = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    KH, KW = draw(st.integers(1, H)), draw(st.integers(1, W))
    pool = draw(st.none() | st.tuples(st.integers(1, H - KH + 1), st.integers(1, W - KW + 1)))
    cols = draw(st.sampled_from([1, 7, 40, 150, 1 << 18]))
    return (B, C, H, W, F, KH, KW, pool, cols, draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None)
@given(threaded_cases())
def test_conv_outputs_do_not_depend_on_the_worker_count(case):
    """Groups run on 1, 2 or 3 threads give the same bits: outputs, argmax
    and dx are written per group, and dw and db are summed in group order."""
    B, C, H, W, F, KH, KW, pool, cols, need_dx, need_arg, seed = case
    rng = np.random.default_rng(seed)
    x, w, b = random_case(rng, B=B, C=C, H=H, W=W, F=F, KH=KH, KW=KW)
    x[rng.integers(0, B), :, :rng.integers(1, H + 1)] = 0.0  # ties for the pool
    oh, ow = H - KH + 1, W - KW + 1
    dout = rng.normal(size=(B, F) + ((oh // pool[0], ow // pool[1]) if pool else (oh, ow)))
    with column_cap(cols):
        with workers(1):
            want = conv_outputs(x, w, b, dout, pool, need_dx, need_arg)
        for n in (2, 3):
            with workers(n):
                assert_same_outputs(conv_outputs(x, w, b, dout, pool, need_dx, need_arg), want)


def test_three_workers_under_fast_thread_switching():
    """More threads than this machine may have cores, switching as often as
    the interpreter allows: a lost or reordered update would change a bit."""
    rng = np.random.default_rng(16)
    x, w, b = random_case(rng, B=9, C=2, H=8, W=9, F=3, KH=3, KW=2)
    dout = rng.normal(size=(9, 3, 3, 2))
    args = (x, w, b, dout, (2, 4), True, True)
    with column_cap(100), workers(1):
        want = conv_outputs(*args)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with column_cap(100), workers(3):
            for _ in range(5):
                assert_same_outputs(conv_outputs(*args), want)
    finally:
        sys.setswitchinterval(interval)


def test_a_single_group_runs_inline_and_builds_no_pool():
    rng = np.random.default_rng(17)
    x, w, b = random_case(rng, B=3)
    threads = threading.active_count()
    with workers(2):
        conv2d_backward(x, w, conv2d_forward(x, w, b)[0])
        assert kernels._pool is None
        assert threading.active_count() == threads
        with column_cap(1):  # one sample per group: three groups
            conv2d_forward(x, w, b)
        assert kernels._pool is not None
    assert kernels._pool is None


class Boom(Exception):
    pass


@pytest.mark.parametrize("failing_call", [0, 3, 5])
@pytest.mark.parametrize("name", ["maxpool_forward", "maxpool_backward"])
def test_a_failing_group_raises_its_own_error_and_the_next_call_works(monkeypatch, name,
                                                                     failing_call):
    """Six groups on two threads; the group that fails runs on either one."""
    rng = np.random.default_rng(18)
    x, w, b = random_case(rng, B=6, C=2, H=8, W=9, F=3, KH=3, KW=2)
    dout = rng.normal(size=(6, 3, 3, 2))
    with column_cap(1), workers(1):
        want = conv_outputs(x, w, b, dout, (2, 4), True, True)
    pool_kernel = getattr(kernels, name)
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == failing_call:
            raise Boom(failing_call)
        return pool_kernel(*args, **kwargs)

    with column_cap(1), workers(2):
        monkeypatch.setattr(kernels, name, failing)
        with pytest.raises(Boom):
            conv_outputs(x, w, b, dout, (2, 4), True, True)
        monkeypatch.setattr(kernels, name, pool_kernel)
        assert_same_outputs(conv_outputs(x, w, b, dout, (2, 4), True, True), want)


# --------------------------------------------------------- split dense product

@pytest.mark.parametrize("shape", [(512, 4096), (4096, 512), (1025, 1024), (65536, 32)])
def test_matmul_halves_equal_the_whole_product(shape):
    """Column halves on two threads give the bits of ``a @ b``, as ``b``
    and as ``b.T``, from one row to batches past the small-matrix sizes."""
    rng = np.random.default_rng(19)
    b = rng.normal(size=shape)
    for rows in (1, 2, 3, 5, 8, 33, 64):
        a, at = rng.normal(size=(rows, shape[0])), rng.normal(size=(rows, shape[1]))
        with workers(2):
            got = kernels.matmul(a, b), kernels.matmul(at, b.T)
            assert kernels._pool is not None
        np.testing.assert_array_equal(got[0], a @ b)
        np.testing.assert_array_equal(got[1], at @ b.T)


@settings(max_examples=12, deadline=None)
@given(rows=st.integers(2, 64), depth=st.sampled_from([4096, 8192]),
       width=st.integers(129, 300).filter(lambda n: n % 8))
@example(rows=33, depth=4096, width=284)
@example(rows=64, depth=4096, width=284)
@example(rows=64, depth=8192, width=196)
@example(rows=64, depth=8192, width=210)
def test_matmul_equals_a_at_b_at_widths_not_a_multiple_of_8(rows, depth, width):
    """Halves of these products are big enough to split, but a GEMM's last
    ``width % 8`` columns round differently (the examples differed from
    ``a @ b`` in their last 2-6 columns when they were split)."""
    rng = np.random.default_rng([rows, depth, width])
    a, b = rng.normal(size=(rows, depth)), rng.normal(size=(depth, width))
    with workers(2):
        got = kernels.matmul(a, b)
    np.testing.assert_array_equal(got, a @ b)


@pytest.mark.parametrize("shape", [(122, 2048), (2048, 15), (1024, 1031), (65536, 17)])
def test_matmul_keeps_narrow_halves_whole(shape):
    """A half below SPLIT / 2 elements could take OpenBLAS's small-matrix
    kernel or gemv, which round differently: such a product is not split."""
    with workers(2):
        kernels.matmul(np.ones((2, shape[0])), np.ones(shape))
        assert kernels._pool is None


# ------------------------------------------------------------ the one cut rule

def pieces_of(ranges):
    """(n, stop) pieces of contiguous column ranges [(c0, c1), ...]."""
    return [(c1 - c0, c1) for c0, c1 in ranges]


@pytest.mark.parametrize("rows,depth,width,pieces", [
    # a split (64x4096) @ (4096x284) differed from a @ b in columns 280-283
    (64, 4096, 284, pieces_of([(0, 144), (144, 284)])),
    # a 70x3 kernel's 210 dw columns of a 96x96 sample, in bands of 32 kernel rows
    (64, 27 * 94, 210, pieces_of([(q0 * 3, q1 * 3) for q0, q1 in kernels._bands(70, 3, 27 * 94)])),
    # a 96x60 input under a 70x4 kernel and a 1x2 pool: the conv map is 27x57,
    # and the last band computes column 26*57 + 55, one of the last 1539 % 8
    (64, 280, 27 * 57, [((r1 - r0) * 56, (r1 - 1) * 57 + 56)
                        for r0, r1 in kernels._bands(27, 56, 280)]),
    # each half of a (2x512) @ (512x2032) product is 8 columns under SPLIT
    (2, 512, 2032, pieces_of([(0, 1016), (1016, 2032)])),
    (64, 4096, 4096, []),
], ids=["halves-of-a-width-284-product", "dw-of-a-70x3-kernel", "pool-reads-the-last-columns",
        "just-under-split", "no-pieces"])
def test_cut_keeps_bits_refuses_cuts_that_round_differently(rows, depth, width, pieces):
    assert not kernels.cut_keeps_bits(rows, depth, width, pieces)


def test_cut_keeps_bits_accepts_the_first_audio_stage_bands_and_halves_at_split():
    """The cuts the refusals sit next to: halves of exactly SPLIT
    multiply-adds, and both band cuts of a 96x96 sample under a 70x4 kernel
    and a 2x4 pool (conv map 27x93, P = 2511)."""
    assert kernels.cut_keeps_bits(2, 512, 2048, pieces_of([(0, 1024), (1024, 2048)]))
    forward = [((r1 - r0) * 2 * 92, (2 * r1 - 1) * 93 + 92)
               for r0, r1 in kernels._bands(13, 2 * 92, 280)]
    dw = pieces_of([(q0 * 4, q1 * 4) for q0, q1 in kernels._bands(70, 4, 2511)])
    assert len(forward) > 1 and kernels.cut_keeps_bits(64, 280, 2511, forward)
    assert len(dw) > 1 and kernels.cut_keeps_bits(64, 2511, 280, dw)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 64), depth=st.integers(64, 4096),
       extra=st.lists(st.integers(0, 8), min_size=1, max_size=3),
       unread=st.integers(0, 2), tail=st.integers(0, 7))
@example(rows=1, depth=4096, extra=[0, 1], unread=0, tail=3)  # one row: gemv
def test_every_cut_the_rule_accepts_gives_the_whole_products_bits(rows, depth, extra, unread,
                                                                  tail):
    """Contiguous column pieces, each 8 * k columns over the narrowest the
    rule accepts, then ``unread`` groups of 8 columns and ``tail`` columns
    that no piece computes: each piece, written into its columns of one
    output as ``matmul`` writes its halves, equals those columns of
    ``a @ b``."""
    least = -(-kernels.SPLIT // (8 * rows * depth)) * 8
    stops = list(itertools.accumulate(least + 8 * k for k in extra))
    ranges = list(zip([0] + stops[:-1], stops))
    width = stops[-1] + 8 * unread + tail
    assert kernels.cut_keeps_bits(rows, depth, width, pieces_of(ranges))
    rng = np.random.default_rng([rows, depth, width])
    a, b = rng.normal(size=(rows, depth)), rng.normal(size=(depth, width))
    got = np.zeros((rows, width))
    for c0, c1 in ranges:
        np.matmul(a, b[:, c0:c1], out=got[:, c0:c1])
    np.testing.assert_array_equal(got[:, :stops[-1]], (a @ b)[:, :stops[-1]])
