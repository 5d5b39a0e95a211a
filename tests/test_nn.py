import itertools
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernels import workers

from genrekit import kernels
from genrekit.errors import BadModelHeader, ConfigInvalid, DataError, ShapeMismatch, TruncatedFile
from genrekit.nn import (
    Adam,
    Dense,
    ModelGraph,
    SGD,
    grad_check,
    load_model,
    loss_cosine,
    loss_logistic,
    make_optimizer,
    save_model,
)
from genrekit.nn.layers import Conv2d, Dropout, FactoredGrad, Flatten, MaxPool, ReLU, Sigmoid
from genrekit.nn.model import _cosine_grad, _stable_sigmoid
from genrekit.nn.optim import SPAN, _spans


def small_mlp(head="logistic", seed=0, in_dim=6, out=4):
    specs = [{"kind": "dense", "out": 8}, {"kind": "relu"}]
    return ModelGraph((in_dim,), specs, {"kind": head, "dim": out}, seed)


# -------------------------------------------------------------------- losses

def test_logistic_loss_known_value():
    p = np.array([[0.5, 0.5]])
    y = np.array([[1.0, 0.0]])
    assert loss_logistic(p, y) == pytest.approx(np.log(2.0))


def test_logistic_loss_clamps_extremes():
    p = np.array([[0.0, 1.0]])
    y = np.array([[1.0, 0.0]])
    assert loss_logistic(p, y) == pytest.approx(-np.log(1e-7), rel=1e-6)
    assert np.isfinite(loss_logistic(p, y))


def test_cosine_loss_aligned_and_opposed():
    a = np.array([[1.0, 0.0]])
    assert loss_cosine(a, a * 3) == pytest.approx(-1.0)
    assert loss_cosine(a, -a) == pytest.approx(1.0)
    assert loss_cosine(a, np.array([[0.0, 1.0]])) == pytest.approx(0.0)


def test_cosine_loss_zero_output_guarded():
    out = np.zeros((1, 3))
    tgt = np.ones((1, 3))
    assert np.isfinite(loss_cosine(out, tgt))


def test_cosine_grad_orthogonal_to_scaling_direction():
    """d(cos)/d(output) has no component along the output vector when the
    output already points at the target."""
    rng = np.random.default_rng(0)
    t = rng.normal(size=(1, 5))
    out = 2.7 * t
    g = _cosine_grad(out, t)
    assert float(out.reshape(-1) @ g.reshape(-1)) == pytest.approx(0.0, abs=1e-12)


def test_stable_sigmoid_no_overflow():
    z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    with np.errstate(over="raise"):
        y = _stable_sigmoid(z)
    np.testing.assert_allclose(y[2], 0.5)
    assert (y >= 0).all() and (y <= 1).all()


# ---------------------------------------------------------- analytic oracles

def test_logistic_head_gradient_closed_form():
    """With no hidden layers the head weight gradient is x^T (p - y) / size."""
    rng = np.random.default_rng(1)
    model = ModelGraph((5,), [], {"kind": "logistic", "dim": 3}, seed=2)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 2, size=(4, 3)).astype(float)
    p = model.forward(x, train=True)
    _, dz = model.loss_grad(p, y)
    model.backward(dz)
    dw = model.grads()[0]
    np.testing.assert_allclose(dw, x.T @ (p - y) / p.size, atol=1e-12)
    np.testing.assert_allclose(model.head_dense.db, ((p - y) / p.size).sum(0),
                               atol=1e-12)


def test_adam_first_step_closed_form():
    """After one step with gradient g, Adam moves by lr * sign-like factor
    g / (|g| + eps) regardless of magnitude."""
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([10.0, -0.001, 2.0])
    opt = Adam(lr=0.5)
    opt.step([(p, g)])
    expect = np.array([1.0, -2.0, 3.0]) - 0.5 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, expect, rtol=1e-9)


def test_sgd_momentum_two_steps():
    p = np.array([0.0])
    g = np.array([1.0])
    opt = SGD(lr=0.1, momentum=0.9)
    opt.step([(p, g)])
    assert p[0] == pytest.approx(-0.1)
    opt.step([(p, g)])
    # velocity is 0.9*1 + 1 = 1.9
    assert p[0] == pytest.approx(-0.1 - 0.19)


def test_make_optimizer_dispatch():
    assert isinstance(make_optimizer({"kind": "sgd", "lr": 0.1}), SGD)
    assert isinstance(make_optimizer({"kind": "adam"}), Adam)
    with pytest.raises(ConfigInvalid):
        make_optimizer({"kind": "nope"})


@pytest.mark.parametrize("config", [
    {"kind": "adam", "eps": 0}, {"kind": "adam", "eps": -1e-8},
    {"kind": "adam", "beta1": 1.0}, {"kind": "adam", "beta1": -1.0},
    {"kind": "adam", "beta2": 1}, {"kind": "adam", "beta2": -0.5},
    {"kind": "sgd", "momentum": 1.0}, {"kind": "sgd", "momentum": -0.1},
    {"kind": "sgd", "momentum": 1.5}, {"kind": "sgd", "lr": 0},
    {"kind": "adam", "lr": -1e-3}, {"kind": "adam", "eps": float("nan")},
    {"kind": "sgd", "lr": float("inf")}, {"kind": "adam", "beta2": True},
    {"kind": "sgd", "momentum": "0.9"},
], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_make_optimizer_refuses_values_that_train_nan(config):
    """Each of these values turned weights into NaN without an error.  The
    classes refuse them themselves, so a direct construction is refused too."""
    hyper = dict(config)
    cls = SGD if hyper.pop("kind") == "sgd" else Adam
    name = next(iter(hyper))
    with pytest.raises(ConfigInvalid, match=name):
        make_optimizer(config)
    with pytest.raises(ConfigInvalid, match=name):
        cls(**hyper)


def test_make_optimizer_accepts_the_closed_ends():
    opt = make_optimizer({"kind": "adam", "beta1": 0, "beta2": 0.0, "eps": 1e-300})
    assert (opt.beta1, opt.beta2, opt.eps) == (0, 0.0, 1e-300)
    assert make_optimizer({"kind": "sgd", "momentum": 0}).momentum == 0


def reference_sgd(params, grads, velocity, lr, momentum):
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


def reference_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, mb, vb in zip(params, grads, m, v):
        mb *= beta1
        mb += (1.0 - beta1) * g
        vb *= beta2
        vb += (1.0 - beta2) * g * g
        p -= lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_chunked_optimizers_match_whole_array_formulas(kind):
    """Blocks shorter than, equal to and not a multiple of the span size
    end bit-identical to the whole-array update after three steps."""
    rng = np.random.default_rng(21)
    shapes = [(1,), (SPAN,), (2 * SPAN + 3,), (3, 5)]
    params = [rng.normal(size=s) for s in shapes]
    expect = [p.copy() for p in params]
    state = [[np.zeros(s) for s in shapes] for _ in range(2)]
    if kind == "sgd":
        opt = SGD(lr=0.05, momentum=0.9)
    else:
        opt = Adam(lr=3e-3)
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        opt.step(list(zip(params, grads)))
        if kind == "sgd":
            reference_sgd(expect, grads, state[0], 0.05, 0.9)
        else:
            reference_adam(expect, grads, state[0], state[1], t, 3e-3)
    for got, want in zip(params, expect):
        np.testing.assert_array_equal(got, want)


# (in_dim, width) of every dense layer the benchmark trains: the text MLP
# (vsm+sem input, two 2048-unit layers, 15-dim cosine head) and the audio
# CNN's feature layer and 9-label head
BENCH_DENSE_SHAPES = [(122, 2048), (2048, 2048), (2048, 15), (64, 512), (512, 9)]


def _blocked(grad):
    """The whole gradient assembled from the spans of rows an optimizer walks."""
    out = np.empty(grad.shape)
    bounds = [b // grad.shape[1] for b in _spans(grad)]
    for r0, r1 in zip(bounds, bounds[1:]):
        assert r1 - r0 >= 2 or grad.shape[0] == 1, "one-row span: BLAS would use gemv"
        grad.rows(r0, r1, out[r0:r1])
    return out


@st.composite
def factored_cases(draw):
    # a span holds SPAN // width rows: widths from 5, and batches up to 32
    # above SPAN / 2, keep every example under ~29 MB
    width = draw(st.one_of(st.integers(5, 64),
                           st.sampled_from([255, 257, 2047, 2048, 2049,
                                            SPAN // 2 + 1, SPAN // 2 + 8])))
    rows_per_span = max(2, SPAN // width)
    # whole spans plus a tail of 0-3 rows, so one-row remainders occur
    in_dim = max(1, draw(st.integers(0, 2)) * rows_per_span + draw(st.integers(0, 3)))
    batch = draw(st.integers(1, 32 if width > SPAN // 2 else 64))
    return batch, in_dim, width, draw(st.integers(0, 2**31))


@settings(max_examples=150, deadline=None)
@given(factored_cases())
def test_factored_row_blocks_equal_the_whole_gemm(case):
    """Bit-identical where the width is a multiple of 8.  Elsewhere OpenBLAS
    may round the last ``width % 8`` columns of a span of rows differently from
    the whole product; both sums then lie within the dot-product error
    bound, so they differ by at most ``2 * batch * eps * (|x|.T @ |dout|)``."""
    batch, in_dim, width, seed = case
    rng = np.random.default_rng(seed)
    x, dout = rng.normal(size=(batch, in_dim)), rng.normal(size=(batch, width))
    got, want = _blocked(FactoredGrad(x, dout)), x.T @ dout
    if width % 8 == 0:
        np.testing.assert_array_equal(got, want)
    else:
        bound = 2 * batch * np.finfo(float).eps * (np.abs(x).T @ np.abs(dout))
        assert (np.abs(got - want) <= bound).all()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BENCH_DENSE_SHAPES), st.integers(1, 64), st.integers(0, 2**31))
def test_factored_row_blocks_are_bit_identical_on_the_benchmark_shapes(shape, batch, seed):
    rng = np.random.default_rng(seed)
    x, dout = rng.normal(size=(batch, shape[0])), rng.normal(size=(batch, shape[1]))
    np.testing.assert_array_equal(_blocked(FactoredGrad(x, dout)), x.T @ dout)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_factored_steps_match_materialized_gradients(kind):
    """Three steps on an MLP whose first weight walks two spans of rows and
    a folded one-row tail (65 rows of width 2048) end bit-identical to the
    whole-array formulas applied to gradients formed by one GEMM each."""
    specs = [{"kind": "dense", "out": 2048}, {"kind": "relu"},
             {"kind": "dense", "out": 24}, {"kind": "relu"}]
    model = ModelGraph((65,), specs, {"kind": "cosine", "dim": 5}, seed=4)
    expect = model.get_params()
    state = [[np.zeros_like(p) for p in expect] for _ in range(2)]
    opt = SGD(lr=0.05, momentum=0.9) if kind == "sgd" else Adam(lr=3e-3)
    rng = np.random.default_rng(8)
    for t in range(1, 4):
        model.set_params(expect)
        out = model.forward(rng.normal(size=(16, 65)), train=True)
        _, dz = model.loss_grad(out, rng.normal(size=(16, 5)))
        model.backward(dz)
        grads = model.grads()
        opt.step(model.params_and_grads())
        if kind == "sgd":
            reference_sgd(expect, grads, state[0], 0.05, 0.9)
        else:
            reference_adam(expect, grads, state[0], state[1], t, 3e-3)
        for got, want in zip(model.get_params(), expect):
            np.testing.assert_array_equal(got, want)


def test_dense_backward_and_adam_step_allocate_no_weight_gradient():
    """Beyond Adam's two moments, backward plus a step of a 2048x2048 layer
    on one or two threads allocates less than a quarter of the weights: no
    ``dw`` array exists, and each thread's scratch is one span of three
    buffers."""
    rng = np.random.default_rng(21)
    layer = Dense(2048, 2048, rng)
    x, dout = rng.normal(size=(32, 2048)), rng.normal(size=(32, 2048))
    for n in (1, 2):
        opt = Adam()
        with workers(n):
            layer.forward(x, train=True)
            tracemalloc.start()
            try:
                layer.backward(dout)
                opt.step([(layer.w, layer.dw), (layer.b, layer.db)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert opt._scratch.shape == (n, 3, SPAN)
        moments = 2 * (layer.w.nbytes + layer.b.nbytes)
        assert peak - moments < layer.w.nbytes / 4


def test_a_step_forms_each_factored_span_with_one_gemm(monkeypatch):
    """One ``rows`` call per span: 32 rows of width 2048, and a one-row tail
    that joins the last span."""
    calls, rows = [], FactoredGrad.rows

    def counted(self, r0, r1, out):
        calls.append((r0, r1))
        return rows(self, r0, r1, out)

    monkeypatch.setattr(FactoredGrad, "rows", counted)
    rng = np.random.default_rng(3)
    grad = FactoredGrad(rng.normal(size=(4, 65)), rng.normal(size=(4, 2048)))
    Adam().step([(np.zeros(grad.shape), grad)])
    assert sorted(calls) == [(0, 32), (32, 65)]


@st.composite
def step_cases(draw):
    width = draw(st.sampled_from([15, 255, 2048, SPAN // 2 + 1]))
    # 1-2 spans, and with a one-row tail that joins the last span
    rows = draw(st.integers(1, 2)) * max(2, SPAN // width) + draw(st.integers(0, 1))
    return (draw(st.sampled_from(["sgd", "adam"])), draw(st.integers(1, 16)), rows, width,
            draw(st.integers(0, 2**31)))


def stepped_params(kind, batch, rows, width, seed):
    """Parameters after two steps of a fresh optimizer on a factored weight
    gradient, an ndarray gradient of the same shape and a bias gradient."""
    rng = np.random.default_rng(seed)
    params = [rng.normal(size=(rows, width)) for _ in range(2)] + [rng.normal(size=width)]
    opt = SGD(lr=0.05, momentum=0.9) if kind == "sgd" else Adam(lr=3e-3)
    for _ in range(2):
        x, dout = rng.normal(size=(batch, rows)), rng.normal(size=(batch, width))
        grads = [FactoredGrad(x, dout), rng.normal(size=(rows, width)), dout.sum(axis=0)]
        opt.step(list(zip(params, grads)))
    return params


@settings(max_examples=40, deadline=None)
@given(step_cases())
def test_optimizer_steps_do_not_depend_on_the_worker_count(case):
    """Spans updated on 1, 2 or 3 threads give the same bits: each element's
    update and each factored span's GEMM are the same on any thread."""
    with workers(1):
        want = stepped_params(*case)
    for n in (2, 3):
        with workers(n):
            for got, expect in zip(stepped_params(*case), want, strict=True):
                np.testing.assert_array_equal(got, expect)


def test_optimizer_steps_under_fast_thread_switching():
    """More threads than this machine may have cores, switching as often as
    the interpreter allows: a lost or doubled span update would change a bit."""
    case = ("adam", 8, 9 * 8 + 1, 2048, 23)
    with workers(1):
        want = stepped_params(*case)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(3):
            for _ in range(3):
                for got, expect in zip(stepped_params(*case), want, strict=True):
                    np.testing.assert_array_equal(got, expect)
    finally:
        sys.setswitchinterval(interval)


def test_wide_dense_products_do_not_depend_on_the_worker_count():
    """A 2048x2048 layer's ``x @ w`` and ``dout @ w.T`` run as two column
    halves on two threads equal the one-thread products at batches 1-64."""
    rng = np.random.default_rng(24)
    layer = Dense(2048, 2048, rng)
    layer.b = rng.normal(size=2048)
    assert layer.w.size >= kernels.SPLIT
    for batch in range(1, 65):
        x, dout = rng.normal(size=(batch, 2048)), rng.normal(size=(batch, 2048))
        with workers(1):
            want = layer.forward(x, train=True), layer.backward(dout)
        with workers(2):
            got = layer.forward(x, train=True), layer.backward(dout)
            assert kernels._pool is not None
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("opt", [SGD(lr=0.1), Adam(lr=0.1)], ids=["sgd", "adam"])
def test_optimizers_refuse_non_contiguous_parameters(opt):
    """A strided block would be updated through a copy and lose the step;
    the step is refused before any block changes."""
    first = np.ones(4)
    strided = np.ones((4, 6))[:, ::2]
    pairs = [(first, np.ones(4)), (strided, np.ones(strided.shape))]
    with pytest.raises(ShapeMismatch):
        opt.step(pairs)
    np.testing.assert_array_equal(first, np.ones(4))


# --------------------------------------------------------------- grad checks

@pytest.mark.parametrize("head", ["logistic", "cosine"])
def test_grad_check_mlp(head):
    rng = np.random.default_rng(3)
    model = small_mlp(head=head)
    x = rng.normal(size=(5, 6))
    if head == "logistic":
        y = rng.integers(0, 2, size=(5, 4)).astype(float)
    else:
        y = rng.normal(size=(5, 4))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
    report = grad_check(model, x, y)
    assert report["__all__"], report


def test_grad_check_conv_pool_dropout():
    rng = np.random.default_rng(4)
    specs = [
        {"kind": "conv2d", "filters": 3, "kh": 2, "kw": 2},
        {"kind": "relu"},
        {"kind": "maxpool", "ph": 2, "pw": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": 6},
        {"kind": "relu"},
        {"kind": "dropout", "rate": 0.4},
    ]
    model = ModelGraph((1, 6, 6), specs, {"kind": "logistic", "dim": 3}, seed=5)
    x = rng.normal(size=(4, 1, 6, 6))
    y = rng.integers(0, 2, size=(4, 3)).astype(float)
    report = grad_check(model, x, y)
    assert report["__all__"], report


def test_grad_check_sigmoid_layer():
    rng = np.random.default_rng(6)
    specs = [{"kind": "dense", "out": 5}, {"kind": "sigmoid"}]
    model = ModelGraph((4,), specs, {"kind": "cosine", "dim": 3}, seed=7)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    assert grad_check(model, x, y)["__all__"]


def conv_model():
    specs = [
        {"kind": "conv2d", "filters": 3, "kh": 2, "kw": 2},
        {"kind": "relu"},
        {"kind": "maxpool", "ph": 2, "pw": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": 6},
        {"kind": "relu"},
        {"kind": "dropout", "rate": 0.4},
    ]
    return ModelGraph((1, 6, 6), specs, {"kind": "logistic", "dim": 3}, seed=5)


def shallow_dropout_model():
    from genrekit.zoo import build_shallow
    return build_shallow(6, 3, "logistic", dropout=0.3, seed=5)


def full_backward(model, dz):
    """Every layer's backward, input gradients included, down to the input."""
    dx = dz
    for layer in [model.head_dense] + model.layers[::-1]:
        layer.need_dx = True
        dx = layer.backward(dx)


def _must_not_run(dout):
    raise AssertionError("backward ran below the lowest parameter layer")


@pytest.mark.parametrize("build", [conv_model, lambda: small_mlp(out=3),
                                   shallow_dropout_model],
                         ids=["conv", "mlp", "shallow-dropout"])
def test_backward_stops_at_lowest_parameter_layer(build):
    """Skipping the input gradient changes no parameter gradient by a bit."""
    fast, full = build(), build()
    shape = (4,) + fast.input_shape
    x = np.random.default_rng(8).normal(size=shape)
    y = np.random.default_rng(9).integers(0, 2, size=(4, 3)).astype(float)
    for layer in itertools.takewhile(lambda layer: not layer.params, fast.layers):
        layer.backward = _must_not_run
    grads = []
    for model, backward in ((fast, ModelGraph.backward), (full, full_backward)):
        out = model.forward(x, train=True, rng=np.random.default_rng(10))
        _, dz = model.loss_grad(out, y)
        backward(model, dz)
        grads.append(model.grads())
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------------- pooling

def two_stage_cnn(pool_first):
    """Two conv stages, each conv -> relu -> maxpool or conv -> maxpool -> relu."""
    specs = []
    for filters, pool in ((3, (2, 2)), (2, (1, 2))):
        stage = [{"kind": "relu"}, {"kind": "maxpool", "ph": pool[0], "pw": pool[1]}]
        specs.append({"kind": "conv2d", "filters": filters, "kh": 2, "kw": 2})
        specs.extend(stage[::-1] if pool_first else stage)
    specs += [{"kind": "flatten"}, {"kind": "dense", "out": 4}, {"kind": "relu"}]
    model = ModelGraph((1, 7, 9), specs, {"kind": "logistic", "dim": 3}, seed=11)
    params = model.get_params()
    # first stage: filter 0 never fires and filter 1 always does, so the
    # pools see all-zero (post-ReLU) windows and windows of exact ties
    params[1][:] = [-50.0, 50.0, 0.0]
    model.set_params(params)
    return model


def test_pool_before_relu_is_bit_identical():
    """Max-pooling commutes with ReLU, gradients included: outputs and every
    parameter gradient are equal to the bit."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 1, 7, 9))
    x[:, :, 2:6, 3:8] = 0.0  # conv output equals the bias there: tied windows
    y = rng.integers(0, 2, size=(5, 3)).astype(float)
    runs = []
    for model in (two_stage_cnn(False), two_stage_cnn(True)):
        out = model.forward(x, train=True, rng=np.random.default_rng(13))
        _, dz = model.loss_grad(out, y)
        model.backward(dz)
        runs.append((out, model.features(x), model.forward(x), model.grads()))
    (out_a, feat_a, eval_a, grads_a), (out_b, feat_b, eval_b, grads_b) = runs
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_array_equal(feat_a, feat_b)
    np.testing.assert_array_equal(eval_a, eval_b)
    assert (feat_a == 0).any() and (feat_a > 0).any()
    for got, want in zip(grads_b, grads_a):
        np.testing.assert_array_equal(got, want)
    assert any((g != 0).any() for g in grads_a[:2])


def test_maxpool_backward_after_eval_forward_raises():
    from genrekit.errors import GenrekitError
    from genrekit.nn.layers import MaxPool
    layer = MaxPool(2, 2)
    x = np.random.default_rng(14).normal(size=(1, 1, 4, 4))
    layer.forward(x, train=False)
    with pytest.raises(GenrekitError, match="train=True"):
        layer.backward(np.ones((1, 1, 2, 2)))
    layer.forward(x, train=True)
    layer.backward(np.ones((1, 1, 2, 2)))
    layer.forward(x, train=False)
    with pytest.raises(GenrekitError, match="train=True"):
        layer.backward(np.ones((1, 1, 2, 2)))


@pytest.mark.parametrize("pool_first", [True, False], ids=["fused", "unfused"])
def test_a_second_backward_raises(pool_first):
    """Conv, pool and ReLU layers drop what they cached once their backward
    has run: a second backward of one forward is refused, not computed from
    stale or missing state."""
    model = two_stage_cnn(pool_first)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 1, 7, 9))
    out = model.forward(x, train=True, rng=np.random.default_rng(19))
    _, dz = model.loss_grad(out, rng.integers(0, 2, size=(2, 3)).astype(float))
    model.backward(dz)
    with pytest.raises(ConfigInvalid, match="train=True"):
        model.backward(dz)


@pytest.mark.parametrize("make", [
    lambda rng: Conv2d(1, 2, 2, 2, rng), lambda rng: MaxPool(2, 2), lambda rng: ReLU(),
    lambda rng: Sigmoid(), lambda rng: Flatten()],
    ids=["conv2d", "maxpool", "relu", "sigmoid", "flatten"])
def test_caching_layer_backward_needs_a_fresh_train_forward(make):
    layer = make(np.random.default_rng(20))
    x = np.random.default_rng(21).normal(size=(1, 1, 4, 4))
    dout = np.ones(layer.forward(x).shape)
    with pytest.raises(ConfigInvalid, match="train=True"):
        layer.backward(dout)
    layer.forward(x, train=True)
    layer.backward(dout)
    with pytest.raises(ConfigInvalid, match="train=True"):
        layer.backward(dout)


def test_only_a_conv_directly_followed_by_a_pool_is_fused():
    fused, unfused = two_stage_cnn(True), two_stage_cnn(False)
    assert [layer.pool for layer in fused.layers[0:6:3]] == [(2, 2), (1, 2)]
    assert all(layer.fused for layer in fused.layers[1:6:3])
    assert [layer.pool for layer in unfused.layers[0:6:3]] == [None, None]
    assert not any(layer.fused for layer in unfused.layers[2:6:3])


def test_fused_conv_backward_after_eval_forward_raises():
    model = two_stage_cnn(pool_first=True)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 1, 7, 9))
    y = rng.integers(0, 2, size=(2, 3)).astype(float)
    model.forward(x, train=True, rng=np.random.default_rng(17))
    out = model.forward(x)
    _, dz = model.loss_grad(out, y)
    with pytest.raises(ConfigInvalid, match="train=True"):
        model.backward(dz)
    out = model.forward(x, train=True, rng=np.random.default_rng(17))
    _, dz = model.loss_grad(out, y)
    model.backward(dz)


def test_fused_model_checkpoint_keeps_the_unfused_layer_list(tmp_path):
    """Fusion is not saved: the header lists each conv2d and maxpool, as
    before fusion existed, and the loaded model predicts the same as the
    saved one and as the same weights run without fusion, to the bit."""
    model = two_stage_cnn(pool_first=True)
    path = tmp_path / "m.munn"
    save_model(model, path)
    loaded, unfused = load_model(path), load_model(path)
    for conv, pool in zip(unfused.layers[0:6:3], unfused.layers[1:6:3]):
        conv.pool, pool.fused = None, False
    specs = [{"kind": "conv2d", "filters": 3, "kh": 2, "kw": 2},
             {"kind": "maxpool", "ph": 2, "pw": 2}, {"kind": "relu"},
             {"kind": "conv2d", "filters": 2, "kh": 2, "kw": 2},
             {"kind": "maxpool", "ph": 1, "pw": 2}, {"kind": "relu"},
             {"kind": "flatten"}, {"kind": "dense", "out": 4}, {"kind": "relu"}]
    assert [layer.spec() for layer in loaded.layers] == specs
    x = np.random.default_rng(18).normal(size=(4, 1, 7, 9))
    x[:, :, 1:5, 2:7] = 0.0
    want = model.forward(x)
    np.testing.assert_array_equal(loaded.forward(x), want)
    np.testing.assert_array_equal(unfused.forward(x), want)


# ------------------------------------------------------------------- dropout

def test_dropout_eval_mode_is_identity():
    from genrekit.nn.layers import Dropout
    x = np.random.default_rng(8).normal(size=(3, 5))
    layer = Dropout(0.5)
    np.testing.assert_array_equal(layer.forward(x, train=False), x)


def test_dropout_expectation_within_two_percent():
    """Monte Carlo over 10^4 masks: inverted dropout preserves the mean."""
    from genrekit.nn.layers import Dropout
    rng = np.random.default_rng(9)
    layer = Dropout(0.3)
    x = np.ones((1, 50))
    total = np.zeros_like(x)
    for _ in range(10_000):
        total += layer.forward(x, train=True, rng=rng)
    mean = total / 10_000
    assert abs(mean.mean() - 1.0) < 0.02


def test_dropout_requires_rng_in_train():
    from genrekit.nn.layers import Dropout
    with pytest.raises(ConfigInvalid):
        Dropout(0.5).forward(np.ones((2, 2)), train=True, rng=None)


def test_shallow_model_backward_after_eval_forward_raises():
    """The model of the timbre, image and fusion rows: its head caches its
    input only in a train-mode forward, so a backward after an eval-mode
    forward is refused, not computed from the eval batch."""
    from genrekit.zoo import build_shallow
    model = build_shallow(6, 3, "logistic", dropout=0.5, seed=0)
    rng = np.random.default_rng(22)
    x, y = rng.normal(size=(4, 6)), rng.integers(0, 2, size=(4, 3)).astype(float)
    out = model.forward(x, train=False)
    _, dz = model.loss_grad(out, y)
    with pytest.raises(ConfigInvalid, match="train=True"):
        model.backward(dz)
    out = model.forward(x, train=True, rng=np.random.default_rng(23))
    _, dz = model.loss_grad(out, y)
    model.backward(dz)
    with pytest.raises(ConfigInvalid, match="train=True"):
        model.backward(dz)


@pytest.mark.parametrize("make", [
    lambda rng: Dense(4, 3, rng), lambda rng: Dropout(0.5), lambda rng: Dropout(0.0)],
    ids=["dense", "dropout", "dropout-rate-0"])
def test_dense_and_dropout_backward_need_a_fresh_train_forward(make):
    layer = make(np.random.default_rng(24))
    x = np.random.default_rng(25).normal(size=(2, 4))
    dout = np.ones(layer.forward(x).shape)
    with pytest.raises(ConfigInvalid, match="train=True"):
        layer.backward(dout)
    layer.forward(x, train=True, rng=np.random.default_rng(26))
    layer.backward(dout)
    with pytest.raises(ConfigInvalid, match="train=True"):
        layer.backward(dout)


def test_rate_0_dropout_passes_the_gradient_through():
    layer = Dropout(0.0)
    x, dout = np.ones((2, 3)), np.arange(6.0).reshape(2, 3)
    assert layer.forward(x, train=True) is x
    assert layer.backward(dout) is dout


# ------------------------------------------------------------- shape checks

def test_dense_shape_mismatch():
    model = small_mlp()
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((2, 7)))


def test_head_requires_flat_input():
    with pytest.raises(ConfigInvalid):
        ModelGraph((1, 4, 4), [], {"kind": "logistic", "dim": 2}, seed=0)


def test_unknown_head_rejected():
    with pytest.raises(ConfigInvalid):
        ModelGraph((3,), [], {"kind": "softmax", "dim": 2}, seed=0)


# ------------------------------------------------------------ serialization

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = small_mlp(head="cosine", seed=11)
    path = tmp_path / "m.munn"
    save_model(model, path)
    loaded = load_model(path)
    x = np.random.default_rng(12).normal(size=(3, 6))
    np.testing.assert_array_equal(model.forward(x), loaded.forward(x))
    for a, b in zip(model.get_params(), loaded.get_params()):
        assert (a == b).all()


def test_checkpoint_bad_magic(tmp_path):
    from genrekit.errors import BadMagic
    path = tmp_path / "bad.munn"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_model(path)


def test_checkpoint_truncated(tmp_path):
    from genrekit.errors import TruncatedFile
    model = small_mlp()
    path = tmp_path / "m.munn"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 16])
    with pytest.raises(TruncatedFile):
        load_model(path)


def test_checkpoint_header_cut_short(tmp_path):
    path = tmp_path / "m.munn"
    save_model(small_mlp(), path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(TruncatedFile):
        load_model(path)


def _write_header(path, blob):
    path.write_bytes(b"MUNN" + len(blob).to_bytes(4, "little") + blob)


def test_checkpoint_header_not_json(tmp_path):
    path = tmp_path / "m.munn"
    _write_header(path, b'{"head": {"kind": "log')
    with pytest.raises(BadModelHeader, match="m.munn: model header is not JSON"):
        load_model(path)


def test_checkpoint_header_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "m.munn"
    _write_header(path, b'{"head": "\xff"}')
    with pytest.raises(DataError, match="not UTF-8"):
        load_model(path)


@pytest.mark.parametrize("key", ["head", "specs", "input_shape", "seed"])
def test_checkpoint_header_missing_key(tmp_path, key):
    path = tmp_path / "m.munn"
    header = {"input_shape": [6], "specs": [], "head": {"kind": "logistic", "dim": 4},
              "seed": 0}
    del header[key]
    _write_header(path, json.dumps(header).encode("utf-8"))
    with pytest.raises(BadModelHeader, match="m.munn"):
        load_model(path)


@pytest.mark.parametrize("field,value", [
    pytest.param("specs", [{"kind": "dense"}], id="dense-lacks-out"),
    pytest.param("specs", [{"kind": "dense", "out": "4"}], id="dense-out-not-int"),
    pytest.param("specs", ["dense"], id="spec-not-object"),
    pytest.param("specs", "dense", id="specs-not-list"),
    pytest.param("head", {"dim": 4}, id="head-lacks-kind"),
    pytest.param("head", {"kind": "cosine", "dim": 2.5}, id="head-dim-not-int"),
    pytest.param("input_shape", 6, id="input-shape-not-list"),
    pytest.param("seed", "0", id="seed-not-int"),
    pytest.param("specs", [{"kind": "dropout", "rate": 1.5}], id="dropout-rate-out-of-range"),
])
def test_checkpoint_header_bad_field(tmp_path, field, value):
    path = tmp_path / "m.munn"
    header = {"input_shape": [6], "specs": [], "head": {"kind": "logistic", "dim": 4},
              "seed": 0, field: value}
    _write_header(path, json.dumps(header).encode("utf-8"))
    with pytest.raises(BadModelHeader, match="m.munn"):
        load_model(path)


def test_checkpoint_payload_must_match_header(tmp_path):
    path = tmp_path / "m.munn"
    save_model(small_mlp(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TruncatedFile):
        load_model(path)
    path.write_bytes(data + b"\x00" * 8)
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize("n", [2000, 10**6])
def test_checkpoint_huge_header_is_rejected_before_allocating(tmp_path, n):
    """A header declaring an n x n head with no payload behind it."""
    path = tmp_path / "m.munn"
    header = {"input_shape": [n], "specs": [], "head": {"kind": "logistic", "dim": n},
              "seed": 0}
    _write_header(path, json.dumps(header).encode("utf-8"))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFile):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda data: data[:-8] + np.array([np.nan]).tobytes(), id="nan-in-the-last-block"),
    pytest.param(lambda data: data + b"\x00", id="trailing-byte"),
    pytest.param(lambda data: data[:-1], id="truncated"),
])
def test_restore_writes_nothing_unless_the_whole_file_checks_out(tmp_path, corrupt):
    """A checkpoint of the model's own graph that fails only at its end
    leaves every parameter of the model as it was."""
    path = tmp_path / "m.munn"
    save_model(small_mlp(seed=5), path)
    path.write_bytes(corrupt(path.read_bytes()))
    model = small_mlp(seed=5)
    for _, layer, attr in model.param_blocks():
        getattr(layer, attr).fill(0.5)
    with pytest.raises(DataError):
        load_model(path, into=model)
    assert all((p == 0.5).all() for p in model.get_params())


def test_restoring_the_text_mlp_holds_no_weight_sized_buffer(tmp_path):
    """Restoring the text MLP's ~4.48M parameters (35.8 MB) into the model
    peaks under 4 MB: each block is checked finite through a bounded buffer
    and then read straight into its parameter array."""
    from genrekit.zoo import build_text_mlp
    model = build_text_mlp(16, "cosine", in_dim=122, seed=3)
    path = tmp_path / "m.munn"
    save_model(model, path)
    want = model.get_params()
    for _, layer, attr in model.param_blocks():
        getattr(layer, attr).fill(0.0)
    tracemalloc.start()
    try:
        assert load_model(path, into=model) is model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4.4e6 < model.n_params() < 4.5e6
    assert peak < 4_000_000
    for got, expect in zip(model.get_params(), want, strict=True):
        np.testing.assert_array_equal(got, expect)


# --------------------------------------------------------------- determinism

def test_training_steps_bit_deterministic():
    from genrekit.zoo import TrainConfig, train
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 6))
    y = rng.integers(0, 2, size=(20, 4)).astype(float)
    runs = []
    for _ in range(2):
        model = small_mlp(seed=14)
        train(model, x, y, config=TrainConfig(batch_size=8, epochs=3, seed=5))
        runs.append(model.get_params())
    for a, b in zip(*runs):
        assert (a == b).all()
