"""Network graph: ordered layers plus a logistic or cosine output head,
with exact analytic gradients and a finite-difference checker.
"""

import json
import math

import numpy as np

from .. import binfile
from ..errors import BadModelHeader, ConfigError, ConfigInvalid, ShapeMismatch
from .layers import (
    Conv2d, Dense, Dropout, FactoredGrad, Flatten, MaxPool, ReLU, Sigmoid, _stable_sigmoid)

BCE_CLAMP = 1e-7
COSINE_EPS = 1e-12


def loss_logistic(probs, targets):
    """Mean binary cross-entropy over batch and labels; probs clamped."""
    if probs.shape != targets.shape:
        raise ShapeMismatch(f"{probs.shape} vs {targets.shape}")
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def loss_cosine(outputs, targets):
    """Mean negative cosine similarity per row; output norms epsilon-guarded."""
    if outputs.shape != targets.shape:
        raise ShapeMismatch(f"{outputs.shape} vs {targets.shape}")
    on = np.maximum(np.linalg.norm(outputs, axis=1), COSINE_EPS)
    tn = np.maximum(np.linalg.norm(targets, axis=1), COSINE_EPS)
    cos = (outputs * targets).sum(axis=1) / (on * tn)
    return float(-cos.mean())


def _cosine_grad(outputs, targets):
    b = outputs.shape[0]
    on = np.maximum(np.linalg.norm(outputs, axis=1, keepdims=True), COSINE_EPS)
    tn = np.maximum(np.linalg.norm(targets, axis=1, keepdims=True), COSINE_EPS)
    cos = ((outputs * targets).sum(axis=1, keepdims=True)) / (on * tn)
    return -(targets / (on * tn) - cos * outputs / (on * on)) / b


# integer fields each layer kind needs; other kinds need none
_INT_FIELDS = {"dense": ("out",), "conv2d": ("filters", "kh", "kw"), "maxpool": ("ph", "pw")}


def _int_field(spec, key, what):
    value = spec.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigInvalid(f"{what} needs an integer {key!r}, got {value!r}")
    return int(value)


def _layer_shapes(spec, in_shape):
    """Check one layer spec against its input shape without allocating.
    Returns (its integer fields, its parameter shapes, its output shape)."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ConfigInvalid(f"layer spec must be an object with a 'kind', got {spec!r}")
    kind = spec["kind"]
    dims = [_int_field(spec, key, f"{kind} layer") for key in _INT_FIELDS.get(kind, ())]
    if any(n < 1 for n in dims):
        raise ConfigInvalid(f"{kind} layer sizes must be >= 1, got {dims}")
    if kind == "dense":
        if len(in_shape) != 1:
            raise ConfigInvalid("dense needs a flat input; add a flatten layer")
        return dims, [(in_shape[0], dims[0]), (dims[0],)], (dims[0],)
    if kind in ("conv2d", "maxpool"):
        if len(in_shape) != 3:
            raise ConfigInvalid(f"{kind} needs (C, H, W) input")
        c, h, w = in_shape
        kh, kw = dims[-2:]
        if kh > h or kw > w:
            raise ShapeMismatch(f"{kind} window ({kh},{kw}) larger than input ({h},{w})")
        if kind == "maxpool":
            return dims, [], (c, h // kh, w // kw)
        return dims, [(dims[0], c, kh, kw), (dims[0],)], (dims[0], h - kh + 1, w - kw + 1)
    if kind == "dropout":
        rate = spec.get("rate")
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate < 1:
            raise ConfigInvalid(f"dropout layer needs a 'rate' in [0, 1), got {rate!r}")
    elif kind == "flatten":
        return dims, [], (math.prod(in_shape),)
    elif kind not in ("relu", "sigmoid"):
        raise ConfigInvalid(f"unknown layer kind {kind!r}")
    return dims, [], in_shape


def _plan(input_shape, specs, head):
    """Check a whole graph description without allocating: one
    (spec, integer fields, input shape, parameter shapes) per layer, the
    head's dense layer last."""
    if not isinstance(head, dict) or head.get("kind") not in ("logistic", "cosine"):
        raise ConfigInvalid(f"head must have kind 'logistic' or 'cosine', got {head!r}")
    if _int_field(head, "dim", "head") < 1:
        raise ConfigInvalid("head dim must be >= 1")
    if not isinstance(specs, (list, tuple)):
        raise ConfigInvalid(f"layer specs must be a list, got {specs!r}")
    plan = []
    shape = tuple(input_shape)
    for spec in specs:
        dims, params, out = _layer_shapes(spec, shape)
        plan.append((spec, dims, shape, params))
        shape = out
    if len(shape) != 1:
        raise ConfigInvalid("head needs a flat input; add a flatten layer")
    head_spec = {"kind": "dense", "out": head["dim"], "init": "xavier"}
    dims, params, _ = _layer_shapes(head_spec, shape)
    return plan + [(head_spec, dims, shape, params)]


def _build_layer(spec, dims, in_shape, rng):
    kind = spec["kind"]
    if kind == "dense":
        return Dense(in_shape[0], dims[0], rng, init=spec.get("init", "he"))
    if kind == "conv2d":
        return Conv2d(in_shape[0], *dims, rng)
    if kind == "maxpool":
        return MaxPool(*dims)
    if kind == "dropout":
        return Dropout(spec["rate"])
    return {"relu": ReLU, "sigmoid": Sigmoid, "flatten": Flatten}[kind]()


class ModelGraph:
    """Fixed layer stack ending in a dense head.

    head = {"kind": "logistic" | "cosine", "dim": int}.  The logistic head
    applies a sigmoid after its dense layer and trains with binary
    cross-entropy; the cosine head is linear and trains with negative
    cosine similarity against unit-norm factor targets.
    """

    def __init__(self, input_shape, specs, head, seed):
        plan = _plan(input_shape, specs, head)
        self.input_shape = tuple(input_shape)
        self.head = dict(head)
        self.seed = seed
        rng = np.random.default_rng(seed)
        *self.layers, self.head_dense = [
            _build_layer(spec, dims, shape, rng) for spec, dims, shape, _ in plan]
        self.feature_dim = plan[-1][2][0]
        # a conv directly followed by a max-pool runs both as one kernel
        for conv, pool in zip(self.layers, self.layers[1:]):
            if isinstance(conv, Conv2d) and isinstance(pool, MaxPool):
                conv.pool = (pool.ph, pool.pw)
                pool.fused = True
        # backward stops at the lowest layer with parameters (the head at
        # the latest): no caller reads the input gradient below it
        stack = self.layers + [self.head_dense]
        self._bottom = next(i for i, layer in enumerate(stack) if layer.params)
        stack[self._bottom].need_dx = False

    # ------------------------------------------------------------ execution

    def features(self, x, train=False, rng=None):
        """Penultimate activations of ``x``: the input to the head dense layer."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatch(f"expected batch of {self.input_shape}, got {x.shape}")
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def forward(self, x, train=False, rng=None):
        z = self.head_dense.forward(self.features(x, train, rng), train=train, rng=rng)
        return _stable_sigmoid(z) if self.head["kind"] == "logistic" else z

    def loss(self, output, targets):
        if self.head["kind"] == "logistic":
            return loss_logistic(output, targets)
        return loss_cosine(output, targets)

    def loss_grad(self, out, targets):
        """Loss at a forward's output ``out`` and its gradient w.r.t. the
        head dense output."""
        loss = self.loss(out, targets)
        if self.head["kind"] == "logistic":
            dz = (out - targets) / out.size
        else:
            dz = _cosine_grad(out, targets)
        return loss, dz

    def backward(self, dz):
        """Parameter gradients of the last train-mode forward, given the loss
        gradient w.r.t. the head dense output.  Returns nothing."""
        dx = self.head_dense.backward(dz)
        for layer in reversed(self.layers[self._bottom:]):
            dx = layer.backward(dx)

    # ----------------------------------------------------------- parameters

    def param_blocks(self):
        """Ordered (name, layer, attr) triples for every parameter tensor."""
        blocks = []
        for i, layer in enumerate(self.layers):
            for attr in layer.params:
                blocks.append((f"layer{i}.{attr}", layer, attr))
        for attr in self.head_dense.params:
            blocks.append((f"head.{attr}", self.head_dense, attr))
        return blocks

    def n_params(self):
        return sum(getattr(layer, attr).size for _, layer, attr in self.param_blocks())

    def get_params(self):
        return [getattr(layer, attr).copy() for _, layer, attr in self.param_blocks()]

    def set_params(self, arrays):
        blocks = self.param_blocks()
        if len(arrays) != len(blocks):
            raise ShapeMismatch("parameter block count mismatch")
        for (_, layer, attr), arr in zip(blocks, arrays):
            cur = getattr(layer, attr)
            if cur.shape != arr.shape:
                raise ShapeMismatch(f"{attr}: {cur.shape} vs {arr.shape}")
            cur[...] = arr

    def grads(self):
        """The gradients of the last backward as arrays, each formed whole."""
        grads = [getattr(layer, "d" + attr) for _, layer, attr in self.param_blocks()]
        return [g.rows(0, g.shape[0], np.empty(g.shape)) if isinstance(g, FactoredGrad) else g
                for g in grads]

    def params_and_grads(self):
        """(parameter, gradient) pairs for an optimizer step; a dense weight
        gradient is a ``FactoredGrad`` of its layer's saved input."""
        return [(getattr(layer, attr), getattr(layer, "d" + attr))
                for _, layer, attr in self.param_blocks()]


def grad_check(model, x, targets, step=1e-4, tolerance=1e-4,
               max_coords_per_block=10, seed=0):
    """Central finite differences against analytic gradients.

    Relative error per coordinate: |a - n| / max(1e-8, |a| + |n|).
    Every forward pass gets a fresh generator seeded with `seed`, so every
    pass draws the same dropout masks.
    """
    out = model.forward(x, train=True, rng=np.random.default_rng(seed))
    _, dz = model.loss_grad(out, targets)
    model.backward(dz)
    analytic = [g.copy() for g in model.grads()]

    def frozen_loss():
        out = model.forward(x, train=True, rng=np.random.default_rng(seed))
        return model.loss(out, targets)

    coord_rng = np.random.default_rng(seed + 1)
    report = {}
    for (name, layer, attr), grad in zip(model.param_blocks(), analytic):
        param = getattr(layer, attr)
        flat = param.reshape(-1)
        n = flat.size
        idx = (np.arange(n) if n <= max_coords_per_block
               else coord_rng.choice(n, size=max_coords_per_block, replace=False))
        worst = 0.0
        for k in idx:
            orig = flat[k]
            flat[k] = orig + step
            lp = frozen_loss()
            flat[k] = orig - step
            lm = frozen_loss()
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = grad.reshape(-1)[k]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
        report[name] = {"max_rel_err": worst, "passed": worst < tolerance}
    report["__all__"] = all(v["passed"] for k, v in report.items() if k != "__all__")
    return report


# ------------------------------------------------------------- serialization

MODEL_MAGIC = b"MUNN"
HEADER_KEYS = frozenset(("input_shape", "specs", "head", "seed"))


def _header(model):
    return json.dumps({
        "input_shape": list(model.input_shape),
        "specs": [layer.spec() for layer in model.layers],
        "head": model.head,
        "seed": model.seed,
    }, sort_keys=True)


def save_model(model, path):
    """The JSON header as one string, then every parameter block as f64."""
    params = [np.asarray(getattr(layer, attr), "<f8") for _, layer, attr in model.param_blocks()]
    binfile.write(path, MODEL_MAGIC, *binfile.strings([_header(model)]), *params)


def _read_header(text):
    """(input_shape, specs, head), seed and the plan of the graph a
    checkpoint header declares; ConfigError if it declares no valid graph."""
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise ConfigInvalid(f"model header is not JSON: {exc}") from exc
    missing = HEADER_KEYS.difference(header) if isinstance(header, dict) else HEADER_KEYS
    if missing:
        raise ConfigInvalid(f"model header lacks {sorted(missing)}")
    shape = header["input_shape"]
    if not isinstance(shape, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in shape):
        raise ConfigInvalid(f"input_shape must be positive integers, got {shape!r}")
    if _int_field(header, "seed", "model header") < 0:
        raise ConfigInvalid("seed must be >= 0")
    args = (tuple(shape), header["specs"], header["head"])
    return args, header["seed"], _plan(*args)


def load_model(path, into=None):
    """The model a checkpoint holds, or, given ``into``, that model with the
    checkpoint's parameters written into its own arrays; the header must
    then be the one ``save_model`` writes for ``into``.  The payload must
    hold exactly the parameters the header declares; that is checked, and
    every block checked finite through a bounded buffer, before any weight
    is allocated or written, and then each block is read straight into its
    parameter array.  A header that declares no valid graph, or not
    ``into``'s, is a ``BadModelHeader``: a corrupt checkpoint is input data
    (``DataError``), not configuration."""
    with binfile.reader(path, MODEL_MAGIC) as frame:
        text = frame.strings(1)[0]
        try:
            args, seed, plan = _read_header(text)
        except ConfigError as exc:
            raise BadModelHeader(f"{path}: {exc}") from exc
        if into is not None and text != _header(into):
            raise BadModelHeader(f"{path}: the header is not the model's own")
        frame.check("<f8", [block for *_, blocks in plan for block in blocks])
        frame.end()
        model = into if into is not None else ModelGraph(*args, seed)
        frame.fill([getattr(layer, attr) for _, layer, attr in model.param_blocks()])
    return model
