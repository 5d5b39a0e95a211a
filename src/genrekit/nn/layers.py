"""Layer menu for the fixed-topology network engine.

Everything runs in double precision.  Convolution, pooling and the dense
products delegate to the kernels module.
"""

import numpy as np

from .. import kernels
from ..errors import ConfigInvalid, ShapeMismatch


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _xavier_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _stable_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Layer:
    """Stateless unless it owns parameters, but for one saved record.

    A train-mode forward saves the one record its backward reads
    (``_save``), an eval-mode forward clears it, and backward takes it
    (``_take``), so a backward without a fresh train-mode forward raises
    ``ConfigInvalid``.  The records: dense its input; conv2d its input and
    the fused pool's argmax; maxpool its argmax and input shape; relu its
    mask; sigmoid its output; dropout its mask (True where nothing is
    dropped); flatten its input shape.  A dense layer's input stays alive
    in its ``FactoredGrad``, which the optimizer step reads.

    A layer with parameters whose ``need_dx`` is False computes only its
    parameter gradients in ``backward`` and returns None.  ``ModelGraph``
    sets it on its lowest parameter layer, whose input gradient nothing
    reads, and drops the records below it, which no backward takes.
    """

    params = ()  # names of parameter attributes
    need_dx = True
    _record = None

    def spec(self):
        raise NotImplementedError

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def _save(self, train, record):
        self._record = record if train else None

    def _take(self):
        record, self._record = self._record, None
        if record is None:
            raise ConfigInvalid(
                f"{self.spec()['kind']} backward needs a forward with train=True first")
        return record


class FactoredGrad:
    """A dense layer's weight gradient ``x.T @ dout``, kept as its two
    factors so that no array the size of the weights is allocated for it.

    It holds the layer's saved input ``x`` and ``dout`` without copying
    them: a caller that changes its batch in place between backward and
    the optimizer step changes the gradient too.
    """

    def __init__(self, x, dout):
        self.x = x
        self.dout = dout
        self.shape = (x.shape[1], dout.shape[1])

    def rows(self, r0, r1, out):
        """Rows ``r0:r1`` of the gradient, written into ``out`` of shape
        ``(r1 - r0, width)``.  Which blocks of rows keep the whole product's
        bits is for ``nn.optim``'s spans to say (see its module docstring)."""
        return np.matmul(self.x[:, r0:r1].T, self.dout, out=out)


class Dense(Layer):
    """``backward`` leaves ``dw`` as a ``FactoredGrad`` of its saved input
    batch, which the optimizer step forms one span of rows at a time;
    changing the batch in place before the step changes the gradient.  ``x @ w`` and
    ``dout @ w.T`` go through ``kernels.matmul``, which runs a wide weight's
    two column halves on two threads where the cut rule allows."""

    params = ("w", "b")

    def __init__(self, in_dim, out_dim, rng, init="he"):
        if out_dim < 1:
            raise ConfigInvalid("dense out_dim must be >= 1")
        if init == "he":
            self.w = _he_uniform(rng, (in_dim, out_dim), in_dim)
        else:
            self.w = _xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.b = np.zeros(out_dim)
        self.dw = None
        self.db = None

    def spec(self):
        return {"kind": "dense", "out": self.w.shape[1]}

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ShapeMismatch(f"dense expects (B, {self.w.shape[0]}), got {x.shape}")
        self._save(train, x)
        out = kernels.matmul(x, self.w)
        out += self.b
        return out

    def backward(self, dout):
        self.dw = FactoredGrad(self._take(), dout)
        self.db = dout.sum(axis=0)
        return kernels.matmul(dout, self.w.T) if self.need_dx else None


class Conv2d(Layer):
    """``ModelGraph`` sets ``pool`` to the window of a maxpool layer that
    directly follows the conv, and sets that layer's ``fused``: the conv
    then runs the fused conv + max-pool kernel."""

    params = ("w", "b")
    pool = None

    def __init__(self, in_channels, n_filters, kh, kw, rng):
        if kh < 1 or kw < 1 or n_filters < 1:
            raise ConfigInvalid("conv2d dims must be >= 1")
        fan_in = in_channels * kh * kw
        self.w = _he_uniform(rng, (n_filters, in_channels, kh, kw), fan_in)
        self.b = np.zeros(n_filters)
        self.dw = None
        self.db = None

    def spec(self):
        f, _, kh, kw = self.w.shape
        return {"kind": "conv2d", "filters": f, "kh": kh, "kw": kw}

    def forward(self, x, train=False, rng=None):
        if x.ndim != 4 or x.shape[1] != self.w.shape[1]:
            raise ShapeMismatch(f"conv2d expects (B, {self.w.shape[1]}, H, W), got {x.shape}")
        x = np.ascontiguousarray(x)
        out, arg = kernels.conv2d_forward(x, self.w, self.b, pool=self.pool, need_arg=train)
        self._save(train, (x, arg))
        return out

    def backward(self, dout):
        x, arg = self._take()
        dx, self.dw, self.db = kernels.conv2d_backward(
            x, self.w, np.ascontiguousarray(dout), need_dx=self.need_dx,
            pool=self.pool, arg=arg)
        return dx


class MaxPool(Layer):
    """A ``fused`` pool passes values and gradients through unchanged: the
    conv before it has already pooled."""

    fused = False

    def __init__(self, ph, pw):
        if ph < 1 or pw < 1:
            raise ConfigInvalid("pool dims must be >= 1")
        self.ph = ph
        self.pw = pw

    def spec(self):
        return {"kind": "maxpool", "ph": self.ph, "pw": self.pw}

    def forward(self, x, train=False, rng=None):
        if self.fused:
            return x
        out, arg = kernels.maxpool_forward(x, self.ph, self.pw, need_arg=train)
        self._save(train, (arg, x.shape))
        return out

    def backward(self, dout):
        if self.fused:
            return dout
        arg, shape = self._take()
        return kernels.maxpool_backward(dout, arg, self.ph, self.pw, np.empty(shape))


class ReLU(Layer):
    def spec(self):
        return {"kind": "relu"}

    def forward(self, x, train=False, rng=None):
        mask = x > 0
        self._save(train, mask)
        return np.where(mask, x, 0.0)

    def backward(self, dout):
        return np.where(self._take(), dout, 0.0)


class Sigmoid(Layer):
    def spec(self):
        return {"kind": "sigmoid"}

    def forward(self, x, train=False, rng=None):
        y = _stable_sigmoid(x)
        self._save(train, y)
        return y

    def backward(self, dout):
        y = self._take()
        return dout * y * (1.0 - y)


class Dropout(Layer):
    """Inverted dropout: train-time activations scaled by 1/(1-rate)."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ConfigInvalid("dropout rate must be in [0, 1)")
        self.rate = rate

    def spec(self):
        return {"kind": "dropout", "rate": self.rate}

    def forward(self, x, train=False, rng=None):
        # the mask is True where nothing is dropped: at rate 0 or in eval mode
        drop = train and self.rate > 0.0
        if drop and rng is None:
            raise ConfigInvalid("train-mode dropout needs an rng")
        mask = rng.random(x.shape) >= self.rate if drop else True
        self._save(train, mask)
        return x if mask is True else x * mask / (1.0 - self.rate)

    def backward(self, dout):
        mask = self._take()
        return dout if mask is True else dout * mask / (1.0 - self.rate)


class Flatten(Layer):
    def spec(self):
        return {"kind": "flatten"}

    def forward(self, x, train=False, rng=None):
        self._save(train, x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._take())
