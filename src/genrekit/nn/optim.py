"""Deterministic SGD-with-momentum and Adam optimizers, updating in place.

Both walk each parameter block in blocks of about ``CHUNK`` elements through
scratch buffers allocated once, so a step allocates no temporaries the size
of a parameter block and its working set stays in cache.  A dense weight's
gradient is a ``FactoredGrad``, ``x.T @ dout`` kept as its two factors:
each block of its rows is formed into a scratch buffer just before those
rows are updated, so no weight-sized gradient array exists.  The factors
are held without copying, so a caller that changes its batch in place
between backward and step changes the gradient.

Each element sees the same floating-point operations, in the same order, as
the whole-array formulas in the docstrings.  A block of rows equals those
rows of the whole GEMM where the width is a multiple of 8 and on every
dense shape the benchmark trains; elsewhere OpenBLAS may round the last
``width % 8`` columns differently, within the dot-product error bound
``2 * batch * eps * (|x|.T @ |dout|)`` that the tests check.
"""

import inspect
import sys

import numpy as np

from ..errors import ConfigInvalid, ShapeMismatch

# 2^14 float64 = 128 KiB per array: the slices a block touches stay in L2
CHUNK = 1 << 14


def _check_blocks(params_and_grads, n_state):
    """Refuse the step before any block is touched: a block written through
    a flat view must be C-contiguous, or its update would land in a copy."""
    if n_state != len(params_and_grads):
        raise ShapeMismatch("optimizer state does not match parameter blocks")
    for p, g in params_and_grads:
        if p.shape != g.shape:
            raise ShapeMismatch(f"{p.shape} vs {g.shape}")
        if not p.flags.c_contiguous:
            raise ShapeMismatch(f"parameter block of shape {p.shape} is not C-contiguous")


def _bounds(grad):
    """Flat offsets that cut ``grad`` into the blocks a step walks: CHUNK
    elements of an array, or whole rows of a factored gradient.  A factored
    block holds at least two rows (a one-row tail joins the block before
    it), because BLAS forms a one-row product with gemv, which rounds
    differently from the whole GEMM."""
    if isinstance(grad, np.ndarray):
        return list(range(0, grad.size, CHUNK)) + [grad.size]
    rows, width = grad.shape
    cuts = list(range(0, rows, max(2, CHUNK // width)))
    if len(cuts) > 1 and rows - cuts[-1] == 1:
        cuts.pop()
    return [r * width for r in cuts] + [rows * width]


def _scratch_size(params_and_grads):
    """Elements in the largest block of any gradient."""
    return max((np.diff(_bounds(g)).max(initial=0) for _, g in params_and_grads), default=0)


def _walk(grad, scratch):
    """(flat slice, gradient values of that slice) for each block of
    ``grad``; a factored block is formed into ``scratch``."""
    bounds = _bounds(grad)
    if isinstance(grad, np.ndarray):
        gf = grad.reshape(-1)
        for lo, hi in zip(bounds, bounds[1:]):
            yield slice(lo, hi), gf[lo:hi]
        return
    width = grad.shape[1]
    for lo, hi in zip(bounds, bounds[1:]):
        g = scratch[:hi - lo]
        grad.rows(lo // width, hi // width, g.reshape(-1, width))
        yield slice(lo, hi), g


class SGD:
    """``v = v*momentum + g; p -= lr*v``."""

    def __init__(self, lr=1e-2, momentum=0.0):
        self.lr = lr
        self.momentum = momentum
        self._velocity = None

    def step(self, params_and_grads):
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p, _ in params_and_grads]
            n = _scratch_size(params_and_grads)
            self._grad, self._buf = np.empty(n), np.empty(n)
        _check_blocks(params_and_grads, len(self._velocity))
        for vel, (param, grad) in zip(self._velocity, params_and_grads):
            pf, vf = param.reshape(-1), vel.reshape(-1)
            for s, g in _walk(grad, self._grad):
                v = vf[s]
                step = self._buf[:v.size]
                v *= self.momentum
                v += g
                np.multiply(v, self.lr, out=step)
                pf[s] -= step


class Adam:
    """``m = m*b1 + (1-b1)*g; v = v*b2 + ((1-b2)*g)*g;
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``, with ``bc = 1 - b**t``."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params_and_grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p, _ in params_and_grads]
            self._v = [np.zeros_like(p) for p, _ in params_and_grads]
            n = _scratch_size(params_and_grads)
            self._grad, self._num, self._den = np.empty(n), np.empty(n), np.empty(n)
        _check_blocks(params_and_grads, len(self._m))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for mom, sq, (param, grad) in zip(self._m, self._v, params_and_grads):
            pf, mf, vf = param.reshape(-1), mom.reshape(-1), sq.reshape(-1)
            for s, g in _walk(grad, self._grad):
                m, v = mf[s], vf[s]
                num, den = self._num[:g.size], self._den[:g.size]
                m *= b1
                np.multiply(g, 1.0 - b1, out=num)
                m += num
                v *= b2
                np.multiply(g, 1.0 - b2, out=num)
                num *= g
                v += num
                np.divide(m, bc1, out=num)
                num *= self.lr
                np.divide(v, bc2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                num /= den
                pf[s] -= num


def make_optimizer(config):
    """config: {"kind": "sgd"|"adam", ...hyperparameters}.  ConfigInvalid for
    an unknown kind or name, a value that is not a finite real number, or
    an lr <= 0."""
    if not isinstance(config, dict):
        raise ConfigInvalid(f"optimizer must be an object, got {config!r}")
    hyper = dict(config)
    kind = hyper.pop("kind", "adam")
    if kind not in ("sgd", "adam"):
        raise ConfigInvalid(f"optimizer kind must be 'sgd' or 'adam', got {kind!r}")
    cls = SGD if kind == "sgd" else Adam
    unknown = set(hyper) - set(inspect.signature(cls).parameters)
    if unknown:
        raise ConfigInvalid(f"optimizer {kind!r} has no hyperparameters {sorted(unknown)}")
    for name, value in hyper.items():
        # comparing keeps an int too large for a float from overflowing
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigInvalid(f"optimizer {name} must be a finite number, got {value!r}")
    if hyper.get("lr", 1.0) <= 0:
        raise ConfigInvalid(f"optimizer lr must be > 0, got {hyper['lr']!r}")
    return cls(**hyper)
