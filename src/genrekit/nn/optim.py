"""Deterministic SGD-with-momentum and Adam optimizers, updating in place.

A step cuts each parameter block into spans (``_spans``) and updates them
on the calling thread and the kernels pool's threads
(``kernels._run_groups``); each thread takes the next span whenever it is
free and works in its own slot of scratch buffers allocated once, one span
long, so a step allocates no temporaries the size of a parameter block.

An array's span is ``SPAN`` elements.  A dense weight's gradient is a
``FactoredGrad``, ``x.T @ dout`` kept as its two factors; its span is
``max(2, SPAN // width)`` whole rows, formed into the slot by one GEMM just
before they are updated, so no weight-sized gradient array exists.  A
one-row tail joins the span before it, which then holds at most ``SPAN +
width`` elements (three rows where the width exceeds ``SPAN / 2``): BLAS
forms a one-row product with gemv, which rounds differently.  The factors
are held without copying, so a caller that changes its batch in place
between backward and step changes the gradient.

``SPAN`` is 2^16 because an Adam update is ~13 numpy calls per span, and a
thread holds the interpreter lock between them: one Adam step on a
2048x2048 weight ran 0.7x as fast on two threads as on one over spans of
2^13 elements, 1.2-1.3x over 2^14 and 1.6-1.8x over 2^16 (2^15 to 2^18 all
gave 1.4-1.85x, 2^16 the shortest step; shared 2-core x86_64 VM, one BLAS
thread).

Each element sees the same floating-point operations, in the same order, as
the whole-array formulas in the docstrings, whatever the thread count.  A
span of rows equals those rows of the whole GEMM where the width is a
multiple of 8 and on every dense shape the benchmark trains; elsewhere
OpenBLAS may round the last ``width % 8`` columns differently, within the
dot-product error bound ``2 * batch * eps * (|x|.T @ |dout|)`` that the
tests check.
"""

import inspect
import itertools
import sys

import numpy as np

from .. import kernels
from ..errors import ConfigInvalid, ShapeMismatch

# 2^16 elements: what a thread updates each time it takes the next span
SPAN = 1 << 16


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


def _spans(grad):
    """Flat offsets that cut ``grad`` into the spans a step updates: SPAN
    elements of an array, or ``max(2, SPAN // width)`` whole rows of a
    factored gradient, each span formed by one GEMM.  A one-row tail joins
    the span before it, because BLAS forms a one-row product with gemv,
    which rounds differently from the whole GEMM."""
    if isinstance(grad, np.ndarray):
        return list(range(0, grad.size, SPAN)) + [grad.size]
    rows, width = grad.shape
    cuts = list(range(0, rows, max(2, SPAN // width)))
    if len(cuts) > 1 and rows - cuts[-1] == 1:
        cuts.pop()
    return [r * width for r in cuts] + [rows * width]


def _scratch(params_and_grads, n):
    """``n`` buffers of the largest span per thread a step may use."""
    cuts = [_spans(g) for _, g in params_and_grads]
    size = max((hi - lo for c in cuts for lo, hi in itertools.pairwise(c)), default=0)
    return np.empty((kernels._threads(sum(len(c) - 1 for c in cuts)), n, size))


def _walk(params_and_grads, scratch, update):
    """Call ``update(k, s, g, tmp)`` once for every span of every block k,
    on ``len(scratch)`` threads: ``s`` is the span's flat slice, ``g`` its
    gradient values and ``tmp`` the thread's scratch buffers but the first,
    which holds the gradient of a factored span."""
    tasks = [(k, lo, hi) for k, (_, grad) in enumerate(params_and_grads)
             for lo, hi in itertools.pairwise(_spans(grad))]

    def run(slot, i, _):
        k, lo, hi = tasks[i]
        grad = params_and_grads[k][1]
        buf = scratch[slot, :, :hi - lo]
        if isinstance(grad, np.ndarray):
            g = grad.reshape(-1)[lo:hi]
        else:
            g, width = buf[0], grad.shape[1]
            grad.rows(lo // width, hi // width, g.reshape(-1, width))
        update(k, slice(lo, hi), g, buf[1:])

    kernels._run_groups(len(tasks), 1, len(scratch), run)


def _checked(name, value, fraction=False):
    """``value`` if it is a finite number > 0, or in [0, 1) for a fraction;
    ConfigInvalid otherwise, since any other value trains NaN or divergent
    weights without an error."""
    # comparing keeps an int too large for a float from overflowing
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigInvalid(f"optimizer {name} must be a finite number, got {value!r}")
    if fraction and not 0 <= value < 1:
        raise ConfigInvalid(f"optimizer {name} must be in [0, 1), got {value!r}")
    if not fraction and not value > 0:
        raise ConfigInvalid(f"optimizer {name} must be > 0, got {value!r}")
    return value


class SGD:
    """``v = v*momentum + g; p -= lr*v``, with lr > 0 and momentum in [0, 1)."""

    def __init__(self, lr=1e-2, momentum=0.0):
        self.lr = _checked("lr", lr)
        self.momentum = _checked("momentum", momentum, fraction=True)
        self._velocity = None

    def step(self, params_and_grads):
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p, _ in params_and_grads]
            self._scratch = _scratch(params_and_grads, 2)
        _check_blocks(params_and_grads, len(self._velocity))

        def update(k, s, g, tmp):
            v = self._velocity[k].reshape(-1)[s]
            step = tmp[0]
            v *= self.momentum
            v += g
            np.multiply(v, self.lr, out=step)
            params_and_grads[k][0].reshape(-1)[s] -= step

        _walk(params_and_grads, self._scratch, update)


class Adam:
    """``m = m*b1 + (1-b1)*g; v = v*b2 + ((1-b2)*g)*g;
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``, with ``bc = 1 - b**t``, lr and
    eps > 0, and beta1 and beta2 in [0, 1)."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = _checked("lr", lr)
        self.beta1 = _checked("beta1", beta1, fraction=True)
        self.beta2 = _checked("beta2", beta2, fraction=True)
        self.eps = _checked("eps", eps)
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params_and_grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p, _ in params_and_grads]
            self._v = [np.zeros_like(p) for p, _ in params_and_grads]
            self._scratch = _scratch(params_and_grads, 3)
        _check_blocks(params_and_grads, len(self._m))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t

        def update(k, s, g, tmp):
            m, v = self._m[k].reshape(-1)[s], self._v[k].reshape(-1)[s]
            num, den = tmp
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
            params_and_grads[k][0].reshape(-1)[s] -= num

        _walk(params_and_grads, self._scratch, update)


def make_optimizer(config):
    """config: {"kind": "sgd"|"adam", ...hyperparameters}.  ConfigInvalid for
    an unknown kind or name; the class checks the values."""
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
    return cls(**hyper)
