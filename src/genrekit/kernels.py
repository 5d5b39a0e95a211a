"""Hot numeric kernels: valid 2-D convolution and max-pooling.

Convolution is lowered to im2col + GEMM.  A group of samples is unrolled
into a column matrix, rows (c, i, j) and columns (sample, oh, ow), so that
forward, the weight gradient and the input gradient are one BLAS matrix
product each per group.  A group holds as many samples as fit in ``COLS``
column elements (at least one), and one column buffer is reused for every
group of a call.  The cap keeps memory bounded: unrolling a whole batch of
the first audio stage (70x4 filters over 96x96 patches) would copy ~90 MB,
where the buffer holds one sample's 5.6 MB.  Grouping keeps late stages
fast: their maps are 3x3 or 1x1, and a GEMM per sample there ran 2-3x
(3x3) to over 10x (1x1) slower than one many samples wide.

Pooling reads the input through its ph*pw strided offset views, one per
window position, and takes an in-place ``np.maximum`` over them: no window
copy is made.  The argmax (the first window position holding the maximum)
is counted in the same view order, and only when a backward pass will need
it; the backward writes ``dout`` into one offset view of ``dx`` at a time.

A conv and the max-pool after it can run fused (``pool=(ph, pw)``): each
sample group's conv output is pooled as soon as its GEMM is done, and the
backward widens the pooled gradient one group at a time, so neither the
full-resolution map nor its gradient exists for the whole batch (20.6 MB
each at the first audio stage of a batch of 16).  The fused kernels give
the unfused chain's numbers bit for bit.  Every kernel is deterministic
run-to-run.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

COLS = 1 << 18  # column-buffer elements per sample group (2 MiB of float64)


def _groups(x, kh, kw):
    """Yield (s0, s1, cols) per sample group of x; cols (C*kh*kw, n*OH*OW)
    is a view of one buffer that each group overwrites."""
    B, C, H, W = x.shape
    K, P = C * kh * kw, (H - kh + 1) * (W - kw + 1)
    g = max(1, min(B, COLS // (K * P)))
    buf = np.empty(K * g * P)
    for s0 in range(0, B, g):
        s1 = min(B, s0 + g)
        cols = buf[:K * (s1 - s0) * P].reshape(K, -1)
        win = sliding_window_view(x[s0:s1], (kh, kw), axis=(2, 3))  # (n, C, OH, OW, KH, KW)
        np.copyto(cols.reshape(C, kh, kw, s1 - s0, H - kh + 1, W - kw + 1),
                  win.transpose(1, 4, 5, 0, 2, 3))
        yield s0, s1, cols


def conv2d_forward(x, w, b, pool=None, need_arg=False):
    """Valid convolution, stride 1. x (B,C,H,W), w (F,C,KH,KW), b (F,).

    With ``pool=(ph, pw)`` each sample group's output goes straight through
    ``maxpool_forward``, and (out, arg) of the pooled map is returned; arg
    is None unless ``need_arg``.  The bias is added before pooling, as in the
    unfused chain: added after, fl(x1 + b) can tie fl(x2 + b) with x1 < x2.
    """
    F, _, KH, KW = w.shape
    B, OH, OW = x.shape[0], x.shape[2] - KH + 1, x.shape[3] - KW + 1
    wm = w.reshape(F, -1)
    out = np.empty((B, F, OH // pool[0], OW // pool[1]) if pool else (B, F, OH, OW))
    arg = None
    for s0, s1, cols in _groups(x, KH, KW):
        conv = wm @ cols
        conv += b[:, None]
        conv = conv.reshape(F, s1 - s0, OH, OW).transpose(1, 0, 2, 3)
        if pool is None:
            out[s0:s1] = conv
            continue
        out[s0:s1], group_arg = maxpool_forward(conv, *pool, need_arg)
        if need_arg:
            if arg is None:
                arg = np.empty(out.shape, group_arg.dtype)
            arg[s0:s1] = group_arg
    return out if pool is None else (out, arg)


def conv2d_backward(x, w, dout, need_dx=True, pool=None, arg=None):
    """Gradients (dx, dw, db) of a valid stride-1 convolution.

    With ``need_dx=False`` the input gradient is not computed and ``dx`` is
    None; ``dw`` and ``db`` are the same either way.  With ``pool=(ph, pw)``,
    ``dout`` and ``arg`` are the pooled gradient and argmax of a fused
    forward, which ``maxpool_backward`` widens one sample group at a time.
    ``db`` then matches ``dout.sum(axis=(0, 2, 3))`` of the widened map bit
    for bit: numpy sums it one sample at a time in sample order, except a
    one-filter map, which it sums as one flat run and so is kept whole.
    """
    F, C, KH, KW = w.shape
    B, OH, OW = x.shape[0], x.shape[2] - KH + 1, x.shape[3] - KW + 1
    wm = w.reshape(F, -1)
    dw = np.zeros(wm.shape)
    db = np.zeros(F)
    dx = np.zeros_like(x) if need_dx else None
    if pool is None:
        whole = dout
    else:
        whole = np.empty((B, 1, OH, OW)) if F == 1 else None
    for s0, s1, cols in _groups(x, KH, KW):
        n = s1 - s0
        if pool is None:
            dconv = dout[s0:s1]
        else:
            dconv = maxpool_backward(dout[s0:s1], arg[s0:s1], (n, F, OH, OW), *pool)
            if whole is None:
                for i in range(n):
                    db += dconv[i].reshape(F, -1).sum(axis=1)
            else:
                whole[s0:s1] = dconv
        dout_g = dconv.transpose(1, 0, 2, 3).reshape(F, -1)  # (F, n*OH*OW)
        dw += dout_g @ cols.T
        if need_dx:
            # col2im: scatter the column gradient back, one kernel offset at a
            # time; it overwrites the group's columns, which dw has consumed
            dcols = np.matmul(wm.T, dout_g, out=cols).reshape(C, KH, KW, n, OH, OW)
            for i in range(KH):
                for j in range(KW):
                    dx[s0:s1, :, i:i + OH, j:j + OW] += dcols[:, i, j].transpose(1, 0, 2, 3)
    if whole is not None:
        db = whole.sum(axis=(0, 2, 3))
    return dx, dw.reshape(w.shape), db


def _offset_views(a, ph, pw, oh, ow):
    """The ph*pw strided views a[:, :, i::ph, j::pw] cut to (oh, ow), in
    window order: k = i*pw + j."""
    return [a[:, :, i:oh * ph:ph, j:ow * pw:pw] for i in range(ph) for j in range(pw)]


def maxpool_forward(x, ph, pw, need_arg=True):
    """Non-overlapping max pool; trailing rows/cols that do not fill a
    window are dropped.  Returns (out, arg): arg holds each window's first
    position of its maximum, k = i*pw + j, in the smallest unsigned dtype
    that holds ph*pw-1.  With ``need_arg=False`` arg is None and not computed.
    """
    oh, ow = x.shape[2] // ph, x.shape[3] // pw
    views = _offset_views(x, ph, pw, oh, ow)
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(out, v, out=out)
    if not need_arg:
        return out, None
    # arg counts the leading positions that miss the maximum: `todo` holds
    # while every position so far missed, and the last position needs no test
    todo = np.not_equal(views[0], out)
    arg = todo.astype(np.min_scalar_type(ph * pw - 1))
    miss = np.empty(out.shape, dtype=bool)
    for v in views[1:-1]:
        np.not_equal(v, out, out=miss)
        todo &= miss
        arg += todo
    return out, arg


def maxpool_backward(dout, arg, x_shape, ph, pw):
    """Routes gradient to the argmax position of each pooling window."""
    dx = np.zeros(x_shape)
    hit = np.empty(arg.shape, dtype=bool)
    for k, view in enumerate(_offset_views(dx, ph, pw, *arg.shape[2:])):
        np.equal(arg, k, out=hit)
        np.copyto(view, dout, where=hit)
    return dx


def backend():
    """Name of the kernel implementation, recorded with benchmark figures."""
    return "numpy"
