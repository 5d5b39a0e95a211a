"""Hot numeric kernels: valid 2-D convolution and max-pooling.

Pure numpy: convolution is a ``tensordot`` over a ``sliding_window_view``,
pooling an ``argmax`` over reshaped windows.  Every kernel is deterministic
run-to-run.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d_forward(x, w, b):
    """Valid convolution, stride 1. x (B,C,H,W), w (F,C,KH,KW), b (F,)."""
    kh, kw = w.shape[2], w.shape[3]
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))  # (B, C, OH, OW, KH, KW)
    out = np.tensordot(win, w, axes=[(1, 4, 5), (1, 2, 3)])  # (B, OH, OW, F)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    out += b[None, :, None, None]
    return out


def conv2d_backward(x, w, dout, need_dx=True):
    """Gradients (dx, dw, db) of a valid stride-1 convolution.

    With ``need_dx=False`` the input gradient is not computed and ``dx`` is
    None; ``dw`` and ``db`` are the same either way.
    """
    KH, KW = w.shape[2], w.shape[3]
    OH, OW = dout.shape[2], dout.shape[3]
    win = sliding_window_view(x, (KH, KW), axis=(2, 3))  # (B, C, OH, OW, KH, KW)
    dw = np.tensordot(dout, win, axes=[(0, 2, 3), (0, 2, 3)])  # (F, C, KH, KW)
    db = dout.sum(axis=(0, 2, 3))
    if not need_dx:
        return None, dw, db
    dx = np.zeros_like(x)
    # scatter the F-contraction back onto the input, one kernel offset at a time
    dcol = np.tensordot(dout, w, axes=[(1,), (0,)])  # (B, OH, OW, C, KH, KW)
    for i in range(KH):
        for j in range(KW):
            dx[:, :, i:i + OH, j:j + OW] += dcol[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx, dw, db


def maxpool_forward(x, ph, pw):
    """Non-overlapping max pool; trailing rows/cols that do not fill a
    window are dropped. Returns (out, argmax-within-window)."""
    B, C, H, W = x.shape
    OH, OW = H // ph, W // pw
    xc = x[:, :, :OH * ph, :OW * pw]
    win = xc.reshape(B, C, OH, ph, OW, pw).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(B, C, OH, OW, ph * pw)
    arg = win.argmax(axis=-1).astype(np.int64)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool_backward(dout, arg, x_shape, ph, pw):
    """Routes gradient to the argmax position of each pooling window."""
    B, C, H, W = x_shape
    OH, OW = dout.shape[2], dout.shape[3]
    dwin = np.zeros((B, C, OH, OW, ph * pw))
    np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
    dwin = dwin.reshape(B, C, OH, OW, ph, pw).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(x_shape)
    dx[:, :, :OH * ph, :OW * pw] = dwin.reshape(B, C, OH * ph, OW * pw)
    return dx


def backend():
    """Name of the kernel implementation, recorded with benchmark figures."""
    return "numpy"
