"""Hot numeric kernels: valid 2-D convolution, max-pooling and the wide
dense product, and the thread pool they share with the optimizers.

Convolution is lowered to im2col + GEMM.  A group of samples is unrolled
into a column matrix, rows (c, i, j) and columns (sample, oh, ow), so that
forward, the weight gradient and the input gradient are one BLAS matrix
product each per group.  A group holds as many samples as fit in ``COLS``
column elements (at least one), and each thread of a call reuses one
column buffer for every group it runs.  Grouping keeps late stages fast:
their maps are 3x3 or 1x1, and a GEMM per sample there ran 2-3x (3x3) to
over 10x (1x1) slower than one many samples wide.

``COLS`` also bounds every column buffer of the first audio stage (70x4
filters over 96x96 patches, 2x4 pool), where a whole batch would unroll to
~90 MB and one sample to 5.6 MB.  A sample over ``COLS`` is cut into bands
(``_bands``) that the thread which took it runs one after another: the
fused forward's read region (below) in runs of whole pooling-window rows,
and a ``need_dx=False`` backward's dw product in runs of whole kernel rows
(col2im needs all of a sample's columns, so with ``need_dx`` the sample
stays whole), where the rule below allows.

One rule, ``cut_keeps_bits``, decides every cut of a product into column
pieces: they give the whole product's bits only if each is a multiple of 8
columns wide, computes none of the whole product's last ``width % 8``
columns and is at least ``SPLIT`` multiply-adds (OpenBLAS rounds a GEMM's
last ``n % 8`` columns, a gemv and its small-matrix kernel differently).

Pooling reads the input through its ph*pw strided offset views, one per
window position, and takes an in-place ``np.maximum`` over them: no window
copy is made.  The argmax (the first window position holding the maximum)
is counted in the same view order, and only when a backward pass will need
it; the backward writes ``dout`` into one offset view of ``dx`` at a time.

A conv and the max-pool after it can run fused (``pool=(ph, pw)``): each
sample group's conv output is pooled as soon as its GEMMs are done, and the
backward widens the pooled gradient one group at a time, so neither the
full-resolution map nor its gradient exists for the whole batch (20.6 MB
each at the first audio stage of a batch of 16).  Every pooled group forms
only the conv rows and columns that windows read, where the rule below
accepts those columns for every group size of the call, and its whole map
otherwise.  The fused kernels give the unfused chain's numbers bit for bit.

A conv call with more than one sample group runs its groups on several
threads at once: one per CPU the process may run on, but at most
``MAX_WORKERS`` (``taskset -c 0`` gives one, and then no thread is started).
The cap keeps the per-call scratch independent of the host: each thread
holds a slot of ~3.4 MB at the first audio stage (a 2 MB band of columns
and one sample's 1.3 MB conv map or widened gradient), and two is the only
count whose speed and peak memory have been measured.  The calling thread and
the threads of a pool, built by the first call that needs it, each take the
next group whenever they are free.  The caller allocates every large
buffer, one slot per thread: the column buffer, the GEMM output and the
widened pooled gradient (``maxpool_backward`` writes into the ``out`` it is
given).  Each group writes its own samples of the output, the argmax and
dx.  Its dw product (in a ring of 2 slots per thread) and per-sample db
sums are added to dw and db in group order, so every sum associates as it
does on one thread and the results do not depend on the thread count.
Every kernel is deterministic run-to-run.

Three callers share the one pool and its thread count (``_threads``) and
run on it through ``_run_groups``: the conv kernels, ``matmul`` and the
optimizer steps of ``nn.optim``, which update the spans of their parameter
blocks on it.  ``matmul`` runs a product as two column halves of the
right-hand operand, written into one output, where the rule accepts them;
a split of the batch rows would not keep the bits.

The pool is the only parallelism: importing this module sets numpy's bundled
OpenBLAS to one thread, process-wide and whatever ``OPENBLAS_NUM_THREADS``
says, so a host program importing genrekit gets one-thread BLAS too (threaded
BLAS under the pool ran slower on two CPUs and changed bits).  Without that
OpenBLAS (numpy 1.x, MKL, a system BLAS) it does nothing.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

COLS = 1 << 18  # column-buffer elements per sample group (2 MiB of float64)
MAX_WORKERS = 2  # threads a call may use by default, the caller included
SPLIT = 1 << 20  # multiply-adds each piece of a cut product must reach (cut_keeps_bits)

_workers = None  # threads a call may use; None: one per usable CPU, at most MAX_WORKERS
_pool = None  # the _workers - 1 pool threads, built by the first call that needs them
_pool_lock = threading.Lock()
_blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
if hasattr(_blas, "scipy_openblas_set_num_threads64_"):
    _blas.scipy_openblas_set_num_threads64_(1)


def _set_workers(n):
    """Use ``n`` threads per call from now on (None: one per usable CPU, at
    most ``MAX_WORKERS``).  For tests; the pool of the old size is shut down."""
    global _workers, _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
        _workers, _pool = n, None


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_workers - 1, thread_name_prefix="genrekit-kernels")
        return _pool


def _threads(groups):
    """Threads to run ``groups`` groups on: one per usable CPU, at most
    ``MAX_WORKERS`` and at most one per group."""
    global _workers
    if _workers is None:
        _workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(_workers, groups)


def _plan(x, kh, kw):
    """(K, P, g, slots): rows and columns per sample of the column matrix,
    samples per group, and the groups run at once (one slot each)."""
    B, C, H, W = x.shape
    K, P = C * kh * kw, (H - kh + 1) * (W - kw + 1)
    g = max(1, min(B, COLS // (K * P)))
    return K, P, g, _threads(-(-B // g))


def _unroll(x, kh, kw, buf, q0=0, q1=None):
    """The column-matrix rows of kernel rows q0:q1 (one kernel row per
    (c, i); all of them by default) over x's samples, written into the head
    of ``buf`` and returned as its ((q1-q0)*kw, n*OH*OW) view."""
    n, C, H, W = x.shape
    q1 = C * kh if q1 is None else q1
    cols = buf[:(q1 - q0) * kw * n * (H - kh + 1) * (W - kw + 1)].reshape((q1 - q0) * kw, -1)
    win = sliding_window_view(x, (kh, kw), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)
    rows = cols.reshape((q1 - q0,) + win.shape[2:])  # (kernel row, KW, n, OH, OW)
    if q1 - q0 == C * kh:
        np.copyto(rows.reshape(win.shape), win)
        return cols
    for c in range(q0 // kh, -(-q1 // kh)):  # the channels the rows belong to
        i0, i1 = max(q0 - c * kh, 0), min(q1 - c * kh, kh)
        np.copyto(rows[c * kh + i0 - q0:c * kh + i1 - q0], win[c, i0:i1])
    return cols


def _bands(units, width, depth):
    """A GEMM of ``units`` units of ``width`` columns of ``depth`` column-buffer
    elements each, cut into bands [(u0, u1), ...] for ``cut_keeps_bits`` to
    judge: one band if all fit in ``COLS`` elements, else as many per band as
    fit and make a multiple of 8 columns ([] where none fit)."""
    per = COLS // (width * depth)
    if per < units:
        per -= per % (8 // np.gcd(width, 8))
    return [(u, min(units, u + per)) for u in range(0, units, per)] if per else []


def cut_keeps_bits(rows, depth, width, pieces):
    """Whether column pieces of a (rows x depth) @ (depth x width) product
    give its bits, by the rule of the module docstring: ``pieces`` is [(n,
    stop), ...], a piece computing ``n`` columns, all before column ``stop``."""
    return bool(pieces) and all(n % 8 == 0 and stop <= width - width % 8
                                and rows * depth * n >= SPLIT for n, stop in pieces)


def _run_groups(B, g, slots, task, merge=None, window=None):
    """Run ``task(slot, s0, s1)`` on every group s0:s1 of ``range(B)``, g
    at a time, on ``slots`` threads: the calling thread and pool threads,
    each of which takes the next group whenever it is free and passes its
    slot number.  ``merge`` gets each task's result in group order, on
    whichever thread completes the run of finished groups, and a group
    starts only once the group ``window`` places before it has been merged.
    With one slot no pool is used.  The first exception of a task is raised
    on the calling thread once every thread has stopped."""
    starts = range(0, B, g)
    cond = threading.Condition()
    claimed = merged = 0
    done = {}  # finished results that wait for an earlier group's merge
    failure = None

    def work(slot):
        nonlocal claimed, merged, failure
        while True:
            with cond:
                while (failure is None and claimed < len(starts)
                       and window is not None and claimed - merged >= window):
                    cond.wait()
                if failure is not None or claimed == len(starts):
                    return
                s0 = starts[claimed]
                claimed += 1
            try:
                result = task(slot, s0, min(B, s0 + g))
                if merge is not None:
                    with cond:
                        done[s0] = result
                        while merged < len(starts) and starts[merged] in done:
                            merge(done.pop(starts[merged]))
                            merged += 1
                        cond.notify_all()
            except BaseException as exc:
                with cond:
                    if failure is None:
                        failure = exc
                    cond.notify_all()
                return

    futures = [_executor().submit(work, slot) for slot in range(1, slots)]
    work(0)
    for future in futures:  # a pool thread not yet started has nothing left to do
        if not future.cancel():
            future.result()
    if failure is not None:
        raise failure


def matmul(a, b):
    """``a @ b`` of 2-D float64 arrays: ``b``'s two column halves on two
    threads, each writing its columns of one output, where
    ``cut_keeps_bits`` accepts them, and the whole product otherwise.  The
    halves count ``a`` as two rows whatever its height, so ``b`` alone
    decides: one row is a gemv, whole or cut, and counting a taller ``a``'s
    rows would also split smaller products, such as the text MLP's
    122x2048 layer, where a second thread has not been shown to pay."""
    n = b.shape[1]
    half = -(-n // 16) * 8
    slots = _threads(2) if cut_keeps_bits(2, *b.shape, [(half, half), (n - half, n)]) else 1
    if slots == 1:
        return a @ b
    out = np.empty((a.shape[0], n))

    def half_product(_, c0, c1):
        np.matmul(a, b[:, c0:c1], out=out[:, c0:c1])

    _run_groups(n, half, slots, half_product)
    return out


def conv2d_forward(x, w, b, pool=None, need_arg=False):
    """Valid convolution, stride 1. x (B,C,H,W), w (F,C,KH,KW), b (F,).

    Returns (out, arg): the conv map and None, or with ``pool=(ph, pw)`` the
    pooled map and its argmax, None unless ``need_arg``.  Each sample
    group's output then goes straight through ``maxpool_forward``, the bias
    added before pooling as in the unfused chain: added after, fl(x1 + b)
    can tie fl(x2 + b) with x1 < x2.  Every pooled group forms only the
    ``OH // ph * ph`` rows and ``OW // pw * pw`` columns that windows read,
    in ``_bands`` of whole window rows, where ``cut_keeps_bits`` accepts
    them for every group size of the call.
    """
    F, _, KH, KW = w.shape
    B, OH, OW = x.shape[0], x.shape[2] - KH + 1, x.shape[3] - KW + 1
    K, P, g, slots = _plan(x, KH, KW)
    wm = w.reshape(F, -1)
    out = np.empty((B, F, OH // pool[0], OW // pool[1]) if pool else (B, F, OH, OW))
    arg = (np.empty(out.shape, np.min_scalar_type(pool[0] * pool[1] - 1))
           if pool and need_arg else None)
    oh, ow, bands = OH, OW, [(0, OH)]  # the conv rows and columns computed, in bands of rows
    if pool and OH >= pool[0] and OW >= pool[1]:
        ph, pw = pool
        read = OW // pw * pw  # the columns that windows read
        cut = [(u0 * ph, u1 * ph) for u0, u1 in _bands(OH // ph, ph * read, K * g)]
        if all(cut_keeps_bits(F, K, n * P, [(n * (r1 - r0) * read, (n - 1) * P + (r1 - 1) * OW
                                            + read) for r0, r1 in cut]) for n in {g, B % g} - {0}):
            oh, ow, bands = cut[-1][1], read, cut
    cols = np.empty((slots, K * g * (bands[0][1] - bands[0][0]) * ow))
    convs = np.empty((slots, F * g * P))

    def group(k, s0, s1):
        n = s1 - s0
        conv = convs[k, :F * n * oh * ow].reshape(F, -1)
        for r0, r1 in bands:  # more than one only where a group is one sample
            band_cols = _unroll(x[s0:s1, :, r0:r1 + KH - 1, :ow + KW - 1], KH, KW, cols[k])
            np.matmul(wm, band_cols, out=conv[:, n * r0 * ow:n * r1 * ow])
        conv += b[:, None]
        conv = conv.reshape(F, n, oh, ow).transpose(1, 0, 2, 3)
        if pool is None:
            out[s0:s1] = conv
        elif need_arg:
            out[s0:s1], arg[s0:s1] = maxpool_forward(conv, *pool, need_arg)
        else:
            out[s0:s1] = maxpool_forward(conv, *pool, need_arg)[0]

    _run_groups(B, g, slots, group)
    return out, arg


def conv2d_backward(x, w, dout, need_dx=True, pool=None, arg=None):
    """Gradients (dx, dw, db) of a valid stride-1 convolution.

    With ``need_dx=False`` the input gradient is not computed and ``dx`` is
    None; ``dw`` and ``db`` are the same either way.  With ``pool=(ph, pw)``,
    ``dout`` and ``arg`` are the pooled gradient and argmax of a fused
    forward, which ``maxpool_backward`` widens one sample group at a time.
    ``db`` then matches ``dout.sum(axis=(0, 2, 3))`` of the widened map bit
    for bit: numpy sums it one sample at a time in sample order, except a
    one-filter map, which it sums as one flat run and so is kept whole.
    With ``need_dx=False`` a sample over ``COLS`` forms its dw product in
    ``_bands`` of whole kernel rows (col2im needs all of a sample's columns).
    """
    F, C, KH, KW = w.shape
    B, OH, OW = x.shape[0], x.shape[2] - KH + 1, x.shape[3] - KW + 1
    K, P, g, slots = _plan(x, KH, KW)
    wm = w.reshape(F, -1)
    dw = np.zeros(wm.shape)
    db = np.zeros(F)
    dx = np.zeros_like(x) if need_dx else None
    if pool is None:
        whole = dout
    else:
        whole = np.empty((B, 1, OH, OW)) if F == 1 else None
    cut = _bands(C * KH, KW, P) if not need_dx and K * P > COLS else []
    keep = cut_keeps_bits(F, P, K, [((q1 - q0) * KW, q1 * KW) for q0, q1 in cut])
    bands = cut if keep else [(0, C * KH)]
    cols = np.empty((slots, (bands[0][1] - bands[0][0]) * KW * g * P))
    window = 2 * slots  # groups a thread may run ahead of the merged ones
    dws = np.empty((min(window, -(-B // g)), F, K))  # group i's dw product: dws[i % len]
    dconvs = np.empty((slots, g * F * P)) if pool else None

    def group(k, s0, s1):
        n = s1 - s0
        sums = ()
        if pool is None:
            dconv = dout[s0:s1]
        else:
            dconv = maxpool_backward(dout[s0:s1], arg[s0:s1], *pool,
                                     dconvs[k, :n * F * P].reshape(n, F, OH, OW))
            if whole is None:
                sums = [dconv[i].reshape(F, -1).sum(axis=1) for i in range(n)]
            else:
                whole[s0:s1] = dconv
        dout_g = dconv.transpose(1, 0, 2, 3).reshape(F, -1)  # (F, n*OH*OW)
        ring = s0 // g % len(dws)
        for q0, q1 in bands:
            band_cols = _unroll(x[s0:s1], KH, KW, cols[k], q0, q1)
            np.matmul(dout_g, band_cols.T, out=dws[ring][:, q0 * KW:q1 * KW])
        if need_dx:
            # col2im: scatter the column gradient back, one kernel offset at a
            # time; it overwrites the group's columns, which dw has consumed
            dcols = np.matmul(wm.T, dout_g, out=band_cols).reshape(C, KH, KW, n, OH, OW)
            for i in range(KH):
                for j in range(KW):
                    dx[s0:s1, :, i:i + OH, j:j + OW] += dcols[:, i, j].transpose(1, 0, 2, 3)
        return ring, sums

    def merge(result):
        # every sum adds its terms in group order, as one thread would
        ring, sums = result
        np.add(dw, dws[ring], out=dw)
        for s in sums:
            np.add(db, s, out=db)

    _run_groups(B, g, slots, group, merge, window)
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


def maxpool_backward(dout, arg, ph, pw, out):
    """Routes gradient to the argmax position of each pooling window, written
    into and returned as ``out``, a float64 array of the pool's input shape."""
    out.fill(0.0)
    hit = np.empty(arg.shape, dtype=bool)
    for k, view in enumerate(_offset_views(out, ph, pw, *arg.shape[2:])):
        np.equal(arg, k, out=hit)
        np.copyto(view, dout, where=hit)
    return out


def backend():
    """Name of the kernel implementation, recorded with benchmark figures."""
    return "numpy"
