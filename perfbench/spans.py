"""In-memory span tracer that wraps genrekit's public functions from outside.

`Tracer.install()` replaces each traced function with a wrapper under the
name it is looked up by at its call site (a module attribute or a class
method), records one span per call, and restores every original on
`uninstall()`.  Spans stay in memory; `write()` dumps them at the end.
Self time is a span's duration minus the durations of its direct children.

Besides spans, the tracer records exact work counts that repeat between
runs of one seed: the conv call-shape mix, computed conv and dense FLOPs,
computed conv bytes, optimizer parameters updated, tokens produced, and
bytes read from feature files.
"""

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module path, attribute[, class]) -- one entry per call site
SPAN_SITES = [
    ("kernels.conv2d_forward", "genrekit.kernels", "conv2d_forward"),
    ("kernels.conv2d_backward", "genrekit.kernels", "conv2d_backward"),
    ("kernels.maxpool_forward", "genrekit.kernels", "maxpool_forward"),
    ("kernels.maxpool_backward", "genrekit.kernels", "maxpool_backward"),
    ("nn.forward", "genrekit.nn.model", "forward", "ModelGraph"),
    ("nn.backward", "genrekit.nn.model", "backward", "ModelGraph"),
    ("nn.optim_step", "genrekit.nn.optim", "step", "Adam"),
    ("nn.optim_step", "genrekit.nn.optim", "step", "SGD"),
    ("zoo.train", "genrekit.zoo", "train"),
    ("zoo.predict", "genrekit.zoo", "predict"),
    ("zoo.extract_features", "genrekit.zoo", "extract_features"),
    ("zoo.feature_io", "genrekit.zoo", "save_feature_vectors"),
    ("zoo.feature_io", "genrekit.zoo", "load_feature_vectors"),
    ("zoo.feature_io", "genrekit.pipeline", "save_feature_vectors"),
    ("audiofeat.load", "genrekit.audiofeat", "load_spectrogram"),
    ("audiofeat.sample_patch", "genrekit.audiofeat", "sample_patch"),
    ("audiofeat.standardize", "genrekit.audiofeat", "standardize"),
    ("textfeat.tokenize", "genrekit.textfeat", "tokenize"),
    ("textfeat.build_vocabulary", "genrekit.textfeat", "build_vocabulary"),
    ("textfeat.tfidf", "genrekit.textfeat", "tfidf"),
    ("labelspace.close_labels", "genrekit.labelspace", "close_labels"),
    ("labelspace.ppmi_svd", "genrekit.labelspace", "compute_ppmi"),
    ("labelspace.ppmi_svd", "genrekit.labelspace", "factorize"),
    ("labelspace.item_factors", "genrekit.labelspace", "item_factors"),
    ("labelspace.label_scores", "genrekit.metrics", "label_scores_from_factor"),
    ("metrics.evaluate", "genrekit.metrics", "evaluate"),
    ("metrics.scores_from_cosine_head", "genrekit.metrics", "scores_from_cosine_head"),
    ("metrics.top_k", "genrekit.metrics", "top_k_labels"),
    ("pipeline.split", "genrekit.experiment", "split"),
    ("pipeline.synth_dataset", "genrekit.pipeline", "synth_dataset"),
    ("experiment.run_experiment", "genrekit.experiment", "run_experiment"),
    ("experiment.prepare_labels", "genrekit.experiment", "prepare_labels"),
    ("experiment.features", "genrekit.experiment", "text_features"),
    ("experiment.features", "genrekit.experiment", "audio_patches"),
]

# Dense layers are counted, not spanned: a span per matmul would cost more
# than the small ones it measures.
DENSE_SITE = ("genrekit.nn.layers", "Dense")


def _conv_flops(x_shape, w_shape):
    """Multiply-adds of one valid stride-1 forward conv, times two."""
    b, c, h, w = x_shape
    f, _, kh, kw = w_shape
    return 2 * b * f * c * kh * kw * (h - kh + 1) * (w - kw + 1)


def _conv_bytes(x_shape, w_shape):
    """float64 bytes of input, weights and output: the least a conv must move."""
    b, c, h, w = x_shape
    f, _, kh, kw = w_shape
    out = b * f * (h - kh + 1) * (w - kw + 1)
    return 8 * (b * c * h * w + f * c * kh * kw + out)


class Tracer:
    def __init__(self):
        self.starts = []
        self.ends = []
        self.names = []
        self.parents = []
        self.groups = []
        self.group = 0  # the pass or request the next spans belong to
        self._stack = []
        self.counts = Counter()
        self.conv_shapes = Counter()
        self._saved = []

    # ------------------------------------------------------------- spans

    def _wrap(self, name, fn, counter=None):
        starts, ends, names, parents, groups = (
            self.starts, self.ends, self.names, self.parents, self.groups)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            starts.append(clock())
            ends.append(0.0)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            groups.append(self.group)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if counter is not None:
                counter(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_for(self, name, attr):
        counts = self.counts
        if name == "kernels.conv2d_forward":
            def count(args, _result):
                x, w = args[0], args[1]
                self.conv_shapes[("fwd",) + x.shape + w.shape[:1] + w.shape[2:]] += 1
                counts["kernels.conv2d_forward.flop"] += _conv_flops(x.shape, w.shape)
                counts["kernels.conv2d_forward.bytes"] += _conv_bytes(x.shape, w.shape)
            return count
        if name == "kernels.conv2d_backward":
            def count(args, _result):
                x, w = args[0], args[1]
                self.conv_shapes[("bwd",) + x.shape + w.shape[:1] + w.shape[2:]] += 1
                # dx and dw each cost one forward's worth of multiply-adds
                counts["kernels.conv2d_backward.flop"] += 2 * _conv_flops(x.shape, w.shape)
                # reads x, w, dout; writes dx, dw (db is negligible)
                counts["kernels.conv2d_backward.bytes"] += (
                    _conv_bytes(x.shape, w.shape) + 8 * (x.size + w.size))
            return count
        if name == "nn.optim_step":
            def count(args, _result):
                counts["nn.optim_step.params"] += sum(p.size for p, _ in args[1])
            return count
        if name == "zoo.train":
            def count(args, result):
                counts["zoo.train.epochs"] += len(result)
                counts["zoo.train.samples"] += len(result) * args[1].shape[0]
            return count
        if name == "textfeat.tokenize":
            def count(_args, result):
                counts["textfeat.tokens"] += len(result)
            return count
        if name == "audiofeat.load":
            def count(args, _result):
                counts["audiofeat.load.bytes"] += os.path.getsize(args[0])
            return count
        if name == "zoo.feature_io":
            if attr == "load_feature_vectors":
                def count(args, _result):
                    counts["zoo.feature_io.bytes"] += os.path.getsize(args[0])
            else:
                def count(args, _result):
                    counts["zoo.feature_io.bytes"] += os.path.getsize(args[2])
            return count
        return None

    def install(self):
        import importlib

        for site in SPAN_SITES:
            name, module_name, attr = site[:3]
            owner = importlib.import_module(module_name)
            if len(site) == 4:
                owner = getattr(owner, site[3])
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, self._counter_for(name, attr)))
        self._install_dense_counters(importlib.import_module(DENSE_SITE[0]))

    def _install_dense_counters(self, layers):
        dense = getattr(layers, DENSE_SITE[1])
        counts = self.counts
        fwd, bwd = dense.forward, dense.backward

        def forward(layer, x, *args, **kwargs):
            counts["nn.dense.flop"] += 2 * x.shape[0] * layer.w.size
            return fwd(layer, x, *args, **kwargs)

        def backward(layer, dout):
            counts["nn.dense.flop"] += 4 * dout.shape[0] * layer.w.size
            return bwd(layer, dout)

        self._saved.append((dense, "forward", fwd))
        self._saved.append((dense, "backward", bwd))
        dense.forward = forward
        dense.backward = backward

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def self_times(self):
        """Per span name: (self seconds, calls)."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        selfs = dur - child
        out = defaultdict(lambda: [0.0, 0])
        for name, s in zip(self.names, selfs.tolist()):
            rec = out[name]
            rec[0] += s
            rec[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def shape_mix(self):
        """Conv call-shape mix as sorted rows of
        (direction, B, C, H, W, F, KH, KW, calls)."""
        return sorted(k + (v,) for k, v in self.conv_shapes.items())

    def write(self, path):
        """Dump every span (one JSON array per line) and the work counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "group"],
                                 "counts": dict(self.counts),
                                 "conv_shape_mix": self.shape_mix()}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.groups):
                fh.write(json.dumps(row) + "\n")
