"""The benchmark's tracer finds every genrekit name it wraps, and still
counts a live training step through them.

``perfbench/spans.py`` wraps functions by the name they are called under,
and Dense's ``forward`` and ``backward`` by their signatures.  Deleting or
renaming one of them, or changing a wrapped signature, breaks the
benchmark; these tests make that a test failure instead.  The module is
loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from genrekit import zoo
from genrekit.nn import Dense, ModelGraph

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(spans):
    """(owner, attribute) for every name the tracer replaces."""
    sites = []
    for site in spans.SPAN_SITES:
        owner = importlib.import_module(site[1])
        if len(site) == 4:
            owner = getattr(owner, site[3])
        sites.append((owner, site[2]))
    dense = getattr(importlib.import_module(spans.DENSE_SITE[0]), spans.DENSE_SITE[1])
    return sites + [(dense, "forward"), (dense, "backward")]


def test_tracer_wraps_and_restores_every_site():
    spans = _load_spans()
    sites = _sites(spans)
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    for (owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_tracer_counts_a_live_training_step_and_extraction():
    """One epoch of a conv + pool + dense model and of the text MLP, then
    feature extraction, run under the installed tracer: the spans the
    benchmark reads are recorded, and the dense count holds each forward's
    2·B·|w| and each backward's 4·B·|w| (extraction runs no head)."""
    spans = _load_spans()
    rng = np.random.default_rng(0)
    specs = [{"kind": "conv2d", "filters": 2, "kh": 2, "kw": 2},
             {"kind": "maxpool", "ph": 2, "pw": 2}, {"kind": "relu"},
             {"kind": "flatten"}, {"kind": "dense", "out": 4}, {"kind": "relu"}]
    runs = [(ModelGraph((1, 5, 7), specs, {"kind": "logistic", "dim": 3}, seed=1),
             rng.normal(size=(6, 1, 5, 7)), rng.integers(0, 2, size=(6, 3)).astype(float)),
            (zoo.build_text_mlp(3, "cosine", in_dim=8, seed=2),
             rng.normal(size=(6, 8)), rng.normal(size=(6, 3)))]
    config = zoo.TrainConfig(batch_size=4, epochs=1)
    want = 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        for model, x, y in runs:
            zoo.train(model, x, y, config=config)
            zoo.extract_features(model, x)
            below = sum(layer.w.size for layer in model.layers if isinstance(layer, Dense))
            # one train epoch's forward and backward, then extraction's forward
            want += (2 + 4) * len(x) * (below + model.head_dense.w.size) + 2 * len(x) * below
    finally:
        tracer.uninstall()
    assert {"nn.forward", "nn.backward", "nn.optim_step", "kernels.conv2d_forward",
            "kernels.conv2d_backward", "zoo.train", "zoo.extract_features"} <= set(tracer.names)
    assert tracer.counts["nn.dense.flop"] == want
