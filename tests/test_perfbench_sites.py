"""The benchmark's tracer finds every genrekit name it wraps.

``perfbench/spans.py`` wraps functions by the name they are called under.
Deleting or renaming one of them breaks the benchmark; this test makes that
a test failure instead.  The module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

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
