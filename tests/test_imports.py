"""genrekit needs numpy and nothing else at run time, starts no thread
until a kernel call has work for one, and runs BLAS on one thread.

scipy serves the tests as an oracle only; importing the package or its
command-line module must not load it.  A fresh interpreter is used because
the test run itself imports scipy and runs the kernels.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _fresh(code, timeout=None):
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True, timeout=timeout).stdout.splitlines()


def test_import_loads_no_scipy():
    out = _fresh("import sys, genrekit, genrekit.cli\n"
                 "print(genrekit.__file__)\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert Path(out[0]).resolve().is_relative_to(SRC)
    assert out[1] == "[]"


def test_import_starts_no_thread():
    assert _fresh("import threading, genrekit, genrekit.cli\n"
                  "print(threading.active_count())\n") == ["1"]


def test_interpreter_exits_after_building_the_kernel_pool():
    """The pool's threads do not keep the interpreter alive at exit."""
    out = _fresh("import threading, numpy as np\n"
                 "from genrekit import kernels\n"
                 "kernels.COLS = 1\n"
                 "kernels._set_workers(2)\n"
                 "kernels.conv2d_forward(np.ones((3, 1, 4, 4)), np.ones((2, 1, 2, 2)),"
                 " np.zeros(2))\n"
                 "print(kernels._pool is not None, threading.active_count())\n",
                 timeout=60)
    assert out == ["True 2"]


_BLAS = ctypes.CDLL(np.linalg._umath_linalg.__file__)
_TRAIN_AND_PREDICT = """
import ctypes, hashlib
import numpy as np
import genrekit
from genrekit import zoo
blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
print(blas.scipy_openblas_get_num_threads64_())
rng = np.random.default_rng(1)
x, y = rng.standard_normal((80, 1, 96, 48)), rng.standard_normal((80, 9))
model = zoo.build_audio_cnn(zoo.AudioCnnConfig("4x70", "low", "cosine"), 9,
                            n_bins=96, width=48, seed=1)
zoo.train(model, x, y, None, None, zoo.TrainConfig(
    batch_size=16, epochs=1, seed=1, optimizer={"kind": "adam", "lr": 1e-2}))
print(hashlib.sha256(zoo.predict(model, x).tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(_BLAS, "scipy_openblas_get_num_threads64_"),
                    reason="numpy does not bundle scipy-openblas")
def test_blas_runs_on_one_thread_whatever_the_environment_says():
    """A tag-serve-shaped CNN (low-4x70 cosine, 80 patches of 96x48) trains
    and predicts the same bits with OPENBLAS_NUM_THREADS set to 1, to 2 and
    unset: importing genrekit sets BLAS to one thread in every case."""
    outs = []
    for value in ("1", "2", None):
        env = dict(ENV)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        outs.append(subprocess.run([sys.executable, "-c", _TRAIN_AND_PREDICT], env=env,
                                   capture_output=True, text=True, check=True,
                                   timeout=120).stdout.splitlines())
    assert [threads for threads, _ in outs] == ["1"] * 3
    assert len({digest for _, digest in outs}) == 1
