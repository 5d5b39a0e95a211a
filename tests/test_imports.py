"""genrekit needs numpy and nothing else at run time, and starts no thread
until a kernel call has work for one.

scipy serves the tests as an oracle only; importing the package or its
command-line module must not load it.  A fresh interpreter is used because
the test run itself imports scipy and runs the kernels.
"""

import os
import subprocess
import sys
from pathlib import Path

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
