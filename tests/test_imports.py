"""genrekit needs numpy and nothing else at run time.

scipy serves the tests as an oracle only; importing the package or its
command-line module must not load it.  A fresh interpreter is used because
the test run itself imports scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = ("import sys, genrekit, genrekit.cli\n"
            "print(genrekit.__file__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().is_relative_to(SRC)
    assert out[1] == "[]"
