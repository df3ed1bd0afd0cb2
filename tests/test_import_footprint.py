"""The depth and witness paths import no lattice code.

`lattice.py` imports `fractions`, which pulls in `decimal`; loading them
raises a process's peak memory by about half a megabyte, about 2.5% of
a depth or witness query run from the command line. This test imports
the modules those paths use in a fresh interpreter and checks that none
of the three is loaded."""

import os
import subprocess
import sys


def test_perf_path_imports_no_lattice_code():
    code = (
        "import sys\n"
        "import wreathconj, wreathconj.depth, wreathconj.witness, wreathconj.kernel\n"
        "names = ('wreathconj.lattice', 'wreathconj.verify', 'fractions')\n"
        "print(' '.join(n for n in names if n in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == "\n"
