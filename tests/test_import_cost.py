"""``import snnflow`` loads no third-party package beyond numpy and PyYAML.

Every process that runs the toolchain imports the package first, so a
module-level import of any other installed package (scipy or networkx,
say) would add its load time to every run's set-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import snnflow


def top_level_modules(code: str) -> set[str]:
    """Top-level names in ``sys.modules`` of a fresh interpreter after
    running ``code``, with this checkout's package on the path."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(snnflow.__file__).resolve().parents[1]))
    report = ("import sys; "
              "print(*sorted({m.partition('.')[0] for m in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", f"{code}; {report}"],
                         capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())


def test_import_loads_nothing_that_numpy_and_yaml_do_not():
    # numpy itself loads modules that are neither stdlib nor numpy
    # (its Cython runtime), so the baseline is what importing numpy and
    # yaml loads rather than a list of names
    baseline = top_level_modules("import numpy, yaml")
    extra = (top_level_modules("import snnflow") - baseline
             - set(sys.stdlib_module_names) - {"snnflow"})
    assert extra == set()
