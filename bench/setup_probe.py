"""Set-up probe: import snnflow, load one instance's files, say "ready".

    python3 bench/setup_probe.py <workload> snn=<path> [hw=<path>] [trains=<path>]

``run.py`` starts this in a fresh process and times it up to the
"ready" line, which measures the set-up a user pays before a run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import snnflow  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

workloads.load_inputs(dict(arg.split("=", 1) for arg in sys.argv[2:]))
print("ready", flush=True)
