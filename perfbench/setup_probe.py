"""One set-up of a workload, timed from outside by workloads.Workload.setup.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports ctlab from the checkout's ``src``, parses the workload's config
and builds its backends or search inputs, then exits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - imports ctlab, which is part of what is timed

workloads.make(sys.argv[1], int(sys.argv[2])).build()
