"""Record golden.json: each workload's outputs at the default seed.

    python3 perfbench/record_golden.py [workload ...]

Run it only on code whose simulated outputs are known to be right; the
committed golden.json was recorded from the unmodified seed code.  A
later change must reproduce it byte for byte, not re-record it.
"""

import json
import sys

import run

run.load_ctlab()

import workloads  # noqa: E402 - needs ctlab on the path

golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
for name in sys.argv[1:] or list(workloads.WORKLOADS):
    wl, results, *_ = run.run(name, workloads.DEFAULT_SEED, 0, False, None)
    problems = [p for r in results for p in r.problems]
    if problems:
        raise SystemExit(f"{name}: {problems}")
    golden[name] = wl.golden_record(results)
    print(f"recorded {name}")
run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
