"""ctlab benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 20 --trace 0

Run from a checkout: the benchmark imports ``ctlab`` from ``src/`` of the
checkout that holds this file, and nothing else.  A run sets up the
workload several times (``setup_s``), then repeats one closed-loop
operation, one client at a time, and stops at the operation boundary
nearest to ``--seconds`` of operations.  Every number is host time, what
the simulator costs to run; the simulated statistics only feed the
correctness gate (see workloads.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, reports the per-layer metrics from the
traced ones and the tracing overhead from the difference, and writes the
spans to ``perfbench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from array import array
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
GOLDEN = Path(__file__).resolve().with_name("golden.json")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "request_us_p50": "us",
    "peak_rss_mb": "MiB",
}
# Episodes of host interference on a shared machine slow every process by
# up to 1.8x for seconds at a time, so a run's median request latency flips
# between two speeds (spread 0.36 over eight runs).  request_us_p50 is
# therefore the median of the run's least-interfered window of this many
# consecutive requests (spread 0.06).  No high percentile is gated: every
# one tried flipped on some workload (udp p95 spread 0.36, sweep p90 0.27,
# where it lands in the prefetch requests), so p90 and p99 are only printed.
REQUEST_WINDOW = 1024

DEFINITIONS = {
    "setup_s": "median set-up: import ctlab, parse the config, build backends (udp: launch both servers until their port lines)",
    "wall_s": "median host wall time of one operation",
    "throughput_per_s": "timing samples (attack, sweep, udp) or candidate keys (keysearch) per host second of operations",
    "request_us_p50": f"median latency of one request in the least-interfered window of {REQUEST_WINDOW} "
                      "consecutive requests (or of all, if fewer): SimulatedBackend.handle (attack, sweep), "
                      "UdpOracle call (udp), brute_force call (keysearch)",
    "peak_rss_mb": "peak resident memory of the benchmark process through set-up and its first "
                   "operation (later operations repeat the same work; allocator noise aside)",
}


def load_ctlab() -> None:
    """Put the checkout's ``src`` first on the path and import ctlab from it."""
    src = ROOT / "src"
    if not (src / "ctlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ctlab sources under {src}")
    sys.path.insert(0, str(src))
    import ctlab

    if Path(ctlab.__file__).resolve().parent != (src / "ctlab").resolve():
        raise SystemExit(f"benchmark: imported ctlab from {ctlab.__file__}, not {src}")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, golden: dict | None):
    """Set up, run the timed loop, check outputs.  Returns (workload, results, setup, tracer)."""
    import workloads
    from layers import OP_SPAN, install_tracing
    from tracer import Patches, Tracer

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(name, seed)
    tracer = Tracer() if trace else None
    results: list[workloads.OpResult] = []
    try:
        setup = wl.setup()
        elapsed = 0.0
        peak_rss = 0.0
        # Stop at the operation boundary nearest to --seconds; a traced run
        # needs at least one untraced and one traced operation.
        while (not results or elapsed + results[-1].wall / 2 < seconds
               or (trace and len(results) < 2)):
            traced = trace and len(results) % 2 == 1
            patches = Patches()
            span = None
            if traced:
                install_tracing(patches, tracer)
                span = tracer.open(OP_SPAN)
            try:
                result = wl.op(tracer if traced else None)
            except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not raised
                result = workloads.OpResult(0.0, 0, {}, array("q"), [f"raised {exc!r}"])
            finally:
                if span is not None:
                    tracer.close(span)
                patches.undo()
            result.traced = traced
            results.append(result)
            elapsed += result.wall
            if len(results) == 1:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if result.problems and not result.digest:
                break  # the operation could not finish; later ones would not either
        expected = wl.expected(results, tracer)
        for result, reference in zip(results, expected):
            if result.digest and result.digest != reference:
                diff = sorted(k for k in reference if result.digest.get(k) != reference[k])
                result.problems.append(f"output differs from reference in {diff}")
        if golden is not None:
            record = wl.golden_record(results)
            diff = sorted(k for k in golden if record.get(k) != golden[k])
            if record != golden:
                for result in results:
                    result.problems.append(f"golden mismatch in {diff or sorted(record)}")
    finally:
        wl.close()
    problems = wl.final_problems()
    if problems:
        results[-1].problems.extend(problems)
    return wl, results, setup, tracer, peak_rss


def end_to_end(results, setup, peak_rss: float) -> dict[str, float]:
    untraced = [r for r in results if not r.traced]
    walls = [r.wall for r in untraced]
    latency = np.concatenate([np.frombuffer(r.latency_ns, dtype=np.int64) for r in untraced])
    windows = latency[: len(latency) // REQUEST_WINDOW * REQUEST_WINDOW].reshape(-1, REQUEST_WINDOW)
    p50 = float(np.median(windows, axis=1).min()) if len(windows) else percentile(latency, 50)
    return {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "throughput_per_s": sum(r.units for r in untraced) / max(sum(walls), 1e-9),
        "request_us_p50": p50 / 1e3,
        "peak_rss_mb": peak_rss,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("attack", "sweep", "keysearch", "udp"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden outputs for the default seed (default: %(default)s)")
    args = parser.parse_args(argv)
    load_ctlab()

    import workloads
    from layers import PER_LAYER, LayerReport

    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads(args.golden.read_text()).get(args.workload, {})
    wl, results, setup, tracer, peak_rss = run(args.workload, args.seed, args.seconds, bool(args.trace), golden)

    print(f"# ctlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} platform={platform.platform()}")
    print(f"# src lines: {src_lines()} (recorded, not gated)")
    print(f"# default seed {workloads.DEFAULT_SEED} is checked against golden.json; "
          f"other seeds by invariants and by agreement between operations")
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        print(f"# workload {spec['name']}: {spec['why']}")
    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    for i, r in enumerate(results):
        for problem in r.problems:
            print(f"! operation {i}: {problem}")
    ops = sum(1 for r in results if not r.traced)
    requests = sum(len(r.latency_ns) for r in results if not r.traced)
    print(f"# {attempted} operations ({ops} untraced), {requests} requests timed untraced, "
          f"{len(setup)} set-ups")

    if args.trace:
        report = LayerReport(wl, tracer, results)
        metrics, units = report.metrics, PER_LAYER
        for line in report.table():
            print(line)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        metrics, units = end_to_end(results, setup, peak_rss), END_TO_END
        for key in END_TO_END:
            print(f"# {key}: {DEFINITIONS[key]}")
        latency = np.concatenate([np.frombuffer(r.latency_ns, dtype=np.int64) for r in results])
        walls = [r.wall for r in results]
        p50, p90, p99 = (percentile(latency, q) / 1e3 for q in (50, 90, 99))
        print(f"# not gated: latency over all {len(latency)} requests p50 {p50:.1f} us, "
              f"p90 {p90:.1f} us, p99 {p99:.1f} us; operation wall min {min(walls):.4g} s, "
              f"max {max(walls):.4g} s")
    for key, unit in units.items():
        print(f"{key:<44} {metrics[key]:>16.6g} {unit}")
    print(f"{'failed_ratio':<44} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
