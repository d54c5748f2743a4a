"""Self-test of the benchmark at a tiny budget.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all four), a ``--trace 0`` and a ``--trace 1``
run at a tiny ``--seconds`` must print every metric that BENCHMARK.json
names, with its unit, both as a ``name value unit`` line and in the final
JSON line, and pass the golden gate at the default seed.  Then a
keysearch run against a golden file with one corrupted digest must
report failed operations and a failed_ratio above zero.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "0.1", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed_ratio(lines: list[str]) -> float:
    return float(next(line.split()[1] for line in lines if line.startswith("failed_ratio ")))


def check_metrics(label: str, lines: list[str], result: dict, specs: list[dict]) -> None:
    names = [s["name"] for s in specs]
    if sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"{label}: JSON metrics {sorted(result['metrics'])} != {sorted(names)}")
    for spec in specs:
        if result["metrics"][spec["name"]]["unit"] != spec["unit"]:
            raise SystemExit(f"{label}: {spec['name']} has unit {result['metrics'][spec['name']]['unit']}")
        if not any(line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"] for line in lines):
            raise SystemExit(f"{label}: no '{spec['name']} <value> {spec['unit']}' line")
    if not result["correct"] or result["failed"] or printed_ratio(lines) != 0:
        raise SystemExit(f"{label}: golden gate failed on the default seed")


def main() -> int:
    for workload in sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]:
        for trace, specs in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = f"{workload} --trace {trace}"
            lines, result = bench("--workload", workload, "--trace", trace)
            check_metrics(label, lines, result, specs)
            print(f"ok  {label}: {len(specs)} metrics with units, {result['attempted']} operations")

    golden = json.loads((HERE / "golden.json").read_text())
    digest = golden["keysearch"]["found_key"]
    golden["keysearch"]["found_key"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupt = HERE / "out" / "golden-corrupt.json"
    corrupt.parent.mkdir(exist_ok=True)
    corrupt.write_text(json.dumps(golden))
    lines, result = bench("--workload", "keysearch", "--trace", "0", "--golden", str(corrupt))
    if result["correct"] or not result["failed"] or printed_ratio(lines) <= 0:
        raise SystemExit("corrupted golden digest did not raise failed_ratio")
    print(f"ok  corrupted golden digest: failed {result['failed']}/{result['attempted']}, "
          f"failed_ratio {printed_ratio(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
