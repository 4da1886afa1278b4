"""Self-test of the benchmark at a tiny scale.

    python3 bench/selftest.py

Runs every workload once untraced (``--seconds 1``) and twice traced, all
at the default seed, through the same command line a benchmark run uses.
It checks that:

* the last output line has exactly the keys correct, attempted, failed
  and metrics, and every metric named in BENCHMARK.json is there with its
  unit (end-to-end untraced, per-layer traced), and the untraced run
  prints every end-to-end metric, bounded or not;
* no call failed, so error_rate is 0 at the default seed;
* the traced counts and the check-set digest repeat exactly between the
  two traced runs;
* every per-layer metric has an entry in metric_map.json.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def check_result(result: dict, expected: list[dict], where: str) -> list[str]:
    problems = []
    if set(result) != KEYS:
        problems.append(f"{where}: keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metric_map.json").read_text())["per_layer"]
    problems = [f"metric_map.json lacks {m['name']}" for m in spec["per_layer"]
                if m["name"] not in metric_map]
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    for wl in (w["name"] for w in spec["workloads"]):
        result, env = run(wl, 0)
        problems += check_result(result, spec["end_to_end"], f"{wl} trace=0")
        if set(env["e2e"]) != set(E2E_UNITS):
            problems.append(f"{wl}: printed end-to-end metrics {sorted(env['e2e'])}")
        traced = [run(wl, 1) for _ in range(2)]
        for result, _ in traced:
            problems += check_result(result, spec["per_layer"], f"{wl} trace=1")
        (first, env1), (second, env2) = traced
        for name in sorted(counts):
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                problems.append(f"{wl}: {name} differs between traced runs: {a} vs {b}")
        if env1["check_digest"] != env2["check_digest"]:
            problems.append(f"{wl}: check-set digest differs between runs")
        print(f"{wl}: done", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
