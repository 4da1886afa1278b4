"""eicomb benchmark: four suite workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload ineq --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all           # every workload, one table

Each workload is a closed loop: one caller in one process, each call into
the suite's entry point starting when the previous one returns.  Every
workload process is fresh, imports eicomb from ``src/`` of this checkout
and runs on one CPU with BLAS pinned to one thread.  ``workloads.py`` defines the
calls, ``BENCHMARK.json`` why each workload is there, and
``metric_map.json`` which end-to-end metric each per-layer metric should
move.

``--trace 0`` reports the end-to-end metrics.  The parent process starts
SETUP_REPS set-up-only workload processes, each reporting when its set-up
(interpreter, import, deck generation and one warm-up call) is done, and
then the timed one, which calls the deck for ``--seconds`` (and at least
100 calls), checks every output, and re-runs the check set to compare
output digests.  Every time is scaled to a reference host speed by the
probe in ``speed.py``, timed next to it.

    call_gmean_ms  geometric mean latency of one call
    setup_s        median set-up time of the SETUP_REPS processes
    throughput     verified items per second of call time; an item is one
                   judged BoundReport (ineq, sweep), one finished descent
                   (descent), or one area evaluation, certified points x
                   trials read from the CSV (area)
    call_p50_ms    median latency of one call
    call_p90_ms    90th-percentile latency of one call
    peak_rss_mb    ru_maxrss of the timed process
    error_rate     failed / attempted calls, carried by the result's
                   ``failed`` and ``attempted``

Only the first two are in the result line, and bounded by BENCHMARK.json;
the others are printed.  Throughput, p50, p90 and peak memory do not
repeat across seeds, for reasons of the workloads, not of the host:
sweep's call costs are heavy-tailed (a few calls in a run take up to a
quarter of its time, so its throughput and p90 move with the seed's
slowest draws); descent's calls fall in two equal clusters, (3,6) near
60 ms and (5,10) near 300 ms, so its median lies in the gap between them;
and ineq's peak memory follows the series caches, which grow as far as the
seed's nearest-to-perfect channel needs.  The geometric mean averages the
logarithms of the call times, so a few slow calls move it little, and it
has no gap to fall into.

``--trace 1`` reports the per-layer metrics: the workload process runs a
fixed prefix of the deck untraced, then again with the eicomb functions
wrapped by ``layers.py``, and writes the spans to ``.bench_out/``.

Each workload prints its metrics with units and sample counts, then an
``env`` line (git sha, source digest, CPUs, Python and numpy versions,
BLAS settings, seed, call and item counts), which also goes to
``.bench_out/result-*.json`` with every call's latency.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("ineq", "sweep", "descent", "area")
DEFAULT_SEED = 0

# set-up-only processes started before the timed one
SETUP_REPS = 7
# every workload process of one run is killed this long after the run starts
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

E2E_UNITS = {
    "call_gmean_ms": "ms",
    "setup_s": "s",
    "throughput": "items/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# the end-to-end metrics in the result line, which BENCHMARK.json bounds;
# the others are printed only (see the module docstring)
GATED = ("call_gmean_ms", "setup_s")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


class ChildError(RuntimeError):
    pass


def _spawn(mode: str, name: str, seed: int, seconds: float,
           deadline: float) -> tuple[float, dict | None]:
    """Start a workload process; return (set-up seconds, its result or None).

    The process is killed if it is still running at `deadline`
    (a time.monotonic() value).
    """
    cmd = [sys.executable, str(HERE / "harness.py"), mode, name, str(seed), str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise ChildError(f"{mode} process for {name} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _scaled_setup(name: str, seed: int, seconds: float, deadline: float) -> float:
    """One set-up-only process; its set-up time scaled by the probe it runs after set-up."""
    setup, res = _spawn("setup", name, seed, seconds, deadline)
    return setup * speed.REF_S / res["probe_s"]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eicomb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(name: str, seed: int, trace: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "loop": "closed, 1 caller, 1 process pinned to 1 CPU",
        "speed_ref_s": speed.REF_S,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (the contract's result object, the full record)."""
    record = environment(name, seed, trace)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        _, res = _spawn("trace", name, seed, seconds, deadline)
        metrics = {key: {"value": value, "unit": _layer_unit(key)}
                   for key, value in res.pop("per_layer").items()}
    else:
        setups = [_scaled_setup(name, seed, seconds, deadline) for _ in range(SETUP_REPS)]
        _, res = _spawn("timed", name, seed, seconds, deadline)
        record["setup_samples_s"] = setups
        values = {
            "call_gmean_ms": res["gmean_s"] * 1e3,
            "setup_s": statistics.median(setups),
            "throughput": res["items"] / res["timed_s"],
            "call_p50_ms": res["p50_s"] * 1e3,
            "call_p90_ms": res["p90_s"] * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record["e2e"] = {key: {"value": v, "unit": E2E_UNITS[key]} for key, v in values.items()}
        metrics = {key: record["e2e"][key] for key in GATED}
    per_call = res.pop("per_call", None)
    record.update(res)
    record["error_rate"] = res["failed"] / res["attempted"]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result, per_call=per_call), fh, indent=1)
    return result, record


def _layer_unit(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def _print_result(name: str, result: dict, record: dict) -> None:
    samples = record.get("calls")
    for key, metric in record.get("e2e", result["metrics"]).items():
        n = len(record["setup_samples_s"]) if key == "setup_s" else samples
        print(f"{name:8s} {key:44s} {metric['value']:14.6g} {metric['unit']:8s} n={n}")
    print(f"{name:8s} {'error_rate':44s} {record['error_rate']:14.6g} {'ratio':8s} "
          f"n={record['attempted']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eicomb" / "__init__.py").is_file():
        print(f"error: no eicomb sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
            _print_result(name, result, record)
            print("env " + json.dumps(record))
            results[name] = result
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
