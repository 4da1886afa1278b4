"""The workload process: set up one workload, run it, check it, report.

    python3 bench/harness.py {setup,timed,trace} WORKLOAD SEED SECONDS

``bench/run.py`` starts this process; it is not meant to be run by hand.
It prints ``ready`` once set-up is done (eicomb imported from ``src/``,
deck generated, one warm-up call made) and then one JSON line: the speed
probe's time in ``setup`` mode, the result in the others.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from run import DEFAULT_SEED, OUT_DIR, SRC

sys.path.insert(0, str(SRC))
import eicomb  # noqa: E402

if Path(eicomb.__file__).resolve().parent != (SRC / "eicomb").resolve():
    raise SystemExit(f"eicomb imported from {eicomb.__file__}, not from {SRC}")

import numpy  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# p90 needs at least 10 samples beyond it
MIN_CALLS = 100
# the timed loop stops here even short of MIN_CALLS, so the run ends in time
HARD_STOP_S = 120.0
# the host speed probe runs before a call once this long has passed since
# the last probe, and once more after the loop
PROBE_EVERY_S = 0.5


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


class Ledger:
    """Runs calls of one workload, checks them and keeps the tallies."""

    def __init__(self, wl, deck):
        self.wl, self.deck = wl, deck
        self.attempted = self.failed = 0
        self.digests: dict[int, str] = {}
        self.values: dict[int, list] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"[{self.wl.name}] FAILED: {message}", file=sys.stderr)

    def run(self, i: int) -> tuple[float, int] | None:
        """Call deck entry i, time it, verify it and compare its digest.

        Returns (seconds, verified items), or None if the call failed.
        """
        entry = self.deck[i]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.call(entry)
        except Exception:
            self.fail(f"entry {i} {entry!r} raised\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        try:
            items, values = self.wl.verify(entry, out)
        except workloads.CheckFailed as exc:
            self.fail(f"entry {i}: {exc}")
            return None
        digest = _digest(values)
        if self.digests.setdefault(i, digest) != digest:
            self.fail(f"entry {i} {entry!r}: output digest differs between runs")
            return None
        if i < self.wl.check_calls:
            self.values[i] = values
        return elapsed, items

    def check_reference(self, reference: dict) -> None:
        """At the default seed, compare the check set with the recorded values."""
        tol = reference["tolerance"]
        for i, expected in enumerate(reference[self.wl.name]["check_values"]):
            if i in self.values and not workloads.values_match(self.values[i], expected, **tol):
                self.fail(f"entry {i}: values differ from the reference at seed {DEFAULT_SEED}")

    def check_digest(self) -> str:
        return _digest([self.digests.get(i) for i in range(self.wl.check_calls)])


def scale(calls: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """Scale each (start, seconds) call to the reference host speed.

    A call's host speed is the mean of the probe before it and the probe
    after it; `probes` holds (time, probe seconds) in time order, with one
    probe before the first call and one after the last.
    """
    at = [t for t, _ in probes]
    out = []
    for start, secs in calls:
        k = bisect.bisect_right(at, start)
        near = statistics.fmean(p for _, p in probes[k - 1:k + 1])
        out.append(secs * speed.REF_S / near)
    return out


def timed(ledger: Ledger, seconds: float) -> dict:
    """The closed loop: call deck entries in order for `seconds`.

    Calls are timed one by one and scaled by the host speed probe (see
    speed.py), which runs between calls and is not timed.
    """
    deck = ledger.deck
    calls: list[tuple[float, float]] = []
    items = 0
    probes = [(time.perf_counter(), speed.probe())]
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if now - start >= HARD_STOP_S or (now - start >= seconds and i >= MIN_CALLS):
            break
        if now - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((now, speed.probe()))
        done = ledger.run(i % len(deck))
        if done is not None:
            calls.append((now, done[0]))
            items += done[1]
        i += 1
    loop_s = time.perf_counter() - start
    probes.append((time.perf_counter(), speed.probe()))
    lat = scale(calls, probes)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else 0.0
    for j in range(min(ledger.wl.check_calls, len(deck))):
        ledger.run(j)  # second run of the check set: digests must agree
    return {
        "calls": len(lat),
        "items": items,
        "loop_s": loop_s,
        "measured_s": sum(secs for _, secs in calls),
        "timed_s": sum(lat),
        "gmean_s": statistics.geometric_mean(lat) if lat else 0.0,
        "p50_s": statistics.median(lat) if lat else 0.0,
        "p90_s": p90,
        "beyond_p90": sum(1 for x in lat if x > p90),
        "probes_s": [p for _, p in probes],
        "per_call": lat,
    }


def traced(ledger: Ledger, name: str, seed: int) -> dict:
    """A fixed prefix of the deck, untraced and then traced."""
    wl = ledger.wl
    count = min(wl.trace_calls, len(ledger.deck))
    start = time.perf_counter()
    for j in range(count):
        ledger.run(j)
    untraced_s = time.perf_counter() - start
    wl.csv_bytes = 0
    tracer = Tracer()
    layers.install(tracer)
    start = time.perf_counter()
    try:
        for j in range(count):
            ledger.run(j)
    finally:
        traced_s = time.perf_counter() - start
        tracer.uninstall()
    per_layer = layers.metrics(tracer)
    per_layer["cli.csv_bytes"] = wl.csv_bytes
    per_layer["trace.overhead_ratio"] = traced_s / untraced_s
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    return {
        "calls": count,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "per_layer": per_layer,
        "ratio_bases": layers.bases(tracer),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    # One CPU for the whole run, so that the speed probe and the calls it
    # scales run on the same CPU: the two CPUs of a shared VM slow down apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    reference = workloads.load_reference()
    wl = workloads.make(name, OUT_DIR, reference)
    ledger = Ledger(wl, wl.deck(seed))
    ledger.run(0)  # warm-up
    print("ready", flush=True)
    if mode == "setup":
        # the host speed right after set-up, to scale the set-up time by
        print(json.dumps({"probe_s": speed.probe()}), flush=True)
        return 0
    result = timed(ledger, seconds) if mode == "timed" else traced(ledger, name, seed)
    if seed == DEFAULT_SEED:
        ledger.check_reference(reference)
    result.update(
        numpy=numpy.__version__,
        python=platform.python_version(),
        attempted=ledger.attempted,
        failed=ledger.failed,
        check_digest=ledger.check_digest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
