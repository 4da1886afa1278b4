"""Record bench/reference.json from the current sources.

    python3 bench/record_reference.py

The reference holds what the benchmark checks outputs against:

* sweep: the hypothesis flag of every (kind, rho, tag, level) cell, which
  does not depend on the seed;
* descent: verdict and objective of every (ensemble, h, direction, restart
  seed) cell the deck can draw; (3,6) h=0.1 max is MIXED, the documented
  C8 mathematics;
* area: the certified-point count of every ensemble;
* every workload: the values of its check set at the default seed;
* tolerance: how far a recorded value may move.
"""

from __future__ import annotations

import json
import os
import sys

import run

for _var in run.BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import harness  # noqa: E402,F401  (imports eicomb from src/)
import workloads  # noqa: E402
from eicomb import cli  # noqa: E402

# Values may move by this much: tight enough that a dropped series tail or
# a wrong term shows, loose enough for a change of summation order.
TOLERANCE = {"rtol": 1e-10, "atol": 1e-14}


def main() -> int:
    reference: dict = {"default_seed": run.DEFAULT_SEED, "tolerance": TOLERANCE}

    sweep = workloads.Sweep(reference)
    flags = {}
    for row in sweep.rows:
        entry = row + (0,)
        reports, _ = sweep.call(entry)
        flags[sweep.row_key(entry)] = [r.hypothesis_ok for r in reports[:: sweep.per_cell]]
    reference["sweep"] = {"hypothesis_flags": flags}

    descent = workloads.Descent(reference)
    cells = {}
    for ens in workloads.DESCENT_ENSEMBLES:
        for h in workloads.H_GRID:
            for minimize in (True, False):
                for s in range(workloads.DESCENT_SEEDS):
                    out = descent.call((ens, h, minimize, s))
                    cells[workloads.descent_key(ens, h, minimize, s)] = [
                        out.verdict.value, out.objective
                    ]
    reference["descent"] = {"cells": cells}

    out_dir = run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    area = workloads.Area(reference, out_dir)
    counts = {}
    for ens in workloads.AREA_ENSEMBLES:
        if area.call((ens, 0)) != cli.EXIT_OK:
            raise SystemExit(f"suite area failed for ensemble {ens}")
        rows = [line.split(",") for line in area.csv_path.read_text().splitlines()[1:]]
        counts[ens] = sum(1 for row in rows if row[4] == "1" and row[5] == "1")
    reference["area"] = {"certified_points": counts}

    for name in run.WORKLOADS:
        wl = workloads.make(name, out_dir, reference)
        deck = wl.deck(run.DEFAULT_SEED)
        reference.setdefault(name, {})["check_values"] = [
            wl.verify(entry, wl.call(entry))[1] for entry in deck[: wl.check_calls]
        ]

    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
