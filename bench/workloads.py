"""The four benchmark workloads, each a deck of calls into one eicomb suite.

A deck is a list of call arguments generated from the benchmark seed; the
library sees only those arguments.  Decks are built in rounds, each round
calling every row of the workload once, the mix the suite itself runs.
The first round is the check set (descent: its first six calls).

Every workload has three parts:

* ``deck(seed)``: the call arguments, in order;
* ``call(entry)``: the timed call into the library;
* ``verify(entry, out)``: the untimed correctness check.  It returns the
  number of verified items and a canonical record of the output values,
  and raises ``CheckFailed`` when the output is wrong.

Seed-independent expectations (sweep hypothesis flags, descent verdicts
and objectives, area certified-point counts) come from ``reference.json``
and are checked on every call; at the default seed the check set's values
are compared there too.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from eicomb import area, bounds, cli, optimizer
from eicomb.functionals import Functional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

H_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DESCENT_ENSEMBLES = ((3, 6), (5, 10))
# extremal_channel_cells restarts from seeds 0..19 in the C8 claim suite
DESCENT_SEEDS = 20
AREA_ENSEMBLES = ("100,200", "50,100", "30,60", "20,40")
SWEEP_RUNNERS = {
    "upper": "upper_bound_sweep",
    "lower": "lower_bound_sweep",
    "extremes": "fixed_error_sweep",
}


class CheckFailed(Exception):
    """An output failed its workload's correctness check."""


def _seed_stream(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng((seed, sum(map(ord, workload))))


def descent_key(ens, h, minimize, s) -> str:
    return f"{ens[0]},{ens[1]}|{h!r}|{'min' if minimize else 'max'}|{s}"


def values_match(got, want, rtol: float, atol: float) -> bool:
    """Same structure; floats within atol + rtol*|want|, everything else equal."""
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(values_match(g, w, rtol, atol) for g, w in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= atol + rtol * abs(want)
    return got == want


class Workload:
    """Defaults shared by the workloads.

    ``rows`` are the cells of one round, ``rounds`` how many rounds a deck
    holds (more than a 25 s run calls; a longer one starts over) and ``trace_calls`` the size of the
    traced prefix.
    """

    name: str
    rows: tuple
    trace_calls: int
    csv_bytes = 0  # CSV bytes the calls wrote; only the area workload writes any

    def __init__(self, reference: dict):
        self.reference = reference

    @property
    def check_calls(self) -> int:
        """Size of the check set, the first entries of the deck: one round."""
        return len(self.rows)


class Ineq(Workload):
    """C4: ``inequality_suite(seed_k, trials, codes=(c,))``, one call per (code, seed).

    A round calls every catalog code once, as ``eicomb suite ineq`` does.
    """

    name = "ineq"
    trials = 20
    rounds = 500
    trace_calls = 198

    def __init__(self, reference: dict):
        super().__init__(reference)
        self.rows = tuple(range(4, 13))

    def deck(self, seed: int) -> list:
        rng = _seed_stream(seed, self.name)
        return [(code, int(rng.integers(2**31))) for _ in range(self.rounds) for code in self.rows]

    def call(self, entry):
        code, seed_k = entry
        return bounds.inequality_suite(seed_k, self.trials, codes=(code,))

    def verify(self, entry, out):
        code, _ = entry
        reports, summaries = out
        tol = bounds.EXACT_SLACK_TOL
        if len(reports) != self.trials or summaries[code].trials != self.trials:
            raise CheckFailed(f"ineq{code}: {len(reports)} reports for {self.trials} trials")
        bad = [r for r in reports if r.violated(tol)]
        if bad or summaries[code].violations:
            raise CheckFailed(f"ineq{code}: violation, slack {bad[0].slack if bad else '?'}")
        return len(reports), [[r.kind, r.params, r.lhs, r.rhs] for r in reports]


class Sweep(Workload):
    """C5: one ``*_sweep`` call per (kind, rho, tag) row over the default levels."""

    name = "sweep"
    per_cell = 5
    rounds = 40
    trace_calls = 48

    def __init__(self, reference: dict):
        super().__init__(reference)
        self.rows = tuple(
            (kind, ri, tag)
            for kind in SWEEP_RUNNERS
            for ri in range(len(bounds.DEFAULT_SWEEP_RHOS))
            for tag in bounds.SERIES_TAGS
        )

    def deck(self, seed: int) -> list:
        rng = _seed_stream(seed, self.name)
        return [row + (int(rng.integers(2**31)),) for _ in range(self.rounds) for row in self.rows]

    @staticmethod
    def row_key(entry) -> str:
        kind, ri, tag, _ = entry
        return f"{kind}|{bounds.DEFAULT_SWEEP_RHOS[ri]}|{tag.value}"

    def call(self, entry):
        kind, ri, tag, seed_k = entry
        runner = getattr(bounds, SWEEP_RUNNERS[kind])
        return runner(
            seed_k, rhos=(bounds.DEFAULT_SWEEP_RHOS[ri],), tags=(tag,), per_cell=self.per_cell
        )

    def verify(self, entry, out):
        reports, summary = out
        tol = bounds.SWEEP_SLACK_TOL
        # one flag per (level, bound) cell, shared by the cell's per_cell reports
        want = self.reference["sweep"]["hypothesis_flags"][self.row_key(entry)]
        if [r.hypothesis_ok for r in reports] != [f for f in want for _ in range(self.per_cell)]:
            raise CheckFailed(f"{self.row_key(entry)}: hypothesis flags differ from the reference")
        bad = [r for r in reports if r.violated(tol)]
        if bad or summary.violations:
            raise CheckFailed(f"{self.row_key(entry)}: violation in {bad[0].params if bad else '?'}")
        return len(reports), [[r.kind, r.lhs, r.rhs, r.hypothesis_ok] for r in reports]


class Descent(Workload):
    """C8: ``coordinate_descent(area_poly, H, h, minimize=..., seed=s)``.

    A round calls every (h, direction, ensemble) cell once, as
    ``extremal_channel_cells`` does, each with a restart seed drawn from
    the claim suite's 0..19.
    """

    name = "descent"
    rounds = 8
    # one h, both directions and ensembles; a whole round takes about 7 s
    check_calls = 6
    trace_calls = 12

    def __init__(self, reference: dict):
        super().__init__(reference)
        self.polys = {ens: area.EnsembleParams(*ens).area_poly for ens in DESCENT_ENSEMBLES}
        self.rows = tuple(
            (ens, h, minimize)
            for h in H_GRID
            for minimize in (True, False)
            for ens in DESCENT_ENSEMBLES
        )

    def deck(self, seed: int) -> list:
        rng = _seed_stream(seed, self.name)
        return [
            row + (int(rng.integers(DESCENT_SEEDS)),)
            for _ in range(self.rounds)
            for row in self.rows
        ]

    def call(self, entry):
        ens, h, minimize, s = entry
        return optimizer.coordinate_descent(
            self.polys[ens], Functional.H, h, minimize=minimize, seed=s
        )

    def verify(self, entry, out):
        minimize = entry[2]
        key = descent_key(*entry)
        steps = np.diff([t.objective for t in out.trace])
        if not (np.all(steps <= 0.0) if minimize else np.all(steps >= 0.0)):
            raise CheckFailed(f"{key}: non-monotone descent trace")
        want_verdict, want_objective = self.reference["descent"]["cells"][key]
        if out.verdict.value != want_verdict:
            raise CheckFailed(f"{key}: verdict {out.verdict.value}, reference {want_verdict}")
        if not values_match(out.objective, want_objective, **self.reference["tolerance"]):
            raise CheckFailed(f"{key}: objective {out.objective!r}, reference {want_objective!r}")
        return 1, [out.verdict.value, out.objective, out.running_objective, out.sweeps]


class Area(Workload):
    """C7: ``eicomb suite area`` through ``cli.main`` on high-degree ensembles.

    A round calls every ensemble once.
    """

    name = "area"
    trials = 6
    rounds = 400
    rows = AREA_ENSEMBLES
    trace_calls = 60

    def __init__(self, reference: dict, out_dir: Path):
        super().__init__(reference)
        self.csv_path = out_dir / "area.csv"

    def deck(self, seed: int) -> list:
        rng = _seed_stream(seed, self.name)
        return [(ens, int(rng.integers(2**31))) for _ in range(self.rounds) for ens in self.rows]

    def call(self, entry):
        ens, seed_k = entry
        argv = ["suite", "area", "--ensemble", ens, "--seed", str(seed_k),
                "--trials", str(self.trials), "--out", str(self.csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def verify(self, entry, out):
        ens, _ = entry
        if out != cli.EXIT_OK:
            raise CheckFailed(f"area {ens}: exit code {out}")
        data = self.csv_path.read_bytes()
        self.csv_bytes += len(data)
        lines = data.decode("utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        certified = [row for row in rows if row[4] == "1" and row[5] == "1"]
        want = self.reference["area"]["certified_points"][ens]
        if len(certified) != want:
            raise CheckFailed(f"area {ens}: {len(certified)} certified points, reference {want}")
        return len(certified) * self.trials, [float(row[6]) for row in certified]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def make(name: str, out_dir: Path, reference: dict):
    if name == "area":
        return Area(reference, out_dir)
    return {"ineq": Ineq, "sweep": Sweep, "descent": Descent}[name](reference)
