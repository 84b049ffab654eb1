"""The three workloads: what each process runs and how its output is checked.

Every operation runs in a fresh ``gibbs1d`` process, as a user runs it.  A
``cli`` process is one operation; the ``lib`` process of
``finite_range_exact`` makes several library calls, each one operation.
The seed sets the sampler seed of ``sample``/``couple`` and the rows that
the tail and log-ratio checks spot-check; every other input is fixed, so
the operations that fail (the known fault below) fail on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("longrange_bounds", "finite_range_exact", "check_sweep")

# kernel.window_weight multiplies unnormalised weights; on the nearest-neighbour
# chain at beta = 1 they overflow from 872 sites on and pi_window_at_zero
# returns NaN.  Those windows stay in the workload as failed operations.
OVERFLOW_WINDOW = 872

POWER = "power_law"


def _law(kind, beta, **kw) -> dict:
    return {"kind": kind, "beta": beta, **kw}


INVERSE_SQUARE = _law(POWER, 0.3, q=2.0)
NEAREST_NEIGHBOUR = _law("finite_table", 1.0, values=[1.0])
TRUNCATED_6 = _law(POWER, 0.3, q=2.0, truncation_range=6)


@dataclass(frozen=True)
class Proc:
    """One process of a round: ``gibbs1d <command>`` on ``config``, or a batch
    of library calls (``job``)."""

    name: str
    mode: str  # "cli" or "lib"
    command: str = ""
    config: dict = None
    job: dict = None


def _cli(name, command, law, **fields) -> Proc:
    experiments = ["criteria"] if command == "check" else fields.pop("experiments")
    return Proc(name, "cli", command, {"potential": law, "experiments": experiments, **fields})


def build(workload: str, smoke: bool = False) -> list:
    """The processes of one round of ``workload`` (tiny sizes when ``smoke``)."""
    if workload == "longrange_bounds":
        bounds = ["criteria", "bounds"]
        procs = [
            _cli("inverse_square", "report", INVERSE_SQUARE, experiments=bounds, n_max=8 if smoke else 100),
            _cli("q3", "report", _law(POWER, 0.5, q=3.0), experiments=bounds, n_max=4 if smoke else 16),
            _cli("q1.5", "report", _law(POWER, 0.3, q=1.5), experiments=bounds, n_max=3),
            _cli("exponential", "report", _law("exponential", 0.5, rate=0.5), experiments=bounds,
                 n_max=3 if smoke else 8),
        ]
        # the q = 1.5 tails take seconds even at one row; the smoke run leaves them out
        return [p for p in procs if not (smoke and p.name == "q1.5")]
    if workload == "finite_range_exact":
        sites = 4096 if smoke else 1 << 20
        calls = [
            {"name": f"cesaro_estimate R=6 boundary={b:+d}", "op": "cesaro_estimate", "potential": TRUNCATED_6,
             "n": 32 if smoke else 256, "boundary": b}
            for b in (1, -1)
        ]
        windows = (64, 1024) if smoke else (64, 128, 256, 512, 1024, 2048, 4096)
        calls += [
            {"name": f"pi_window_at_zero n={n}", "op": "pi_window_at_zero", "potential": NEAREST_NEIGHBOUR,
             "n": n, "s": 1, "past": -1, "known_fault": n >= OVERFLOW_WINDOW}
            for n in windows
        ]
        return [
            _cli("nearest_neighbour", "report", NEAREST_NEIGHBOUR, experiments=["all"], n_max=24,
                 sample_length=4096 if smoke else 65536, couple_length=4096 if smoke else 65536),
            _cli("truncated_r6", "report", TRUNCATED_6, experiments=["all"], n_max=24,
                 sample_length=sites, couple_length=sites, empirical_window=4 if smoke else 10),
            Proc("library", "lib", job={"calls": calls}),
        ]
    if workload == "check_sweep":
        laws = [(f"inverse_square c={b}", _law(POWER, b, q=2.0)) for b in (0.2, 0.25, 0.3, 0.45, 0.5, 0.55)]
        laws += [
            ("q1.5", _law(POWER, 0.3, q=1.5)),
            ("q3", _law(POWER, 0.5, q=3.0)),
            ("exponential", _law("exponential", 0.5, rate=0.5)),
            ("zero", _law("zero", 1.0)),
            ("nearest_neighbour", NEAREST_NEIGHBOUR),
            ("truncated_r6", TRUNCATED_6),
            ("truncated_r12", _law(POWER, 0.3, q=2.0, truncation_range=12)),
        ]
        if smoke:
            laws = [laws[0], laws[5], laws[10]]
        return [_cli(name, "check", law) for name, law in laws]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check_cli(proc: Proc, art: Path, seed: int) -> list:
    """Errors in the artifacts a CLI process wrote to ``art``."""
    law = proc.config["potential"]
    report = json.loads((art / "report.json").read_text())
    results = report["results"]
    errors = []
    for name, doc in results.items():
        if "error" in doc:
            errors.append(f"{name}: {doc['error']}")
    if errors:
        return errors
    if "criteria" in results:
        errors += checks.check_verdicts(law, results["criteria"])
    if "bounds" in results:
        rows = checks.read_rows(art / "bounds.csv")
        spots = checks.spot_rows(seed, proc.name, proc.config["n_max"])
        errors += checks.check_tails(law, rows, spots)
        errors += checks.check_log_ratio(law, rows, spots)
        if checks.finite_range(law) is not None:
            errors += checks.check_finite_range_bounds(law, rows)
    if "gfun" in results:
        errors += checks.check_gfun(law, checks.read_rows(art / "gfun.csv"), results["gfun"])
    if "sample" in results:
        letters = np.loadtxt(art / "sample.csv", delimiter=",", skiprows=1, dtype=np.int64)[:, 1]
        errors += checks.check_sample(law, letters)
    if "couple" in results:
        table = np.loadtxt(art / "couple.csv", delimiter=",", skiprows=1, dtype=np.int64)
        errors += checks.check_couple(law, table)
    return errors


def check_lib(proc: Proc, results: list) -> list:
    """(operation name, errors, known fault) for each library call."""
    by_name = {r["name"]: r for r in results}
    out = []
    cesaro = {}
    for call in proc.job["calls"]:
        res = by_name.get(call["name"], {"error": "no result"})
        errors = [res["error"]] if "error" in res else []
        if not errors and call["op"] == "pi_window_at_zero":
            errors = checks.check_pi_window(call["potential"], call["past"], call["s"], res["value"], res["g_exact"])
        if not errors and call["op"] == "cesaro_estimate":
            cesaro[call["boundary"]] = res["value"]
        out.append([call["name"], errors, bool(call.get("known_fault"))])
    # the two Cesaro estimates are checked together; a failed pair fails both
    pair = checks.check_cesaro(cesaro[1], cesaro[-1]) if len(cesaro) == 2 else ["Cesaro pair incomplete"]
    for entry in out:
        if entry[0].startswith("cesaro_estimate"):
            entry[1] = entry[1] + pair
    return [tuple(e) for e in out]
