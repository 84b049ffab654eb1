"""Tests of the benchmark itself: every check rejects a corrupted output, and a
smoke run of every workload finishes in seconds.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ISQ = {"kind": "power_law", "beta": 0.3, "q": 2.0}
NN = {"kind": "finite_table", "beta": 1.0, "values": [1.0]}
R3 = {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 3}


def _gibbs1d(tmp: Path, name: str, config: dict) -> Path:
    (tmp / f"{name}.yaml").write_text(json.dumps(config))
    out = tmp / name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "artifact", "report", "--config", str(tmp / f"{name}.yaml"),
                    "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gibbs1d")
    return {
        "isq": _gibbs1d(tmp, "isq", {"potential": ISQ, "experiments": ["criteria", "bounds"], "n_max": 8}),
        "nn": _gibbs1d(tmp, "nn", {"potential": NN, "experiments": ["all"], "n_max": 6,
                                   "sample_length": 20000, "couple_length": 2000}),
        "r3": _gibbs1d(tmp, "r3", {"potential": R3, "experiments": ["all"], "n_max": 6,
                                   "sample_length": 20000, "couple_length": 2000, "empirical_window": 6}),
    }


def _results(art: Path) -> dict:
    return json.loads((art / "report.json").read_text())["results"]


def test_tail_check_rejects_endpoint_past_mpmath_value(outputs):
    rows = checks.read_rows(outputs["isq"] / "bounds.csv")
    assert checks.check_tails(ISQ, rows, range(1, 9)) == []
    bad = copy.deepcopy(rows)
    exact = float(ISQ["beta"] * checks.tail_exact(ISQ, 5))
    bad[4]["tail_variation_hi"] = repr(math.nextafter(exact, 0.0) * (1 - 1e-15))
    assert checks.check_tails(ISQ, bad, [5])
    bad = copy.deepcopy(rows)
    bad[4]["tail_variation_lo"] = repr(math.nextafter(exact, math.inf) * (1 + 1e-15))
    assert checks.check_tails(ISQ, bad, [5])


def test_log_ratio_check_rejects_bound_below_reference(outputs):
    rows = checks.read_rows(outputs["isq"] / "bounds.csv")
    assert checks.check_log_ratio(ISQ, rows, range(1, 9)) == []
    bad = copy.deepcopy(rows)
    bad[2]["log_r_bound_hi"] = repr(checks.log_ratio_bound(ISQ, 3) * (1 - 1e-6))
    assert checks.check_log_ratio(ISQ, bad, [3])


def test_log_ratio_reference_matches_closed_form_geometric_case():
    # the zero-range part of a truncated law: T(j+1) = 0 for j >= R, so for n >= R
    # the series diverges and the bound is exactly 0
    assert checks.log_ratio_bound(R3, 3) == 0.0
    # exponential law: R_n against a direct mpmath sum
    law = {"kind": "exponential", "beta": 0.5, "rate": 1.0}
    n = 1  # factors are at most c = exp(-beta T(2)) < 0.9, so 1000 terms leave < 1e-40
    T = lambda m: checks.tail_exact(law, m)  # noqa: E731
    c = checks.mpmath.exp(-0.5 * T(n + 1))
    total, prod = 0, 1
    for k in range(1000):
        prod *= checks.mpmath.exp(-0.5 * T(k + 1)) * c
        total += prod
    want = float(2 * checks.mpmath.log1p(1 / total))
    assert checks.log_ratio_bound(law, n) == pytest.approx(want, rel=1e-12)


def test_verdict_check_rejects_flipped_verdict(outputs):
    doc = _results(outputs["isq"])["criteria"]
    assert checks.check_verdicts(ISQ, doc) == []
    for name, flipped in (("berbee", "Holds"), ("variation_slope", "Fails"), ("ruelle", "Holds")):
        bad = copy.deepcopy(doc)
        for v in bad["verdicts"]:
            if v["criterion"] == name:
                v["outcome"] = flipped
        assert checks.check_verdicts(ISQ, bad), name
    bad = copy.deepcopy(doc)
    bad["strongest_conclusion"] = "unique Gibbs"
    assert checks.check_verdicts(ISQ, bad)


def test_gfun_check_rejects_row_off_by_1e_9(outputs):
    for key, law in (("nn", NN), ("r3", R3)):
        rows = checks.read_rows(outputs[key] / "gfun.csv")
        summary = _results(outputs[key])["gfun"]
        assert checks.check_gfun(law, rows, summary) == []
        bad = copy.deepcopy(rows)
        bad[-1]["prob_plus"] = repr(float(bad[-1]["prob_plus"]) + 1e-9)
        assert checks.check_gfun(law, bad, summary), key
        assert checks.check_gfun(law, rows, dict(summary, stationary_prob_plus=0.5 + 1e-9)), key


def test_gfun_closed_form_rejects_consistent_wrong_rows(outputs):
    # rows that still sum to 1 and stay symmetric, but miss e^{b/2} / (2 cosh(b/2))
    rows = checks.read_rows(outputs["nn"] / "gfun.csv")
    bad = copy.deepcopy(rows)
    for row in bad:
        shift = 1e-9 if row["past"] == "+" else -1e-9
        row["prob_plus"] = repr(float(row["prob_plus"]) + shift)
        row["prob_minus"] = repr(float(row["prob_minus"]) - shift)
    assert checks.check_gfun(NN, bad, _results(outputs["nn"])["gfun"])


def test_bounds_check_rejects_nonzero_beyond_range(outputs):
    rows = checks.read_rows(outputs["r3"] / "bounds.csv")
    assert checks.check_finite_range_bounds(R3, rows) == []
    bad = copy.deepcopy(rows)
    bad[4]["log_r_bound_hi"] = "1e-300"
    assert checks.check_finite_range_bounds(R3, bad)
    bad = copy.deepcopy(rows)
    bad[0]["empirical_log_r"] = repr(float(bad[0]["log_r_bound_hi"]) * 1.01)
    assert checks.check_finite_range_bounds(R3, bad)


def test_sample_check_rejects_wrong_persistence(outputs):
    for key, law in (("nn", NN), ("r3", R3)):
        letters = np.loadtxt(outputs[key] / "sample.csv", delimiter=",", skiprows=1, dtype=np.int64)[:, 1]
        assert checks.check_sample(law, letters) == []
        rng = np.random.default_rng(0)
        assert checks.check_sample(law, rng.choice([-1, 1], size=letters.size)), key


def test_persistence_closed_form_nearest_neighbour():
    assert checks.persistence_closed_form(NN) == pytest.approx(1 / (1 + math.exp(-1.0)), abs=1e-14)


def test_couple_check_rejects_disagreement_after_coalescence(outputs):
    table = np.loadtxt(outputs["r3"] / "couple.csv", delimiter=",", skiprows=1, dtype=np.int64)
    assert checks.check_couple(R3, table) == []
    bad = table.copy()
    bad[-1, 1] = -bad[-1, 2]
    bad[-1, 3] = 1
    assert checks.check_couple(R3, bad)
    bad = table.copy()
    bad[-1, 3] = 1 - bad[-1, 3]
    assert checks.check_couple(R3, bad)


def test_library_checks_reject_corrupted_values():
    assert checks.check_cesaro(0.25, 0.75) == []
    assert checks.check_cesaro(0.25, 0.75 + 1e-9)
    g = math.exp(-0.5) / (2 * math.cosh(0.5))
    assert checks.check_pi_window(NN, -1, 1, g, g) == []
    assert checks.check_pi_window(NN, -1, 1, g + 1e-9, g)
    assert checks.check_pi_window(NN, -1, 1, math.nan, g)


def test_spot_rows_follow_the_seed():
    assert checks.spot_rows(1, "a", 100) == checks.spot_rows(1, "a", 100)
    assert checks.spot_rows(1, "a", 100) != checks.spot_rows(2, "a", 100)
    assert checks.spot_rows(1, "a", 3) == [1, 2, 3]


def test_import_times_counts_outermost_matches_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |     numpy",
        "import time:        10 |        360 |   artifact.kernel",
        "import time:         5 |        365 | artifact",
        "import time:         7 |          7 | scipy.special",
    ])
    assert tracer.import_times(text, "scipy") == pytest.approx(307e-6)
    assert tracer.import_times(text, "artifact") == pytest.approx(365e-6)


def test_layer_metrics_split_self_time():
    funcs = {
        "cli.main": {"calls": 1, "total_s": 3.0, "self_s": 1.0, "amount": 0},
        "cli.load_config": {"calls": 1, "total_s": 0.5, "self_s": 0.2, "amount": 0},
        "cli.parse_config": {"calls": 1, "total_s": 0.3, "self_s": 0.3, "amount": 0},
        "kernel.window_weight": {"calls": 4, "total_s": 1.5, "self_s": 1.5, "amount": 0},
        "dynamics.cesaro_estimate": {"calls": 2, "total_s": 2.0, "self_s": 0.5, "amount": 0},
    }
    m = run.layer_metrics(funcs, 0.6, 0.3, 10)
    assert m["cli.config_s"] == 0.5
    assert m["cli.emit_s"] == 1.0
    assert m["kernel.window_weight_calls"] == 4
    assert m["dynamics.cesaro_s"] == 0.5
    assert set(m) == set(run.PER_LAYER)


def _smoke(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_every_workload(workload):
    proc = _smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    expected_failures = 1 if workload == "finite_range_exact" else 0
    rounds = result["attempted"] // len([op for p in workloads.build(workload, True)
                                        for op in (p.job["calls"] if p.mode == "lib" else [p])])
    assert result["failed"] == expected_failures * rounds
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _smoke("finite_range_exact", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["dynamics.sites"] == 2 * (4096 + 4096)
    assert m["kernel.window_weight_calls"] > 0 and m["criteria.evaluate_calls"] == 2
    assert "tracing overhead" in proc.stderr


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _smoke("check_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
