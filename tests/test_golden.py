"""The golden corpus (``tests/golden``): every case gives the bytes it gave
when the corpus was written.  A change that moves them on purpose reruns
``python tests/golden/update.py`` and commits the diff.  The corpus laws of
finite range also check the paper's bound against the exact variation."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from artifact.cli import load_config, main, parse_config

_spec = importlib.util.spec_from_file_location("golden_update", Path(__file__).parent / "golden" / "update.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = golden.load_cases()


def test_every_case_has_its_expected_bytes_and_nothing_else_does():
    assert sorted(p.name for p in golden.EXPECTED.iterdir()) == sorted(c["name"] for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_case_reproduces_its_bytes(case, tmp_path):
    doc, report = golden.run_case(case, tmp_path)
    expected = golden.EXPECTED / case["name"]
    assert golden.run_json(doc) == (expected / "run.json").read_text()
    stored = expected / "report.json"
    assert report == (stored.read_bytes() if stored.exists() else None)


# Laws beyond the corpus whose exact var_n(log g) is checked against the
# 60-digit oracle in test_kernel.py.
ORACLE_LAWS = [
    {"kind": "finite_table", "beta": 5.0, "values": [1.0] * 6},
    {"kind": "finite_table", "beta": 0.7, "values": [1.0, 0.5, 0.25, 0.1]},
    {"kind": "power_law", "beta": 0.3, "q": 1.2, "truncation_range": 10},
]


def bounds_configs():
    """(name, config) of every corpus case that writes bounds.csv for a law
    of finite range at most 10, then of the oracle laws."""
    for case in CASES:
        command = case.get("argv", [""])[0]
        if command not in ("bounds", "report") or "config_text" in case:
            continue
        if "config_file" in case:
            cfg = load_config(golden.REPO / case["config_file"])
        else:
            cfg = parse_config(case["config"])
        R = cfg.build_potential().finite_range
        if R is not None and R <= 10 and (command == "bounds" or "bounds" in cfg.experiments):
            yield case["name"], {**cfg.as_doc(), "experiments": ["bounds"]}
    for law in ORACLE_LAWS:
        yield f"oracle {law}", {"potential": law, "experiments": ["bounds"], "n_max": 12, "empirical_window": 12}


def test_the_exact_column_of_bounds_lies_below_the_certified_bound(tmp_path):
    # the paper's claim on every finite-range law the tests know, with no tolerance
    filled = []
    for k, (name, doc) in enumerate(bounds_configs()):
        out = tmp_path / str(k)
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps(doc))
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0, name
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        column = [(int(r["n"]), float(r["empirical_log_r"]), float(r["log_r_bound_hi"]))
                  for r in rows if r["empirical_log_r"]]
        for n, exact, hi in column:
            assert exact <= hi, (name, n)
        if column:
            filled.append(name)
    assert {"report-all-truncated_r6", "bounds-truncated_r8"} <= set(filled) and len(filled) >= 6
