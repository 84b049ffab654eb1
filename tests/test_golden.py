"""The golden corpus (``tests/golden``): every case gives the bytes it gave
when the corpus was written.  A change that moves them on purpose reruns
``python tests/golden/update.py`` and commits the diff."""

import importlib.util
from pathlib import Path

import pytest

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
