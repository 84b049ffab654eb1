"""The golden corpus: the bytes every case of ``cases.json`` produces.

A case runs ``gibbs1d`` in-process (``artifact.cli.main``) on its config in
a fresh directory, or runs a demo script.  What it produced is stored under
``expected/<name>/``:

* ``run.json``: the exit code, stdout and stderr, with the output directory
  written ``<out>`` and the config path ``<config>``, and the length and
  SHA-256 of every CSV the run wrote;
* ``report.json``: the report, byte for byte.

``manifest.json`` carries a timestamp and is left out.  A case gives its
config as a mapping (``config``, written as JSON), as a file of the
repository (``config_file``), or as raw text (``config_text``, for a
document ``json`` cannot hold as a value, such as an integer of 5,000
digits).  ``tests/test_golden.py`` reruns every case and compares.  A change
that moves bytes on purpose rewrites the corpus and commits the diff:

    python tests/golden/update.py
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import shutil
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
EXPECTED = HERE / "expected"


def load_cases() -> list:
    return json.loads((HERE / "cases.json").read_text())


def run_case(case: dict, work: Path):
    """(run document, report.json bytes or None) of one case, run in ``work``."""
    out, config = work / "out", work / "config.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if "script" in case:
            runpy.run_path(str(REPO / case["script"]), run_name="__main__")
            code = 0
        else:
            from artifact.cli import main

            if "config_file" in case:
                config = REPO / case["config_file"]
            else:
                config.write_text(case.get("config_text") or json.dumps(case["config"]))
            code = main([*case["argv"], "--config", str(config), "--out", str(out)])

    def mask(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(config), "<config>")

    csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    doc = {
        "exit": code,
        "stdout": mask(stdout.getvalue()),
        "stderr": mask(stderr.getvalue()),
        "csv": {name: {"bytes": len(data), "sha256": sha256(data).hexdigest()} for name, data in csvs.items()},
    }
    report = out / "report.json"
    return doc, report.read_bytes() if report.exists() else None


def run_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main() -> None:
    if EXPECTED.exists():
        shutil.rmtree(EXPECTED)
    for case in load_cases():
        with tempfile.TemporaryDirectory() as tmp:
            doc, report = run_case(case, Path(tmp))
        target = EXPECTED / case["name"]
        target.mkdir(parents=True)
        (target / "run.json").write_text(run_json(doc))
        if report is not None:
            (target / "report.json").write_bytes(report)
        print(f"{case['name']}: exit {doc['exit']}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    main()
