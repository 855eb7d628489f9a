"""Byte-for-byte CLI output against fixtures captured before the table writer.

``golden/manifest.json`` lists each case: its argv, exit code and the
SHA-256 of its stdout.  Outputs up to ~20 KB are also stored as text next
to the manifest, so a mismatch shows as a readable diff; larger ones (the
n = 8 basis and multiqubit tables) are checked by digest alone.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sjm.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _check_bytes(case, data: bytes) -> None:
    if "file" in case:
        assert data.decode("utf-8") == (GOLDEN / case["file"]).read_text(encoding="utf-8")
    assert len(data) == case["bytes"]
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stdout_matches_golden(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == ""
    _check_bytes(case, captured.out.encode("utf-8"))


SMALL = [c for c in CASES if "file" in c]


@pytest.mark.parametrize("case", SMALL, ids=[c["name"] for c in SMALL])
def test_output_file_matches_golden_stdout(case, tmp_path, capsys):
    path = tmp_path / "out"
    code = main(case["argv"] + ["--output", str(path)])
    assert code == case["exit"]
    assert capsys.readouterr().out == ""
    _check_bytes(case, path.read_bytes())


# `python -O` strips assert statements, so no check may depend on one.
OPTIMIZED = [c for c in CASES
             if c["name"] in ("verify-n4.json", "network-table-point.csv", "circuit-default.json")]


@pytest.mark.parametrize("case", OPTIMIZED, ids=[c["name"] for c in OPTIMIZED])
def test_stdout_matches_golden_under_optimize(case):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "sjm.cli", *case["argv"]],
        capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == case["exit"]
    assert proc.stderr == b""
    _check_bytes(case, proc.stdout)
