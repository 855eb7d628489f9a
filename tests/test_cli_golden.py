"""Byte-for-byte CLI output against fixtures captured before the table writer.

``golden/manifest.json`` lists each case: its argv, exit code and the
SHA-256 of its stdout.  Outputs up to ~20 KB are also stored as text next
to the manifest, so a mismatch shows as a readable diff; larger ones (the
n = 8 basis and multiqubit tables) are checked by digest alone.
"""

import hashlib
import json
import os
import platform
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


# The goldens are byte-identical under other CPU kernels too: OpenBLAS's
# Haswell and Zen kernels (AVX2), Haswell with numpy's AVX-512 loops
# switched off, which is an AVX2-only host, and OpenBLAS's SSE3 kernel
# (Prescott) for the commands that make no BLAS call.  `verify` and
# `multiqubit` still take `gram_matrix`, `completeness_residual` and the
# pair overlaps through BLAS, whose SSE3 kernel moves their last bits.
KERNELS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-zen": {"OPENBLAS_CORETYPE": "Zen"},
    "avx2-only": {"OPENBLAS_CORETYPE": "Haswell",
                  "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}
# The commands a kernel setting runs, where it does not run every case.
KERNEL_COMMANDS = {"openblas-prescott": ("basis", "circuit", "network", "curve")}
# Runs the golden cases of the given commands (default: all) through `main`
# in one process, without pytest, and prints as JSON the names of those
# whose exit code or bytes differ, and how many cases ran.
KERNEL_CHILD = """
import contextlib, hashlib, io, json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import numpy
ignored = [str(w.message) for w in caught if "NPY_DISABLE_CPU_FEATURES" in str(w.message)]
if ignored:
    print(json.dumps({"ignored": ignored}))
    sys.exit(0)
from sjm.cli import main
cases = json.loads(open(sys.argv[1], encoding="utf-8").read())
cases = [case for case in cases if len(sys.argv) == 2 or case["argv"][0] in sys.argv[2:]]
failed = []
for case in cases:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"])
    if code != case["exit"] or hashlib.sha256(out.getvalue().encode()).hexdigest() != case["sha256"]:
        failed.append(case["name"])
print(json.dumps({"failed": failed, "ran": len(cases)}))
"""


def _has_avx2() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return False
    return any(line.startswith("flags") and "avx2" in line.split() for line in cpuinfo.splitlines())


@pytest.mark.parametrize("kernel", KERNELS)
def test_goldens_match_under_other_cpu_kernels(kernel):
    if not _has_avx2():
        pytest.skip("needs an x86-64 CPU with AVX2")
    commands = KERNEL_COMMANDS.get(kernel, ())
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **KERNELS[kernel], "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, str(GOLDEN / "manifest.json"),
                           *commands], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if "ignored" in report:
        pytest.skip(f"numpy cannot honour the setting: {report['ignored'][0]}")
    ran = sum(not commands or case["argv"][0] in commands for case in CASES)
    assert report == {"failed": [], "ran": ran}
