"""Tests of the benchmark itself (not of `sjm`).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from workloads import WORKLOADS, Op, OpStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_output(op: Op) -> tuple[int, str]:
    import sjm.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sjm.cli.main(op.argv)
    return code, buf.getvalue()


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, seed=3, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_a_different_seed_changes_argv_but_not_metric_names():
    for name in WORKLOADS:
        argv = [[op.argv for op in OpStream(name, seed, "full").next_cycle()] for seed in (1, 2)]
        assert argv[0] != argv[1], name
        assert OpStream(name, 1).next_cycle() == OpStream(name, 1).next_cycle()
    names = [set(result_of(run_bench("two-qubit-points", seed, 0))["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    proc = run_bench("two-qubit-points", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the oracle --------------------------------------------------------------

POINT = {"theta": 0.9, "phi": -0.4}
ORACLE_CASES = [
    Op("verify", dict(POINT)),
    Op("verify", {**POINT, "n": 8, "seed": 5}),
    Op("circuit", dict(POINT)),
    Op("network-table", dict(POINT)),
    Op("network-scan", {"phi": 0.3, "grid_steps": 33}),
    Op("curve", {"grid_steps": 20}),
    Op("multiqubit", {**POINT, "n": 6}),
    Op("basis", {**POINT, "n": 4}),
    Op("basis", {**POINT, "n": 6, "format": "csv"}),
]


@pytest.mark.parametrize("op", ORACLE_CASES, ids=lambda op: " ".join(op.argv))
def test_oracle_accepts_real_output(op):
    code, text = cli_output(op)
    oracle.check(op, code, text, np.random.default_rng(0))


def _reject(op: Op, code: int, text: str) -> None:
    with pytest.raises(oracle.OracleError):
        oracle.check(op, code, text, np.random.default_rng(0))


def test_oracle_rejects_one_flipped_amplitude_in_json():
    op = Op("basis", {**POINT, "n": 6})
    code, text = cli_output(op)
    doc = json.loads(text)
    amp = doc["states"][37]["amplitudes"][11]
    amp[0] = -amp[0]
    _reject(op, code, json.dumps(doc))


def test_oracle_rejects_one_flipped_amplitude_in_csv():
    op = Op("basis", {**POINT, "n": 4, "format": "csv"})
    code, text = cli_output(op)
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[3] = cells[3][1:] if cells[3].startswith("-") else "-" + cells[3]
    lines[5] = ",".join(cells)
    _reject(op, code, "\n".join(lines) + "\n")


def test_oracle_rejects_a_wrong_p_same():
    op = Op("network-scan", {"phi": 0.3, "grid_steps": 33})
    code, text = cli_output(op)
    doc = json.loads(text)
    doc["points"][20]["p_same"] += 1e-6
    _reject(op, code, json.dumps(doc))


def test_oracle_rejects_a_wrong_flag_reduction_or_exit_code():
    op = Op("network-scan", {"phi": 0.3, "grid_steps": 33})
    code, text = cli_output(op)
    doc = json.loads(text)
    doc["points"][-1]["violates"] = False
    _reject(op, code, json.dumps(doc))

    op = Op("multiqubit", {**POINT, "n": 6})
    code, text = cli_output(op)
    doc = json.loads(text)
    doc["reductions"][7]["z"] *= 2.0
    _reject(op, code, json.dumps(doc))

    op = Op("verify", dict(POINT))
    code, text = cli_output(op)
    _reject(op, 1, text)
