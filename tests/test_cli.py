"""End-to-end tests driving the command-line interface through ``main``."""

import contextlib
import csv
import errno
import importlib
import io
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjm.analysis
import sjm.bases
import sjm.cli
import sjm.linalg
import sjm.multiqubit
import sjm.network
from sjm.analysis import aligned_tetrahedron_residual
from sjm.bases import component_states, ejm_aligned
from sjm.circuit import build_sjm_circuit, circuit_to_dict
from sjm.linalg import partial_trace
from sjm.cli import (
    GRID_STEPS_CAP,
    Table,
    build_parser,
    main,
    params_from_args,
    write_csv,
    write_json,
)


def _fmt(x: float) -> float:
    """`x` rounded to 15 significant digits, the value the CLI prints."""
    return float(f"{x:.15g}")


def _stdout(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process run, captured by hand so that
    hypothesis examples can use it too (capsys is function-scoped)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_basis_default_json():
    code, out = _stdout(["basis"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "basis"
    assert doc["n"] == 2
    assert doc["theta"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert doc["phi"] == pytest.approx(math.pi / 4, abs=1e-12)
    assert len(doc["states"]) == 4
    for row in doc["states"]:
        assert len(row["amplitudes"]) == 4
        norm_sq = sum(re * re + im * im for re, im in row["amplitudes"])
        assert norm_sq == pytest.approx(1.0, abs=1e-10)


def test_basis_multiqubit_row_count():
    code, out = _stdout(["basis", "--n", "4", "--theta", "0"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 16
    assert doc["states"][0]["index"] == [0, 0]
    assert len(doc["states"][0]["amplitudes"]) == 16


def test_basis_csv_shape():
    code, out = _stdout(["basis", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("index,amp0_re,amp0_im")
    assert lines[0].endswith("amp3_re,amp3_im")


def test_theta_out_of_range_exits_2():
    code, err = _exit_and_stderr(["basis", "--theta", "2.0"])
    assert code == 2
    assert "theta out of range" in err


def test_conflicting_theta_flags_exit_2():
    code, err = _exit_and_stderr(["basis", "--theta", "0.3", "--theta-frac", "1/2"])
    assert code == 2
    assert "not both" in err


def test_odd_qubit_count_exits_2():
    assert _exit_and_stderr(["multiqubit", "--n", "3"])[0] == 2


def test_fraction_flag_matches_radian_flag():
    _, out_frac = _stdout(["basis", "--theta-frac", "1/2", "--phi-frac", "1/4"])
    _, out_rad = _stdout(["basis", "--theta", repr(math.pi / 2), "--phi", repr(math.pi / 4)])
    assert out_frac == out_rad


@pytest.mark.parametrize("command", [["basis"], ["verify"], ["circuit"], ["network", "table"],
                                     ["network", "scan"], ["multiqubit"]], ids="-".join)
def test_commands_echo_the_snapped_angles_they_used(command):
    # Both angles sit 1e-13 outside their range, so SjmParams snaps them onto
    # 0 and pi: the output names the angles the command computed with.
    code, out = _stdout(command + ["--theta=-1e-13", f"--phi={math.pi + 1e-13!r}"])
    doc = json.loads(out)
    assert code == 0
    assert doc["phi"] == _fmt(math.pi)
    if command != ["network", "scan"]:
        assert doc["theta"] == 0.0
    if command == ["circuit"]:
        assert (doc["circuit"]["theta"], doc["circuit"]["phi"]) == (doc["theta"], doc["phi"])


def test_verify_default_all_pass():
    code, out = _stdout(["verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert "seed" not in doc
    names = [entry["name"] for entry in doc["invariants"]]
    assert "zero_sum_residual" in names
    assert "rotational_symmetry_residual" in names
    assert "multi_gram_residual" in names
    assert all(entry["pass"] for entry in doc["invariants"])
    assert all(entry["residual"] <= entry["tolerance"] for entry in doc["invariants"])


def test_verify_product_point():
    code, out = _stdout(["verify", "--theta", "0", "--phi", "-3.141592653589793"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_csv_header():
    code, out = _stdout(["verify", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,residual,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_circuit_default_aligned():
    code, out = _stdout(["circuit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [m["target_bits"] for m in doc["mappings"]] == ["01", "11", "00", "10"]
    assert doc["reference_sign_residual"] <= 1e-8
    assert len(doc["circuit"]["gates"]) == 9
    # The gate list as emitted: every float rounded to 15 significant digits.
    expected = circuit_to_dict(build_sjm_circuit(ejm_aligned()))
    expected.update(theta=_fmt(expected["theta"]), phi=_fmt(expected["phi"]),
                    gates=[{**gate, "args": [_fmt(a) for a in gate["args"]]}
                           for gate in expected["gates"]])
    assert doc["circuit"] == expected


def test_circuit_generic_point():
    code, out = _stdout(["circuit", "--theta", "0.3", "--phi", "-1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["targets_distinct"] is True
    assert doc["max_magnitude_error"] <= 1e-8


def test_circuit_csv_header():
    _, out = _stdout(["circuit", "--format", "csv"])
    assert out.split("\n")[0] == "state,target,target_bits,magnitude,phase"


def test_network_table_aligned():
    code, out = _stdout(["network", "table", "--theta-frac", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["total"] == pytest.approx(1.0, abs=1e-10)
    probs = sorted(o["probability"] for o in doc["outcomes"])
    assert len(doc["outcomes"]) == 64
    assert probs[:36] == pytest.approx([1 / 256] * 36, abs=1e-12)
    assert probs[36:60] == pytest.approx([5 / 256] * 24, abs=1e-12)
    assert probs[60:] == pytest.approx([25 / 256] * 4, abs=1e-12)


def test_network_table_product_point_csv():
    code, out = _stdout(["network", "table", "--theta", "0", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,c,probability"
    assert len(lines) == 65
    assert all(line.endswith(",0.015625") for line in lines[1:])


def test_network_scan_threshold():
    code, out = _stdout(["network", "scan", "--grid-steps", "64"])
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_steps"] == 64
    assert doc["bound"] == pytest.approx(61 / 256, abs=1e-15)
    points = doc["points"]
    assert len(points) == 64
    first = next(p for p in points if p["violates"])
    threshold = math.asin(math.sqrt(15 / 28))
    step = points[1]["theta"] - points[0]["theta"]
    assert 0 < first["theta"] - threshold <= step + 1e-12
    assert not points[0]["violates"]
    assert points[-1]["violates"]


def test_network_scan_csv_header():
    _, out = _stdout(["network", "scan", "--grid-steps", "4", "--format", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "theta,p_same,bound,violates"
    assert len(lines) == 5
    assert lines[1].endswith(",false")
    assert lines[-1].endswith(",true")


def test_curve_rows_and_endpoints():
    code, out = _stdout(["curve", "--grid-steps", "8"])
    assert code == 0
    doc = json.loads(out)
    points = doc["points"]
    assert len(points) == 9
    assert points[0]["theta"] == 0
    assert points[0]["c_sjm"] == pytest.approx(0.0, abs=1e-12)
    assert points[0]["c_ejm_family"] == pytest.approx(0.5, abs=1e-12)
    assert points[-1]["theta"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert points[-1]["c_sjm"] == pytest.approx(0.5, abs=1e-12)
    assert points[-1]["c_ejm_family"] == pytest.approx(1.0, abs=1e-12)
    assert all(p["c_original_ejm"] == pytest.approx(0.5, abs=1e-15) for p in points)


def test_curve_csv_header():
    _, out = _stdout(["curve", "--grid-steps", "2", "--format", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "theta,c_sjm,c_ejm_family,c_original_ejm"
    assert len(lines) == 4


def test_multiqubit_four_qubits():
    code, out = _stdout(["multiqubit", "--n", "4", "--theta", "0.7", "--phi", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert list(doc["gram"]) == ["residual"]
    assert doc["gram"]["residual"] <= 1e-10
    assert len(doc["reductions"]) == 16 * 4


def test_multiqubit_csv_header():
    _, out = _stdout(["multiqubit", "--n", "4", "--format", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "index,position,x,y,z"
    assert len(lines) == 1 + 16 * 4
    assert lines[1].startswith("00,0,")


def test_multiqubit_gram_certifies_every_pair_without_seed():
    # n = 8 has 32 640 state pairs; the bound covers all of them, so the
    # report carries no sampling metadata and no seed.
    code, out = _stdout(["multiqubit", "--n", "8", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"] == {"residual": doc["gram"]["residual"]}
    assert doc["gram"]["residual"] <= 1e-10
    assert "seed" not in doc


@pytest.mark.parametrize("command", ["verify", "multiqubit"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_seed_is_accepted_and_ignored(command, fmt):
    base = [command, "--n", "8", "--theta", "0.7", "--phi=-1.3", "--format", fmt]
    code, plain = _stdout(base)
    assert (code, plain) == _stdout([*base, "--seed", "5"])
    assert code == 0


@pytest.mark.parametrize("command", ["verify", "multiqubit"])
def test_help_says_seed_is_ignored(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed SEED accepted and ignored" in " ".join(capsys.readouterr().out.split())


def test_repeated_runs_byte_identical():
    _, first = _stdout(["verify", "--theta", "0.9", "--phi", "0.1"])
    _, second = _stdout(["verify", "--theta", "0.9", "--phi", "0.1"])
    assert first == second
    _, third = _stdout(["multiqubit", "--n", "8", "--seed", "3"])
    _, fourth = _stdout(["multiqubit", "--n", "8", "--seed", "3"])
    assert third == fourth


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "report.json"
    code, out = _stdout(["verify", "--output", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["all_pass"] is True


def test_unwritable_output_exits_2_with_one_error_line(tmp_path):
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        code, err = _exit_and_stderr(["verify", "--output", str(path)])
        assert code == 2
        lines = err.splitlines()
        assert lines[-1].startswith("sjm: error: cannot write")
        assert sum(line.startswith("sjm: error:") for line in lines) == 1
        assert not any("Traceback" in line for line in lines)


def test_invalid_input_never_touches_output(tmp_path):
    path = tmp_path / "f"
    assert _exit_and_stderr(["basis", "--n", "14", "--output", str(path)])[0] == 2
    assert not path.exists()
    path.write_text("kept\n", encoding="utf-8")
    invalid = (["basis", "--n", "14"], ["verify", "--theta", "2.0"], ["curve", "--grid-steps", "0"])
    for argv in invalid:
        assert _exit_and_stderr(argv + ["--output", str(path)])[0] == 2
    assert path.read_text(encoding="utf-8") == "kept\n"


# Every command that reads --theta/--phi and their -frac forms.
ANGLE_COMMANDS = (["basis"], ["verify"], ["circuit"], ["network", "table"], ["network", "scan"],
                  ["multiqubit"])


def _exit_stdout_and_stderr(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run, as the interpreter
    gives them: an exception escaping `main` is a traceback and exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _exit_and_stderr(argv) -> tuple[int, str]:
    code, _, err = _exit_stdout_and_stderr(argv)
    return code, err


@pytest.mark.parametrize("command", ANGLE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("flag", ["theta-frac", "phi-frac"])
@pytest.mark.parametrize("value", ["1e400", "-1e400"])
def test_overflowing_angle_fraction_exits_2(command, flag, value):
    # float(Fraction("1e400")) raises OverflowError, not ValueError.
    code, err = _exit_and_stderr([*command, f"--{flag}={value}"])
    assert code == 2
    lines = err.splitlines()
    assert lines[-1].startswith(f"sjm: error: cannot parse --{flag}")
    assert sum(line.startswith("sjm: error:") for line in lines) == 1
    assert "Traceback" not in err


def _sjm_child(argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m sjm.cli *argv` in a child process, stderr captured as text."""
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # One BLAS thread: OpenBLAS sizes its buffers by thread count.
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "sjm.cli", *argv], stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120, **kwargs)


def _assert_one_error_line(err: str, message: str) -> None:
    lines = err.splitlines()
    assert lines[-1].startswith(f"sjm: error: {message}")
    assert sum(line.startswith("sjm: error:") for line in lines) == 1
    assert "Traceback" not in err


def test_overflowing_angle_fraction_exits_2_from_the_shell():
    proc = _sjm_child(["verify", "--theta-frac=1e400"], stdout=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("sjm: error: cannot parse --theta-frac")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_2():
    # With fd 1 closed at start-up, the interpreter sets sys.stdout to None.
    proc = _sjm_child(["verify"], preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr, "cannot write stdout: ")


class _FailingAfter:
    """A text stream that takes `budget` more characters, then fails as a
    file at its size limit does."""

    def __init__(self, out, budget: int):
        self.out, self.budget = out, budget

    def write(self, text: str) -> int:
        if len(text) > self.budget:
            self.out.write(text[:self.budget])
            self.budget = 0
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        self.budget -= len(text)
        return self.out.write(text)


class _Recorder:
    def __init__(self):
        self.sizes = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return len(text)


# basis --n 6 writes its header, then its 64 rows in three chunks.
CHUNKED = ["basis", "--n", "6"]


def _budgets(fmt: str) -> list[int]:
    """One character before, at and after the end of each write but the last."""
    recorder = _Recorder()
    with contextlib.redirect_stdout(recorder):
        assert main([*CHUNKED, "--format", fmt]) == 0
    assert len(recorder.sizes) >= 4
    ends = np.cumsum(recorder.sizes[:-1]).tolist()
    return [end + step for end in ends for step in (-1, 0, 1)]


def _failing_writer(monkeypatch, fmt: str, budget: int) -> None:
    name = "write_json" if fmt == "json" else "write_csv"
    writer = getattr(sjm.cli, name)
    monkeypatch.setattr(sjm.cli, name, lambda table, out: writer(table, _FailingAfter(out, budget)))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_output_write_keeps_the_old_file(monkeypatch, tmp_path, fmt):
    path = tmp_path / "keep"
    path.write_bytes(b"old bytes\n")
    for budget in _budgets(fmt):
        with monkeypatch.context() as patch:
            _failing_writer(patch, fmt, budget)
            code, out, err = _exit_stdout_and_stderr([*CHUNKED, "--format", fmt,
                                                      "--output", str(path)])
        assert code == 2, budget
        assert out == ""
        _assert_one_error_line(err, f"cannot write {path}: File too large")
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["keep"]  # no temporary file left behind


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_stdout_write_exits_2(monkeypatch, fmt):
    for budget in _budgets(fmt)[::4]:
        with monkeypatch.context() as patch:
            _failing_writer(patch, fmt, budget)
            code, _, err = _exit_stdout_and_stderr([*CHUNKED, "--format", fmt])
        assert code == 2, budget
        _assert_one_error_line(err, "cannot write stdout: File too large")


def test_output_file_gets_the_mode_open_would_give(tmp_path):
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    reference = tmp_path / "reference"
    open(reference, "w").close()
    existing.write_text("old\n", encoding="utf-8")
    os.chmod(existing, 0o604)
    for path in (fresh, existing):
        assert _stdout(["curve", "--grid-steps", "4", "--output", str(path)]) == (0, "")
        assert path.read_text(encoding="utf-8") == _stdout(["curve", "--grid-steps", "4"])[1]
    assert os.stat(fresh).st_mode == os.stat(reference).st_mode
    assert os.stat(existing).st_mode & 0o777 == 0o604
    assert sorted(os.listdir(tmp_path)) == ["existing", "fresh", "reference"]


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    assert _stdout(["curve", "--grid-steps", "4", "--output", str(link)]) == (0, "")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == _stdout(["curve", "--grid-steps", "4"])[1]


def test_output_to_a_device_writes_through_it():
    # A device is written as it is, never replaced by a renamed file.
    assert _stdout(["curve", "--grid-steps", "4", "--output", os.devnull]) == (0, "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_output_file_size_limit_keeps_the_old_file(tmp_path):
    # The 160 KB table passes RLIMIT_FSIZE's 20 KB: the write fails with EFBIG
    # (the interpreter ignores SIGXFSZ), and the old file stays as it was.
    path = tmp_path / "f"
    path.write_bytes(b"old bytes\n")
    limit = lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (20 * 1024, resource.RLIM_INFINITY))
    proc = _sjm_child([*CHUNKED, "--format", "csv", "--output", str(path)],
                      stdout=subprocess.PIPE, preexec_fn=limit)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr, f"cannot write {path}: File too large")
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["f"]


@pytest.mark.parametrize("stage", ["multi_invariant_residuals", "write_json"])
def test_memory_error_exits_2(monkeypatch, stage):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sjm.cli, stage, exhausted)
    code, _, err = _exit_stdout_and_stderr(["verify"])
    assert code == 2
    _assert_one_error_line(err, "out of memory")


def test_address_space_limit_exits_2():
    # basis --n 12 needs about 32 MB for its two Kronecker heads, more than a
    # 150 MB address-space cap leaves after the interpreter and numpy.
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (150 * 2**20, resource.RLIM_INFINITY))
    proc = _sjm_child(["basis", "--n", "12", "--format", "csv"], stdout=subprocess.DEVNULL,
                      preexec_fn=limit)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr, "out of memory")


ERROR_LINE = re.compile(r"sjm( [a-z]+)*: error: ")
ANGLE_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "1/0", "-0",
                     "0/5", "1/3", "-1/4", "1e308", "9" * 4000, "-" + "9" * 4000, "5" * 5000,
                     "-" + "5" * 5000, "", "pi", "1/2/3"]),
    st.floats().map(repr),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(ANGLE_COMMANDS),
       flag=st.sampled_from(["theta", "theta-frac", "phi", "phi-frac"]), value=ANGLE_VALUES)
def test_angle_flags_exit_0_or_2_with_one_error_line(command, flag, value):
    code, err = _exit_and_stderr([*command, f"--{flag}={value}"])
    assert code in (0, 2)
    if code == 2:
        # A value the flag's type rejects is reported by the subcommand's
        # parser, as "sjm basis: error: ...".
        error_lines = [line for line in err.splitlines() if ERROR_LINE.match(line)]
        assert len(error_lines) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--seed", "1"],
        ["basis", "--grid-steps", "8"],
        ["verify", "--grid-steps", "8"],
        ["multiqubit", "--grid-steps", "8"],
        ["circuit", "--n", "4"],
        ["circuit", "--seed", "1"],
        ["circuit", "--grid-steps", "8"],
        ["network", "table", "--n", "4"],
        ["network", "scan", "--seed", "1"],
        ["curve", "--theta", "0.3"],
        ["curve", "--phi-frac", "1/4"],
        ["curve", "--n", "4"],
        ["curve", "--seed", "1"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv):
    code, err = _exit_and_stderr(argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_grid_steps_cap():
    args = build_parser().parse_args(["curve", "--grid-steps", str(GRID_STEPS_CAP)])
    params_from_args(args)  # the cap itself validates
    assert args.grid_steps == GRID_STEPS_CAP
    for argv in (["curve"], ["network", "scan"]):
        code, err = _exit_and_stderr(argv + ["--grid-steps", str(GRID_STEPS_CAP + 1)])
        assert code == 2
        assert f"grid-steps must be in [1, {GRID_STEPS_CAP}]" in err


@pytest.mark.parametrize("argv,rows", [
    (["network", "scan", "--phi=-2.2"], GRID_STEPS_CAP),
    (["curve"], GRID_STEPS_CAP + 1),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_grid_steps_cap_runs_to_completion(argv, rows, fmt):
    code, out = _stdout(argv + ["--grid-steps", str(GRID_STEPS_CAP), "--format", fmt])
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert doc["grid_steps"] == GRID_STEPS_CAP and len(doc["points"]) == rows
    else:
        assert out.count("\n") == rows + 1


def test_sweeps_never_build_a_basis_or_network_state_per_theta(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-theta construction reached")

    class CountedParams(sjm.bases.SjmParams):
        built = 0

        def __post_init__(self):
            CountedParams.built += 1
            super().__post_init__()

    for module in (sjm.bases, sjm.network, sjm.analysis):
        monkeypatch.setattr(module, "sjm_basis", forbidden)
    monkeypatch.setattr(sjm.network, "triangle_state", forbidden)
    monkeypatch.setattr(sjm.bases, "SjmParams", CountedParams)
    for argv in (["network", "scan", "--grid-steps", "64", "--phi=0.3"],
                 ["curve", "--grid-steps", "64", "--format", "csv"]):
        CountedParams.built = 0
        code, out = _stdout(argv)
        assert code == 0
        assert out
        # The sweep checks phi once, in the one SjmParams it builds for (F, S).
        assert CountedParams.built <= 1, argv


def _perfbench(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    return importlib.import_module(name)


def test_benchmark_argv_uses_only_accepted_flags(monkeypatch):
    workloads = _perfbench(monkeypatch, "workloads")
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            stream = workloads.OpStream(name, seed=1, size=size)
            for op in [stream.warmup] + stream.next_cycle():
                params_from_args(parser.parse_args(op.argv))


BENCHMARK_WORKLOADS = ("two-qubit-points", "theta-sweep", "multiqubit-certify", "dense-export")


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_full_size_cycle_passes_its_oracle(monkeypatch, tmp_path, workload):
    # One cycle at the size the benchmark measures, run as its child runs an
    # op (stdout sent to a file), then read back through its output oracle.
    workloads = _perfbench(monkeypatch, "workloads")
    child, oracle = _perfbench(monkeypatch, "child"), _perfbench(monkeypatch, "oracle")
    assert sorted(workloads.WORKLOADS) == sorted(BENCHMARK_WORKLOADS)
    rng = np.random.default_rng(1)
    for i, op in enumerate(workloads.OpStream(workload, seed=1, size="full").next_cycle()):
        path = tmp_path / f"op{i}.out"
        with open(path, "w", encoding="utf-8") as sink:
            code, _, error = child.run_op(sjm.cli, op, sink)
        assert (code, error) == (0, None), op.argv
        oracle.check(op, code, path.read_text(encoding="utf-8"), rng)
        path.unlink()


# Floats where "%.15g" text and the JSON of the float it rounds to part ways
# or nearly do: zeros, subnormals, the fixed/exponent switch at 1e-4 and
# 1e15/1e16, integer values, the top of the range, NaN and the infinities.
FLOATS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.99999999999999e-5,
                       1e-4, 1e15, -1e15, 999999999999999.9, 1.5e15, 1e16, 1.0, -3.0,
                       1.7976931348623157e308, math.nan, math.inf, -math.inf])
    | st.floats(-1e-300, 1e-300) | st.floats(1e-6, 1e-3) | st.floats(-1e17, -1e14)
    | st.floats(1e14, 1e17) | st.integers(-10**15, 10**15).map(float)
)
TEXT = st.text(st.sampled_from('%,"\n\r é€\0a1') | st.characters(), max_size=4)
SCALARS = {"float": FLOATS, "int": st.integers(), "bool": st.booleans(), "str": TEXT}
PLACEHOLDERS = {"float": 0.0, "int": 0, "bool": False, "str": ""}
# A row field: a scalar, an index list of ints, or a list of amplitude pairs.
FIELD_KINDS = (st.sampled_from(list(SCALARS))
               | st.tuples(st.just("index"), st.integers(0, 3))
               | st.tuples(st.just("pairs"), st.integers(1, 3)))
JSON_VALUES = st.recursive(
    st.one_of(*SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


def _placeholder(kind):
    if kind in PLACEHOLDERS:
        return PLACEHOLDERS[kind]
    name, size = kind
    return [0] * size if name == "index" else [[0.0, 0.0]] * size


def _field_values(kind):
    if kind in SCALARS:
        return SCALARS[kind]
    name, size = kind
    if name == "index":
        return st.lists(st.integers(), min_size=size, max_size=size)
    return st.lists(st.lists(FLOATS, min_size=2, max_size=2), min_size=size, max_size=size)


def _flat(value) -> list:
    """A row field's values in document order."""
    if not isinstance(value, list):
        return [value]
    return [x for item in value for x in _flat(item)]


def _rounded(value):
    """`value` with every float rounded as the CLI prints it."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return _fmt(value) if isinstance(value, float) else value


@st.composite
def tables(draw):
    """A random Table, the rows as dicts, and its CSV columns."""
    # Prefixes keep the row fields, head, CSV-only and tail keys apart.
    kinds = {"r" + k: v for k, v in draw(st.dictionaries(TEXT, FIELD_KINDS, max_size=4)).items()}
    values = st.tuples(*map(_field_values, kinds.values()))
    rows = [dict(zip(kinds, row)) for row in draw(st.lists(values, max_size=5))]
    head = {"command": "x"} | {"h" + k: v for k, v in
                                 draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3)).items()}
    tail = {"t" + k: v for k, v in draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3)).items()}
    # CSV: head-only scalar and index-list columns interleaved with the row fields.
    extra = draw(st.dictionaries(TEXT.map(lambda k: "c" + k),
                                 st.one_of(*SCALARS.values(), st.lists(st.integers(), max_size=3)),
                                 max_size=2))
    head |= extra
    columns = list(kinds)
    for name in extra:
        columns.insert(draw(st.integers(0, len(columns))), name)
    table = Table(head=head, key="rows", shape={k: _placeholder(kind) for k, kind in kinds.items()},
                  rows=[tuple(x for v in row.values() for x in _flat(v)) for row in rows],
                  columns=columns, header=draw(st.none() | st.lists(TEXT, max_size=3)) or (),
                  tail=tail)
    return table, rows, columns


CHUNK_VALUES = st.sampled_from([1, 2, 5, 4096])


@settings(max_examples=300, deadline=None)
@given(drawn=tables(), chunk=CHUNK_VALUES)
def test_write_json_matches_json_dumps(drawn, chunk):
    table, rows, _ = drawn
    out = io.StringIO()
    with mock.patch.object(sjm.cli, "_CHUNK_VALUES", chunk):  # rows on both sides of chunk edges
        write_json(table, out)
    # Distinct keys: the document is exactly head, rows, then tail.
    doc = {**table.head, "rows": rows, **table.tail}
    assert out.getvalue() == json.dumps(_rounded(doc), indent=2) + "\n"


def _cells(value) -> list[str]:
    """CSV cells of one value as the csv.writer route wrote them: lowercase
    booleans, 15-digit floats, a flat list as its digits run together, and a
    list of lists (amplitude pairs) as one cell per number."""
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, float):
        return [f"{value:.15g}"]
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return [f"{x:.15g}" for pair in value for x in pair]
        return ["".join(map(str, value))]
    return [str(value)]


@settings(max_examples=300, deadline=None)
@given(drawn=tables(), chunk=CHUNK_VALUES)
def test_write_csv_matches_csv_writer(drawn, chunk):
    table, rows, columns = drawn
    out = io.StringIO()
    with mock.patch.object(sjm.cli, "_CHUNK_VALUES", chunk):
        write_csv(table, out)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(table.header or columns)
    writer.writerows(
        [cell for c in columns for cell in _cells(row[c] if c in row else table.head[c])]
        for row in rows
    )
    assert out.getvalue() == expected.getvalue()


@settings(max_examples=1000, deadline=None)
@given(x=FLOATS)
def test_json_float_is_the_json_of_its_rounded_value(x):
    out = io.StringIO()
    write_json(Table(head={"command": "x", "v": x}, key="rows", shape={"v": 0.0}, rows=[(x,)]), out)
    assert out.getvalue() == json.dumps({"command": "x", "v": _fmt(x), "rows": [{"v": _fmt(x)}]},
                                        indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e308, 1e308))
def test_csv_cell_of_rounded_float_is_its_15_digit_form(x):
    # The CSV cell of a float, alone or in an amplitude pair, is exactly the
    # 15-significant-digit form of the value, rounded by _fmt first or not.
    # (Above 1.79769313486231e308 the rounding overflows to inf; the CLI's
    # values are amplitudes, probabilities, angles and residuals, all far below.)
    def line(v: float) -> str:
        out = io.StringIO()
        write_csv(Table(head={"command": "x"}, key="rows", shape={"v": 0.0, "pair": [[0.0, 0.0]]},
                        rows=[(v, v, -v)]), out)
        return out.getvalue().split("\n")[1]

    assert line(x) == line(_fmt(x)) == f"{x:.15g},{x:.15g},{-x:.15g}"


@pytest.mark.parametrize("row, head", [
    ({"s": ""}, {}), ({"s": "a,b"}, {}), ({"i": []}, {}), ({}, {"s": ""}), ({}, {"i": []}),
    ({"s": "", "t": ""}, {}),
])
def test_csv_lone_empty_field_is_quoted(row, head):
    # csv.writer writes a row of one empty field as "", not as a blank line.
    columns = list(row) + list(head)
    out = io.StringIO()
    write_csv(Table(head={"command": "x", **head}, key="rows", shape=row,
                    rows=[tuple(x for v in row.values() for x in _flat(v))], columns=columns), out)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerow([cell for c in columns for cell in _cells({**row, **head}[c])])
    assert out.getvalue() == expected.getvalue()


def test_csv_columns_must_follow_the_row_fields():
    table = Table(head={"command": "x"}, key="rows", shape={"a": 0, "b": 0}, rows=[(1, 2)],
                  columns=("b", "a"))
    with pytest.raises(ValueError, match="row order"):
        write_csv(table, io.StringIO())


# Every command at a small size, with the angle flags it reads.
SMALL_RUNS = st.sampled_from([
    (["basis", "--n", "2"], ("theta", "phi")), (["basis", "--n", "4"], ("theta", "phi")),
    (["verify", "--n", "2"], ("theta", "phi")), (["verify", "--n", "4"], ("theta", "phi")),
    (["circuit"], ("theta", "phi")), (["network", "table"], ("theta", "phi")),
    (["network", "scan", "--grid-steps", "4"], ("phi",)), (["curve", "--grid-steps", "4"], ()),
    (["multiqubit", "--n", "2"], ("theta", "phi")), (["multiqubit", "--n", "4"], ("theta", "phi")),
])


@settings(max_examples=60, deadline=None)
@given(run=SMALL_RUNS, theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi),
       fmt=st.sampled_from(["json", "csv"]))
def test_identical_invocations_give_identical_bytes(run, theta, phi, fmt):
    command, flags = run
    angles = {"theta": theta, "phi": phi}
    argv = command + [f"--{flag}={angles[flag]!r}" for flag in flags] + ["--format", fmt]
    first = _stdout(argv)
    assert first == _stdout(argv)
    assert first[1]


def _perturbed(params):
    """`component_states` with m_{2,1} 1e-6 too long."""
    states = component_states(params)
    states[2, 1] *= 1.0 + 1e-6
    return states


def test_certificate_catches_a_perturbed_component(monkeypatch):
    # One component state 1e-6 too long: the factored Gram bound and the
    # factored reductions must both see it.
    for module in (sjm.bases, sjm.multiqubit):
        monkeypatch.setattr(module, "component_states", _perturbed)
    code, out = _stdout(["verify", "--n", "8", "--theta", "0.7", "--phi=-1.3"])
    assert code == 1
    doc = json.loads(out)
    failed = {entry["name"] for entry in doc["invariants"] if not entry["pass"]}
    assert {"multi_gram_residual", "multi_reduction_residual"} <= failed
    assert doc["all_pass"] is False


def test_verify_builds_its_components_once(monkeypatch):
    # One construction of the components serves every row of the basis; the
    # per-state `sjm_state` oracle builds them once more for each of its 4 states.
    params = sjm.bases.SjmParams(0.7, -1.3)
    calls = []

    def counted(p):
        calls.append(p)
        return component_states(p)

    for module in (sjm.bases, sjm.multiqubit):
        monkeypatch.setattr(module, "component_states", counted)
    code, out = _stdout(["verify", "--theta", "0.7", "--phi=-1.3"])
    assert code == 0
    assert len(json.loads(out)["invariants"]) == 16
    assert calls == [params] * 5


def test_verify_gathers_its_reduction_vectors_once(monkeypatch):
    # One (4, 2, 3) array of marginals serves the reduction, rotation and
    # zero-sum rows; the aligned-point rows were computed at import.
    calls = []

    def counted(*args):
        calls.append(args)
        return partial_trace(*args)

    monkeypatch.setattr(sjm.analysis, "partial_trace", counted)
    code, _ = _stdout(["verify", "--theta", "0.7", "--phi=-1.3"])
    assert code == 0
    assert len(calls) == 8


ALIGNED_ROWS = ("aligned_ejm_orthogonality_residual", "aligned_tetrahedron_residual")


def _aligned_residuals(out: str) -> dict:
    return {e["name"]: e["residual"] for e in json.loads(out)["invariants"]
            if e["name"] in ALIGNED_ROWS}


def test_aligned_rows_do_not_follow_a_patched_library(monkeypatch):
    # The rows at (pi/2, pi/4) are computed once, at import, so no cache
    # can pick up a patched component_states and serve it to later calls.
    argv = ["verify", "--theta", "0.7", "--phi=-1.3"]
    before = _aligned_residuals(_stdout(argv)[1])
    assert before["aligned_tetrahedron_residual"] == _fmt(aligned_tetrahedron_residual())

    for module in (sjm.bases, sjm.multiqubit):
        monkeypatch.setattr(module, "component_states", _perturbed)
    assert _fmt(aligned_tetrahedron_residual()) != before["aligned_tetrahedron_residual"]
    assert _aligned_residuals(_stdout(argv)[1]) == before
    monkeypatch.undo()
    assert _aligned_residuals(_stdout(argv)[1]) == before


def test_verify_and_multiqubit_never_build_the_dense_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    # Every dense state, in `multi_sjm_basis` and in `basis`, comes from _basis_rows.
    for module in (sjm.multiqubit, sjm.cli):
        monkeypatch.setattr(module, "_basis_rows", forbidden)
    with pytest.raises(AssertionError, match="dense path reached"):
        sjm.multiqubit.multi_sjm_basis(4, sjm.bases.SjmParams(0.5, 0.1))
    with pytest.raises(AssertionError, match="dense path reached"):
        main(["basis", "--n", "4"])
    # The multiqubit layer takes no partial trace: it imports none, and none
    # is reached through `linalg`.  The two-qubit invariants in `analysis`
    # keep theirs, on 4-amplitude states.
    assert not hasattr(sjm.multiqubit, "partial_trace")
    monkeypatch.setattr(sjm.linalg, "partial_trace", forbidden)
    for argv in (["verify", "--n", "12"], ["multiqubit", "--n", "4"],
                 ["multiqubit", "--n", "12", "--format", "csv"]):
        code, out = _stdout(argv)
        assert code == 0
        assert out


def test_basis_streams_without_holding_the_dense_basis(tmp_path):
    # The n = 10 basis is 4**5 states of 2**10 complex amplitudes, 16.8 MB;
    # `basis` streams its states a block at a time and never holds them all.
    dense_bytes = 4**5 * 2**10 * 16
    path = tmp_path / "basis.csv"
    tracemalloc.start()
    try:
        code = main(["basis", "--n", "10", "--format", "csv", "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dense_bytes
    with path.open(encoding="utf-8") as lines:
        assert sum(1 for _ in lines) == 1 + 4**5


@pytest.mark.parametrize("flag", ["theta-frac", "phi-frac"])
@pytest.mark.parametrize("value", ["1e10000000", "-1e10000000", "1e-30000000", "1e1_000_000_0"])
def test_huge_angle_fraction_exponent_exits_2_at_once(flag, value):
    # Fraction would expand 10**e exactly: 12.9 s for 1e10000000.
    start = time.perf_counter()
    code, err = _exit_and_stderr(["verify", f"--{flag}={value}"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    lines = err.splitlines()
    assert lines[-1].startswith(f"sjm: error: cannot parse --{flag} ")
    assert sum(line.startswith("sjm: error:") for line in lines) == 1


def test_angle_fraction_exponent_at_the_bound_still_parses():
    assert _stdout(["basis", "--theta-frac=1e-4300"]) == _stdout(["basis", "--theta=0"])
    assert _stdout(["basis", "--phi-frac=25e-2"]) == _stdout(["basis", "--phi-frac=1/4"])


@pytest.mark.parametrize("command", [*ANGLE_COMMANDS, ["curve"]], ids=" ".join)
def test_empty_output_exits_2_and_writes_nothing(command):
    code, out, err = _exit_stdout_and_stderr([*command, "--output="])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[-1] == "sjm: error: --output needs a non-empty path"
    assert sum(line.startswith("sjm: error:") for line in lines) == 1


# One argv of every command.
EVERY_COMMAND = (["basis", "--n", "4"], ["verify"], ["circuit", "--format", "csv"],
                 ["network", "table"], ["network", "scan", "--grid-steps", "8"],
                 ["curve", "--grid-steps", "8"], ["multiqubit", "--n", "4"])


def test_main_never_rebuilds_the_parser(monkeypatch):
    before = [_stdout(argv) for argv in EVERY_COMMAND]

    def forbidden():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(sjm.cli, "build_parser", forbidden)
    assert [_stdout(argv) for argv in EVERY_COMMAND] == before


ANGLE_FLAGS = ("theta", "theta-frac", "phi", "phi-frac")
# Each command, the flags it reads, and one flag of another command.
ARGV_COMMANDS = (
    (["basis"], ANGLE_FLAGS + ("n",), "grid-steps"),
    (["verify"], ANGLE_FLAGS + ("n", "seed"), "grid-steps"),
    (["circuit"], ANGLE_FLAGS, "n"),
    (["network", "table"], ANGLE_FLAGS + ("grid-steps",), "seed"),
    (["network", "scan"], ANGLE_FLAGS + ("grid-steps",), "n"),
    (["curve"], ("grid-steps",), "theta"),
    (["multiqubit"], ANGLE_FLAGS + ("n", "seed"), "grid-steps"),
)
FLAG_VALUES = {
    **dict.fromkeys(ANGLE_FLAGS, ANGLE_VALUES),
    "n": st.sampled_from(["2", "4", "6", "0", "3", "-2", "14", str(10**30), "x"]),
    "grid-steps": st.sampled_from(["1", "8", "0", "-1", "65537", "2.5"]),
    "seed": st.sampled_from(["1", "x"]),
    "format": st.sampled_from(["json", "csv", "xml"]),
    "output": st.sampled_from(["new", "existing", "directory", "missing parent", "empty"]),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_whole_argv_exits_0_1_or_2_as_documented(data):
    command, reads, unread = data.draw(st.sampled_from(ARGV_COMMANDS), label="command")
    flags = data.draw(st.lists(st.sampled_from(reads + ("format", "output", unread)),
                               unique=True), label="flags")
    values = {flag: data.draw(FLAG_VALUES[flag], label=flag) for flag in flags}
    with tempfile.TemporaryDirectory() as tmp:
        existing = Path(tmp, "existing")
        existing.write_text("kept\n", encoding="utf-8")
        outputs = {"new": Path(tmp, "new"), "existing": existing, "directory": tmp,
                   "missing parent": Path(tmp, "missing", "out"), "empty": ""}
        if "output" in values:
            values["output"] = outputs[values["output"]]
        argv = command + [f"--{flag}={value}" for flag, value in values.items()]
        code, out, err = _exit_stdout_and_stderr(argv)
        assert "Traceback" not in err
        assert code in (0, 1, 2)
        if code == 2:
            assert len([line for line in err.splitlines() if ERROR_LINE.match(line)]) == 1
            assert out == ""
            # An input error is reported before --output is opened, and the
            # directory and the missing parent cannot be opened at all.
            assert existing.read_text(encoding="utf-8") == "kept\n"
            assert not Path(tmp, "new").exists()
        if code == 1:
            plain = [arg for arg in argv if not arg.startswith(("--format", "--output"))]
            doc = json.loads(_exit_stdout_and_stderr(plain)[1])
            assert False in (doc.get("all_pass"), doc.get("pass"))
