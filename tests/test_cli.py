"""End-to-end tests driving the command-line interface through ``main``."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjm.analysis
import sjm.bases
import sjm.cli
import sjm.linalg
import sjm.multiqubit
import sjm.network
from sjm.bases import component_state, ejm_aligned
from sjm.circuit import build_sjm_circuit, circuit_from_dict
from sjm.cli import (
    _CHUNK_ROWS,
    GRID_STEPS_CAP,
    Table,
    _cells,
    _fmt,
    build_parser,
    main,
    params_from_args,
    write_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_default_json(capsys):
    code, out = run_cli(capsys, "basis")
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


def test_basis_multiqubit_row_count(capsys):
    code, out = run_cli(capsys, "basis", "--n", "4", "--theta", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 16
    assert doc["states"][0]["index"] == [0, 0]
    assert len(doc["states"][0]["amplitudes"]) == 16


def test_basis_csv_shape(capsys):
    code, out = run_cli(capsys, "basis", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("index,amp0_re,amp0_im")
    assert lines[0].endswith("amp3_re,amp3_im")


def test_theta_out_of_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--theta", "2.0"])
    assert exc.value.code == 2
    assert "theta out of range" in capsys.readouterr().err


def test_conflicting_theta_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--theta", "0.3", "--theta-frac", "1/2"])
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err


def test_odd_qubit_count_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiqubit", "--n", "3"])
    assert exc.value.code == 2


def test_fraction_flag_matches_radian_flag(capsys):
    _, out_frac = run_cli(capsys, "basis", "--theta-frac", "1/2", "--phi-frac", "1/4")
    _, out_rad = run_cli(
        capsys, "basis", "--theta", repr(math.pi / 2), "--phi", repr(math.pi / 4)
    )
    assert out_frac == out_rad


def test_verify_default_all_pass(capsys):
    code, out = run_cli(capsys, "verify")
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


def test_verify_product_point(capsys):
    code, out = run_cli(capsys, "verify", "--theta", "0", "--phi", "-3.141592653589793")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_csv_header(capsys):
    code, out = run_cli(capsys, "verify", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,residual,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_circuit_default_aligned(capsys):
    code, out = run_cli(capsys, "circuit")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [m["target_bits"] for m in doc["mappings"]] == ["01", "11", "00", "10"]
    assert doc["reference_sign_residual"] <= 1e-8
    assert len(doc["circuit"]["gates"]) == 9
    parsed = circuit_from_dict(doc["circuit"])
    assert parsed.isclose(build_sjm_circuit(ejm_aligned()), tol=1e-12)


def test_circuit_generic_point(capsys):
    code, out = run_cli(capsys, "circuit", "--theta", "0.3", "--phi", "-1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["targets_distinct"] is True
    assert doc["max_magnitude_error"] <= 1e-8


def test_circuit_csv_header(capsys):
    _, out = run_cli(capsys, "circuit", "--format", "csv")
    assert out.split("\n")[0] == "state,target,target_bits,magnitude,phase"


def test_network_table_aligned(capsys):
    code, out = run_cli(capsys, "network", "table", "--theta-frac", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["total"] == pytest.approx(1.0, abs=1e-10)
    probs = sorted(o["probability"] for o in doc["outcomes"])
    assert len(doc["outcomes"]) == 64
    assert probs[:36] == pytest.approx([1 / 256] * 36, abs=1e-12)
    assert probs[36:60] == pytest.approx([5 / 256] * 24, abs=1e-12)
    assert probs[60:] == pytest.approx([25 / 256] * 4, abs=1e-12)


def test_network_table_product_point_csv(capsys):
    code, out = run_cli(capsys, "network", "table", "--theta", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,c,probability"
    assert len(lines) == 65
    assert all(line.endswith(",0.015625") for line in lines[1:])


def test_network_scan_threshold(capsys):
    code, out = run_cli(capsys, "network", "scan", "--grid-steps", "64")
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


def test_network_scan_csv_header(capsys):
    _, out = run_cli(capsys, "network", "scan", "--grid-steps", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "theta,p_same,bound,violates"
    assert len(lines) == 5
    assert lines[1].endswith(",false")
    assert lines[-1].endswith(",true")


def test_curve_rows_and_endpoints(capsys):
    code, out = run_cli(capsys, "curve", "--grid-steps", "8")
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


def test_curve_csv_header(capsys):
    _, out = run_cli(capsys, "curve", "--grid-steps", "2", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "theta,c_sjm,c_ejm_family,c_original_ejm"
    assert len(lines) == 4


def test_multiqubit_four_qubits(capsys):
    code, out = run_cli(capsys, "multiqubit", "--n", "4", "--theta", "0.7", "--phi", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert list(doc["gram"]) == ["residual"]
    assert doc["gram"]["residual"] <= 1e-10
    assert len(doc["reductions"]) == 16 * 4


def test_multiqubit_csv_header(capsys):
    _, out = run_cli(capsys, "multiqubit", "--n", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "index,position,x,y,z"
    assert len(lines) == 1 + 16 * 4
    assert lines[1].startswith("00,0,")


def test_multiqubit_gram_certifies_every_pair_without_seed(capsys):
    # n = 8 has 32 640 state pairs; the bound covers all of them, so the
    # report carries no sampling metadata and no seed.
    code, out = run_cli(capsys, "multiqubit", "--n", "8", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"] == {"residual": doc["gram"]["residual"]}
    assert doc["gram"]["residual"] <= 1e-10
    assert "seed" not in doc


@pytest.mark.parametrize("command", ["verify", "multiqubit"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_seed_is_accepted_and_ignored(command, fmt, capsys):
    base = [command, "--n", "8", "--theta", "0.7", "--phi=-1.3", "--format", fmt]
    code, plain = run_cli(capsys, *base)
    assert (code, plain) == run_cli(capsys, *base, "--seed", "5")
    assert code == 0


@pytest.mark.parametrize("command", ["verify", "multiqubit"])
def test_help_says_seed_is_ignored(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed SEED accepted and ignored" in " ".join(capsys.readouterr().out.split())


def test_repeated_runs_byte_identical(capsys):
    _, first = run_cli(capsys, "verify", "--theta", "0.9", "--phi", "0.1")
    _, second = run_cli(capsys, "verify", "--theta", "0.9", "--phi", "0.1")
    assert first == second
    _, third = run_cli(capsys, "multiqubit", "--n", "8", "--seed", "3")
    _, fourth = run_cli(capsys, "multiqubit", "--n", "8", "--seed", "3")
    assert third == fourth


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["all_pass"] is True


def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys):
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--output", str(path)])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("sjm: error: cannot write")
        assert sum(line.startswith("sjm: error:") for line in lines) == 1
        assert not any("Traceback" in line for line in lines)


def test_invalid_input_never_touches_output(tmp_path, capsys):
    path = tmp_path / "f"
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "14", "--output", str(path)])
    assert exc.value.code == 2
    assert not path.exists()
    path.write_text("kept\n", encoding="utf-8")
    invalid = (["basis", "--n", "14"], ["verify", "--theta", "2.0"], ["curve", "--grid-steps", "0"])
    for argv in invalid:
        with pytest.raises(SystemExit):
            main(argv + ["--output", str(path)])
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


def test_overflowing_angle_fraction_exits_2_from_the_shell():
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sjm.cli", "verify", "--theta-frac=1e400"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("sjm: error: cannot parse --theta-frac")
    assert "Traceback" not in proc.stderr


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
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_grid_steps_cap(capsys):
    args = build_parser().parse_args(["curve", "--grid-steps", str(GRID_STEPS_CAP)])
    params_from_args(args)  # the cap itself validates
    assert args.grid_steps == GRID_STEPS_CAP
    for argv in (["curve"], ["network", "scan"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid-steps", str(GRID_STEPS_CAP + 1)])
        assert exc.value.code == 2
        assert f"grid-steps must be in [1, {GRID_STEPS_CAP}]" in capsys.readouterr().err


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

    for module in (sjm.bases, sjm.network, sjm.analysis):
        monkeypatch.setattr(module, "sjm_basis", forbidden)
    monkeypatch.setattr(sjm.network, "triangle_state", forbidden)
    for argv in (["network", "scan", "--grid-steps", "64", "--phi=0.3"],
                 ["curve", "--grid-steps", "64", "--format", "csv"]):
        code, out = _stdout(argv)
        assert code == 0
        assert out


def test_benchmark_argv_uses_only_accepted_flags(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            stream = workloads.OpStream(name, seed=1, size=size)
            for op in [stream.warmup] + stream.next_cycle():
                params_from_args(parser.parse_args(op.argv))


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
FIELDS = st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3)
ROWS = st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3)
CHUNK_EDGES = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]


@settings(max_examples=200, deadline=None)
@given(
    head=FIELDS,
    rows=st.lists(ROWS, min_size=1, max_size=4),
    count=st.sampled_from(CHUNK_EDGES),
    tail=FIELDS,
)
def test_write_json_matches_json_dumps(head, rows, count, tail):
    rows = [rows[i % len(rows)] for i in range(count)]  # on both sides of chunk boundaries
    # Distinct keys, so the document is exactly head, rows, then tail.
    head = {"h" + k: v for k, v in head.items()} | {"command": "x"}
    tail = {"t" + k: v for k, v in tail.items()}
    out = io.StringIO()
    write_json(Table(head=head, key="rows", rows=iter(rows), columns=(), tail=tail), out)
    assert out.getvalue() == json.dumps({**head, "rows": rows, **tail}, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e308, 1e308))
def test_csv_cell_of_rounded_float_is_its_15_digit_form(x):
    # Rows carry floats already rounded by _fmt; the CSV cell must still be
    # exactly the 15-significant-digit form of the unrounded value.  (Above
    # 1.79769313486231e308 the rounding overflows to inf; the CLI's values
    # are amplitudes, probabilities, angles and residuals, all far below.)
    assert _cells(_fmt(x)) == [f"{x:.15g}"]
    assert _cells([[_fmt(x), _fmt(-x)]]) == [f"{x:.15g}", f"{-x:.15g}"]


def _stdout(argv) -> tuple[int, str]:
    # capsys is function-scoped, so hypothesis examples capture by hand.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


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


def test_certificate_catches_a_perturbed_component(monkeypatch):
    # One component state 1e-6 too long: the factored Gram bound and the
    # factored reductions must both see it.
    def perturbed(k, slot, params):
        state = component_state(k, slot, params)
        return state * (1.0 + 1e-6) if (k, slot) == (2, 1) else state

    monkeypatch.setattr(sjm.bases, "component_state", perturbed)
    code, out = _stdout(["verify", "--n", "8", "--theta", "0.7", "--phi=-1.3"])
    assert code == 1
    doc = json.loads(out)
    failed = {entry["name"] for entry in doc["invariants"] if not entry["pass"]}
    assert {"multi_gram_residual", "multi_reduction_residual"} <= failed
    assert doc["all_pass"] is False


def test_verify_builds_its_components_once(monkeypatch):
    # One construction of the basis serves every row; the per-state
    # `sjm_state` oracle builds its own 8 components on top.
    params = sjm.bases.SjmParams(0.7, -1.3)
    counts = {"_components": 0, "component_state": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += args[-1] == params
            return fn(*args)
        return counted

    components = counting("_components", sjm.bases._components)
    for module in (sjm.bases, sjm.multiqubit):
        monkeypatch.setattr(module, "_components", components)
    monkeypatch.setattr(sjm.bases, "component_state",
                        counting("component_state", sjm.bases.component_state))
    code, out = _stdout(["verify", "--theta", "0.7", "--phi=-1.3"])
    assert code == 0
    assert len(json.loads(out)["invariants"]) == 16
    assert counts == {"_components": 1, "component_state": 16}


def test_verify_and_multiqubit_never_build_the_dense_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    for module in (sjm.multiqubit, sjm.cli):
        monkeypatch.setattr(module, "multi_sjm_basis", forbidden)
    # The multiqubit layer's partial traces; the two-qubit invariants in
    # `analysis` keep theirs, on 4-amplitude states.
    for module in (sjm.multiqubit, sjm.linalg):
        monkeypatch.setattr(module, "partial_trace", forbidden)
    for argv in (["verify", "--n", "12"], ["multiqubit", "--n", "4"],
                 ["multiqubit", "--n", "12", "--format", "csv"]):
        code, out = _stdout(argv)
        assert code == 0
        assert out


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
def test_empty_output_exits_2_and_writes_nothing(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--output="])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
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
