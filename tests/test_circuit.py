import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sjm.bases import SjmParams, ejm_aligned, sjm_basis
from sjm.circuit import (
    EXPECTED_SIGNS,
    EXPECTED_TARGETS,
    GateKind,
    GateOp,
    build_sjm_circuit,
    circuit_to_dict,
    gate_matrix,
    verify_discrimination,
)
from sjm.cli import main
from sjm.linalg import ket

from oracles import unitarity_residual, unitary

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
GRID = [(t, p) for t in THETA_GRID for p in PHI_GRID]
THETAS = st.floats(0.0, math.pi / 2)
PHIS = st.floats(-math.pi, math.pi)


def test_fixed_gate_matrices():
    h = gate_matrix(GateKind.H)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(gate_matrix(GateKind.X), [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(gate_matrix(GateKind.S), [[1, 0], [0, 1j]], atol=1e-15)
    # S is the quarter-turn phase gate.
    np.testing.assert_allclose(gate_matrix(GateKind.S), gate_matrix(GateKind.RPHASE, (math.pi / 2,)), atol=1e-15)


def test_parameterized_gate_matrices():
    alpha = 0.37
    np.testing.assert_allclose(
        gate_matrix(GateKind.RPHASE, (alpha,)), [[1, 0], [0, np.exp(1j * alpha)]], atol=1e-15
    )
    beta = 1.1
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    np.testing.assert_allclose(
        gate_matrix(GateKind.RX, (beta,)), [[c, -1j * s], [-1j * s, c]], atol=1e-15
    )


def test_controlled_gate_block_structure():
    u = gate_matrix(GateKind.CRPHASE, (0.4,))
    np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(u[2:, 2:], gate_matrix(GateKind.RPHASE, (0.4,)), atol=1e-15)
    np.testing.assert_allclose(u[:2, 2:], 0, atol=1e-15)
    cnot = gate_matrix(GateKind.CNOT)
    np.testing.assert_allclose(cnot, np.eye(4)[[0, 1, 3, 2]], atol=1e-15)


def test_all_gates_unitary():
    for kind, args in [
        (GateKind.H, ()),
        (GateKind.X, ()),
        (GateKind.S, ()),
        (GateKind.RPHASE, (0.9,)),
        (GateKind.RX, (-0.6,)),
        (GateKind.CNOT, ()),
        (GateKind.CRPHASE, (2.2,)),
        (GateKind.CRX, (0.1,)),
        (GateKind.CS, ()),
    ]:
        assert unitarity_residual(gate_matrix(kind, args)) < 1e-12


def test_gate_arity_enforced():
    with pytest.raises(ValueError):
        gate_matrix(GateKind.H, (0.5,))
    with pytest.raises(ValueError):
        gate_matrix(GateKind.RX, ())


def test_parameterized_gates_reduce_to_identity_at_aligned_point():
    p = ejm_aligned()
    np.testing.assert_allclose(
        gate_matrix(GateKind.CRPHASE, (math.pi / 2 - p.theta,)), np.eye(4), atol=1e-12
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.CRX, (math.pi / 2 - 2 * p.phi,)), np.eye(4), atol=1e-12
    )


def test_circuit_structure():
    p = SjmParams(0.8, -0.4)
    circuit = build_sjm_circuit(p)
    assert circuit.num_qubits == 2
    assert len(circuit.ops) == 9
    kinds = [op.kind for op in circuit.ops]
    assert kinds == [
        GateKind.CNOT,
        GateKind.H,
        GateKind.CRPHASE,
        GateKind.X,
        GateKind.CRX,
        GateKind.CS,
        GateKind.X,
        GateKind.H,
        GateKind.H,
    ]
    assert [op.wires for op in circuit.ops] == [
        (0, 1), (0,), (0, 1), (1,), (1, 0), (0, 1), (1,), (0,), (1,),
    ]
    assert circuit.ops[2].args == (math.pi / 2 - p.theta,)
    assert circuit.ops[4].args == (math.pi / 2 - 2 * p.phi,)


@pytest.mark.parametrize("theta,phi", GRID)
def test_circuit_unitary(theta, phi):
    circuit = build_sjm_circuit(SjmParams(theta, phi))
    assert unitarity_residual(unitary(circuit)) <= 1e-10


@pytest.mark.parametrize("theta,phi", GRID)
def test_discrimination_on_grid(theta, phi):
    p = SjmParams(theta, phi)
    report = verify_discrimination(build_sjm_circuit(p), sjm_basis(p))
    assert report.passed
    assert report.targets_distinct
    assert report.max_magnitude_error <= 1e-8
    # The state -> ket assignment never moves as the parameters vary.
    assert tuple(m.target_index for m in report.mappings) == EXPECTED_TARGETS


@settings(max_examples=40, deadline=None)
@given(theta=THETAS, phi=PHIS)
def test_discrimination_random_point(theta, phi):
    p = SjmParams(theta, phi)
    report = verify_discrimination(build_sjm_circuit(p), sjm_basis(p))
    assert report.passed
    assert tuple(m.target_index for m in report.mappings) == EXPECTED_TARGETS


@pytest.mark.parametrize("theta,phi", GRID)
def test_outcome_probabilities_one_hot(theta, phi):
    p = SjmParams(theta, phi)
    circuit = build_sjm_circuit(p)
    total = 0.0
    for k, state in enumerate(sjm_basis(p).states):
        out = circuit.apply(state)
        total += abs(out[EXPECTED_TARGETS[k]]) ** 2
    assert abs(total - 4.0) <= 4e-8


def test_aligned_mapping_signs():
    p = ejm_aligned()
    report = verify_discrimination(build_sjm_circuit(p), sjm_basis(p))
    assert report.reference_sign_residual <= 1e-8
    assert [m.target_bits for m in report.mappings] == ["01", "11", "00", "10"]
    circuit = build_sjm_circuit(p)
    for k, state in enumerate(sjm_basis(p).states):
        out = circuit.apply(state)
        expected = EXPECTED_SIGNS[k] * ket(format(EXPECTED_TARGETS[k], "02b"))
        np.testing.assert_allclose(out, expected, atol=1e-8)


def test_product_point_maps_first_state_to_01():
    # At theta=0, phi=0 the basis is a product basis and the first state
    # comes out exactly as |01>.
    p = SjmParams(0.0, 0.0)
    circuit = build_sjm_circuit(p)
    out = circuit.apply(sjm_basis(p).states[0])
    np.testing.assert_allclose(out, ket("01"), atol=1e-12)
    report = verify_discrimination(circuit, sjm_basis(p))
    assert report.passed


def test_parameter_mismatch_rejected():
    circuit = build_sjm_circuit(SjmParams(0.5, 0.2))
    basis = sjm_basis(SjmParams(0.5, 0.3))
    with pytest.raises(ValueError):
        verify_discrimination(circuit, basis)


def test_apply_rejects_wrong_size():
    circuit = build_sjm_circuit(ejm_aligned())
    with pytest.raises(ValueError):
        circuit.apply(ket("000"))


def test_gate_op_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.CNOT, (), (), (1,))  # missing control
    with pytest.raises(ValueError):
        GateOp(GateKind.H, (), (0,), (1,))  # spurious control
    with pytest.raises(ValueError):
        GateOp(GateKind.H, (), (), ())  # no target


def _printed(x: float) -> float:
    """`x` rounded to 15 significant digits, the value the CLI prints."""
    return float(f"{x:.15g}")


def _float_bits(doc: dict) -> list[str]:
    """theta, phi and every gate arg of a circuit document, each as its exact bits."""
    values = (doc["theta"], doc["phi"], *(a for gate in doc["gates"] for a in gate["args"]))
    return [value.hex() for value in values]


@settings(max_examples=40, deadline=None)
@given(theta=THETAS, phi=PHIS)
@example(theta=0.7, phi=-1.2)  # the arg pi/2 - 0.7 = 0.8707963267948966 prints as ...897
def test_json_roundtrip_gives_back_every_float_bit_for_bit(theta, phi):
    """The gate list the `circuit` command prints parses back to
    `circuit_to_dict`'s, with theta, phi and every gate arg bit for bit as
    rounded to the 15 significant digits the CLI prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["circuit", f"--theta={theta!r}", f"--phi={phi!r}"]) == 0
    emitted = json.loads(out.getvalue())["circuit"]
    doc = circuit_to_dict(build_sjm_circuit(SjmParams(theta, phi)))
    expected = {**doc, "theta": _printed(doc["theta"]), "phi": _printed(doc["phi"]),
                "gates": [{**gate, "args": [_printed(a) for a in gate["args"]]}
                          for gate in doc["gates"]]}
    assert emitted == expected
    assert _float_bits(emitted) == _float_bits(expected)
