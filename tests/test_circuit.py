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
    _gate_matrix,
    build_sjm_circuit,
    circuit_to_dict,
    circuit_unitary,
    verify_discrimination,
)
from sjm.cli import main
from sjm.linalg import ket

from oracles import gate_matrix, run_circuit, unitarity_residual, unitary

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
GRID = [(t, p) for t in THETA_GRID for p in PHI_GRID]
THETAS = st.floats(0.0, math.pi / 2)
PHIS = st.floats(-math.pi, math.pi)


def _mapped(params: SjmParams) -> np.ndarray:
    """Row k: the circuit's output on basis state k."""
    return np.einsum("kj,ij->ki", sjm_basis(params), circuit_unitary(build_sjm_circuit(params)))


def test_fixed_gate_matrices():
    h = gate_matrix("h")
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(gate_matrix("x"), [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(gate_matrix("s"), [[1, 0], [0, 1j]], atol=1e-15)
    # S is the quarter-turn phase gate.
    np.testing.assert_allclose(gate_matrix("s"), gate_matrix("rphase", (math.pi / 2,)), atol=1e-15)


def test_parameterized_gate_matrices():
    alpha = 0.37
    np.testing.assert_allclose(
        gate_matrix("rphase", (alpha,)), [[1, 0], [0, np.exp(1j * alpha)]], atol=1e-15
    )
    beta = 1.1
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    np.testing.assert_allclose(
        gate_matrix("rx", (beta,)), [[c, -1j * s], [-1j * s, c]], atol=1e-15
    )


def test_controlled_gate_block_structure():
    u = gate_matrix("crphase", (0.4,))
    np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(u[2:, 2:], gate_matrix("rphase", (0.4,)), atol=1e-15)
    np.testing.assert_allclose(u[:2, 2:], 0, atol=1e-15)
    cnot = gate_matrix("cnot")
    np.testing.assert_allclose(cnot, np.eye(4)[[0, 1, 3, 2]], atol=1e-15)


def test_all_gates_unitary():
    for kind, args in [
        ("h", ()),
        ("x", ()),
        ("s", ()),
        ("rphase", (0.9,)),
        ("rx", (-0.6,)),
        ("cnot", ()),
        ("crphase", (2.2,)),
        ("crx", (0.1,)),
        ("cs", ()),
    ]:
        assert unitarity_residual(gate_matrix(kind, args)) < 1e-12
    for gate in build_sjm_circuit(SjmParams(0.8, -0.4)):
        assert unitarity_residual(_gate_matrix(gate)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(theta=THETAS, phi=PHIS)
def test_each_gate_matrix_is_the_interpreter_on_both_wires(theta, phi):
    # Each 4x4 is placed, not multiplied, so it equals the gate run on the
    # four basis kets exactly (up to the sign of a zero).
    for gate in build_sjm_circuit(SjmParams(theta, phi)):
        assert np.array_equal(_gate_matrix(gate), unitary((gate,))), gate


def test_parameterized_gates_reduce_to_identity_at_aligned_point():
    gates = build_sjm_circuit(ejm_aligned())
    for gate in (gates[2], gates[4]):
        np.testing.assert_allclose(_gate_matrix(gate), np.eye(4), atol=1e-12)


def test_circuit_structure():
    p = SjmParams(0.8, -0.4)
    gates = build_sjm_circuit(p)
    assert len(gates) == 9
    assert [kind for kind, *_ in gates] == [
        "cnot", "h", "crphase", "x", "crx", "cs", "x", "h", "h",
    ]
    assert [controls + targets for _, _, controls, targets in gates] == [
        (0, 1), (0,), (0, 1), (1,), (1, 0), (0, 1), (1,), (0,), (1,),
    ]
    assert gates[2][1] == (math.pi / 2 - p.theta,)
    assert gates[4][1] == (math.pi / 2 - 2 * p.phi,)


@pytest.mark.parametrize("theta,phi", GRID)
def test_circuit_unitary(theta, phi):
    assert unitarity_residual(circuit_unitary(build_sjm_circuit(SjmParams(theta, phi)))) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(theta=THETAS, phi=PHIS)
@example(theta=0.0, phi=math.pi)
@example(theta=0.0, phi=-math.pi)
@example(theta=math.pi / 2, phi=math.pi)
@example(theta=math.pi / 2, phi=-math.pi)
@example(theta=math.pi / 2, phi=math.pi / 4)
def test_unitary_is_the_gate_by_gate_interpreter(theta, phi):
    gates = build_sjm_circuit(SjmParams(theta, phi))
    assert np.abs(circuit_unitary(gates) - unitary(gates)).max() <= 1e-15


@pytest.mark.parametrize("theta,phi", GRID)
def test_discrimination_on_grid(theta, phi):
    p = SjmParams(theta, phi)
    targets, amplitudes, _ = verify_discrimination(build_sjm_circuit(p), p)
    assert len(set(targets.tolist())) == 4
    assert np.abs(1.0 - np.abs(amplitudes)).max() <= 1e-8
    # The state -> ket assignment never moves as the parameters vary.
    assert tuple(targets.tolist()) == EXPECTED_TARGETS


@settings(max_examples=40, deadline=None)
@given(theta=THETAS, phi=PHIS)
def test_discrimination_random_point(theta, phi):
    p = SjmParams(theta, phi)
    targets, amplitudes, sign_residual = verify_discrimination(build_sjm_circuit(p), p)
    assert tuple(targets.tolist()) == EXPECTED_TARGETS
    assert np.abs(1.0 - np.abs(amplitudes)).max() <= 1e-8
    # The sign pattern holds at every point, to a few ulp.
    assert sign_residual <= 2e-15


@pytest.mark.parametrize("theta,phi", GRID)
def test_outcome_probabilities_one_hot(theta, phi):
    out = _mapped(SjmParams(theta, phi))
    total = sum(abs(out[k, EXPECTED_TARGETS[k]]) ** 2 for k in range(4))
    assert abs(total - 4.0) <= 4e-8


def test_aligned_mapping_signs():
    p = ejm_aligned()
    targets, _, sign_residual = verify_discrimination(build_sjm_circuit(p), p)
    assert sign_residual <= 1e-8
    assert [format(t, "02b") for t in targets.tolist()] == ["01", "11", "00", "10"]
    for k, (out, state) in enumerate(zip(_mapped(p), sjm_basis(p))):
        expected = EXPECTED_SIGNS[k] * ket(format(EXPECTED_TARGETS[k], "02b"))
        np.testing.assert_allclose(out, expected, atol=1e-8)
        # The one product U and the gate-by-gate run agree.
        np.testing.assert_allclose(run_circuit(build_sjm_circuit(p), state), out, atol=1e-15)


def test_product_point_maps_first_state_to_01():
    # At theta=0, phi=0 the basis is a product basis and the first state
    # comes out exactly as |01>.
    p = SjmParams(0.0, 0.0)
    np.testing.assert_allclose(_mapped(p)[0], ket("01"), atol=1e-12)
    targets, amplitudes, _ = verify_discrimination(build_sjm_circuit(p), p)
    assert len(set(targets.tolist())) == 4
    assert np.abs(1.0 - np.abs(amplitudes)).max() <= 1e-8


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
    params = SjmParams(theta, phi)
    doc = circuit_to_dict(build_sjm_circuit(params), params)
    expected = {**doc, "theta": _printed(doc["theta"]), "phi": _printed(doc["phi"]),
                "gates": [{**gate, "args": [_printed(a) for a in gate["args"]]}
                          for gate in doc["gates"]]}
    assert emitted == expected
    assert _float_bits(emitted) == _float_bits(expected)
