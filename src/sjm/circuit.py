"""Two-qubit circuit that maps the measurement basis onto computational kets.

The circuit is a fixed nine-gate sequence whose two parameterized gates
carry pi/2 - theta and pi/2 - 2*phi; at theta = pi/2, phi = pi/4 both
reduce to the identity.  Running it on basis state k concentrates all
probability on a single computational ket, so a plain computational
measurement afterwards realizes the joint measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bases import SjmParams, sjm_basis
from .linalg import PAULI_X, apply_gate, num_qubits

TOL_CIRCUIT = 1e-8

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


class GateKind(str, Enum):
    H = "h"
    X = "x"
    S = "s"
    RPHASE = "rphase"
    RX = "rx"
    CNOT = "cnot"
    CRPHASE = "crphase"
    CRX = "crx"
    CS = "cs"


_CONTROLLED = {
    GateKind.CNOT: GateKind.X,
    GateKind.CRPHASE: GateKind.RPHASE,
    GateKind.CRX: GateKind.RX,
    GateKind.CS: GateKind.S,
}
_ARITY = {GateKind.RPHASE: 1, GateKind.RX: 1, GateKind.CRPHASE: 1, GateKind.CRX: 1}


def gate_matrix(kind: GateKind, args: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary for a gate kind; controlled kinds give the 4x4 on (control, target)."""
    kind = GateKind(kind)
    if len(args) != _ARITY.get(kind, 0):
        raise ValueError(f"{kind.value} takes {_ARITY.get(kind, 0)} parameter(s), got {len(args)}")
    if kind in _CONTROLLED:
        u = gate_matrix(_CONTROLLED[kind], args)
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = u
        return out
    if kind is GateKind.H:
        return HADAMARD.copy()
    if kind is GateKind.X:
        return PAULI_X.copy()
    if kind is GateKind.S:
        return S_GATE.copy()
    if kind is GateKind.RPHASE:
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * args[0])]], dtype=complex)
    if kind is GateKind.RX:
        c, s = math.cos(args[0] / 2.0), math.sin(args[0] / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    raise ValueError(f"unknown gate kind {kind!r}")


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, numeric args, control and target wires."""

    kind: GateKind
    args: tuple[float, ...] = ()
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        wants_control = GateKind(self.kind) in _CONTROLLED
        if wants_control != (len(self.controls) == 1):
            raise ValueError(f"{self.kind} controls mismatch: {self.controls}")
        if len(self.targets) != 1:
            raise ValueError(f"{self.kind} needs exactly one target, got {self.targets}")

    @property
    def wires(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.kind, self.args)


@dataclass(frozen=True)
class GateCircuit:
    """An ordered gate list on a fixed number of qubits."""

    num_qubits: int
    ops: tuple[GateOp, ...]
    params: SjmParams

    def apply(self, state: np.ndarray) -> np.ndarray:
        if num_qubits(state) != self.num_qubits:
            raise ValueError(f"state is not on {self.num_qubits} qubits")
        for op in self.ops:
            state = apply_gate(state, op.matrix(), op.wires)
        return state


def build_sjm_circuit(params: SjmParams) -> GateCircuit:
    """The nine-gate discrimination circuit for the basis at these angles."""
    ops = (
        GateOp(GateKind.CNOT, (), (0,), (1,)),
        GateOp(GateKind.H, (), (), (0,)),
        GateOp(GateKind.CRPHASE, (math.pi / 2 - params.theta,), (0,), (1,)),
        GateOp(GateKind.X, (), (), (1,)),
        GateOp(GateKind.CRX, (math.pi / 2 - 2.0 * params.phi,), (1,), (0,)),
        GateOp(GateKind.CS, (), (0,), (1,)),
        GateOp(GateKind.X, (), (), (1,)),
        GateOp(GateKind.H, (), (), (0,)),
        GateOp(GateKind.H, (), (), (1,)),
    )
    return GateCircuit(num_qubits=2, ops=ops, params=params)


# Where each basis state lands: k -> |01>, -|11>, -|00>, |10>.
EXPECTED_TARGETS = (1, 3, 0, 2)
EXPECTED_SIGNS = (1.0, -1.0, -1.0, 1.0)


@dataclass(frozen=True)
class StateMapping:
    """Where one basis state ends up after the circuit."""

    state_index: int
    target_index: int
    target_bits: str
    magnitude: float
    phase: float


@dataclass(frozen=True)
class DiscriminationReport:
    """Outcome of running the circuit over every basis state.

    `passed` gates on magnitudes and distinctness only; the sign pattern
    against the (+, -, -, +) reference lives in reference_sign_residual
    and is exactly zero at theta = pi/2, phi = pi/4.
    """

    mappings: tuple[StateMapping, ...]
    targets_distinct: bool
    max_magnitude_error: float
    reference_sign_residual: float
    passed: bool


def verify_discrimination(circuit: GateCircuit) -> DiscriminationReport:
    """Check that the circuit maps each state of the basis at its own angles
    onto its own ket."""
    mappings = []
    sign_residual = 0.0
    for k, state in enumerate(sjm_basis(circuit.params)):
        out = circuit.apply(state)
        target = int(np.argmax(np.abs(out)))
        amp = complex(out[target])
        mappings.append(
            StateMapping(
                state_index=k,
                target_index=target,
                target_bits=format(target, "02b"),
                magnitude=abs(amp),
                phase=float(np.angle(amp)),
            )
        )
        sign_residual = max(
            sign_residual, abs(complex(out[EXPECTED_TARGETS[k]]) - EXPECTED_SIGNS[k])
        )
    distinct = len({m.target_index for m in mappings}) == 4
    max_err = max(abs(1.0 - m.magnitude) for m in mappings)
    return DiscriminationReport(
        mappings=tuple(mappings),
        targets_distinct=distinct,
        max_magnitude_error=max_err,
        reference_sign_residual=sign_residual,
        passed=distinct and max_err <= TOL_CIRCUIT,
    )


def circuit_to_dict(circuit: GateCircuit) -> dict:
    """JSON-ready description: the angles, then the ordered gates with kinds,
    args, and wires."""
    return {
        "num_qubits": circuit.num_qubits,
        "theta": circuit.params.theta,
        "phi": circuit.params.phi,
        "gates": [
            {
                "kind": op.kind.value,
                "args": list(op.args),
                "controls": list(op.controls),
                "targets": list(op.targets),
            }
            for op in circuit.ops
        ],
    }
