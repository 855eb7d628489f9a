"""Independent references the tests hold the library to.

Nothing in `sjm` calls these: each restates a quantity the package computes
another way (a closed form, a partial trace of a dense state, a Rodrigues
turn, a circuit run gate by gate, the dense network state), so a test can
compare the two.
"""
import math
from typing import Sequence

import numpy as np

from sjm.bases import SjmParams, bell_psi_plus, cos_k_pi, sjm_basis
from sjm.circuit import HADAMARD, S_GATE
from sjm.linalg import PAULI_X, PAULIS, tensor


def direction_state(k: int, sign: int, params: SjmParams) -> np.ndarray:
    """One of the orthonormal pair along direction k (sign +1 or -1), one
    scalar at a time: (sqrt(1 + s ck)/h, s sqrt(1 - s ck) h)/sqrt 2 with
    h = e^{i phi_k/2}.  The reference `component_states` broadcasts, with the
    same operations in the same order."""
    ck = cos_k_pi(k)
    half_phase = np.exp(0.5j * params.phi_k(k))
    a = math.sqrt(1.0 + sign * ck) / half_phase
    b = sign * math.sqrt(1.0 - sign * ck) * half_phase
    return np.array([a, b], dtype=complex) / math.sqrt(2.0)


def component_state(k: int, slot: int, params: SjmParams) -> np.ndarray:
    """m_{k,slot} from its direction pair, with weights 1 + e^{-+ i pi/4}: the
    reference for `component_states(params)[k, slot]`, bit for bit."""
    plus = direction_state(k, +1, params)
    minus = direction_state(k, -1, params)
    norm = 1.0 / math.sqrt(4.0 + 2.0 * math.sqrt(2.0))
    turn = np.exp(0.25j * math.pi)
    w = turn if slot else turn.conjugate()
    return norm * ((1.0 + w) * plus + (1.0 + w.conjugate()) * minus)


def ejm_family_concurrence_closed_form(theta: float) -> float:
    """Concurrence of the interpolating family: (1/2) sqrt(1 + 3 sin^2 theta)."""
    return 0.5 * math.sqrt(1.0 + 3.0 * math.sin(theta) ** 2)


def unitarity_residual(op: np.ndarray) -> float:
    """Max absolute deviation of U^dag U from the identity."""
    return float(np.abs(op.conj().T @ op - np.eye(op.shape[0])).max())


def num_qubits(state: np.ndarray) -> int:
    """Qubit count of a state vector; length must be a power of two."""
    n = len(state).bit_length() - 1
    if n < 1 or len(state) != 2**n:
        raise ValueError(f"state length {len(state)} is not a power of two >= 2")
    return n


def permute_qubits(state: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder qubits: the qubit at old position i moves to position perm[i]."""
    n = num_qubits(state)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    # Axis j of the result must be old axis i with perm[i] = j, i.e. the
    # inverse permutation as a transpose axis list.
    inverse = np.argsort(perm)
    return state.reshape([2] * n).transpose(inverse).reshape(-1)


def apply_gate(state: np.ndarray, gate: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a 2^m x 2^m unitary to the given m qubits (in target order)."""
    n = num_qubits(state)
    targets = [int(t) for t in targets]
    m = len(targets)
    if gate.shape != (2**m, 2**m):
        raise ValueError(f"gate shape {gate.shape} does not act on {m} qubit(s)")
    if len(set(targets)) != m:
        raise ValueError(f"duplicate target qubit in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target out of range in {targets} for {n} qubits")
    psi = state.reshape([2] * n)
    rest = [q for q in range(n) if q not in targets]
    psi = psi.transpose(targets + rest).reshape(2**m, -1)
    psi = gate @ psi
    # Undo the reordering.
    unshuffle = np.argsort(targets + rest)
    return psi.reshape([2] * n).transpose(unshuffle).reshape(-1)


# The one-qubit gate each controlled kind applies to its target.
_CONTROLLED = {"cnot": "x", "crphase": "rphase", "crx": "rx", "cs": "s"}


def gate_matrix(kind: str, args: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary for a gate kind: 2x2 on its target, or for a controlled kind
    the 4x4 on (control, target)."""
    if kind in _CONTROLLED:
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = gate_matrix(_CONTROLLED[kind], args)
        return out
    if kind == "rphase":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * args[0])]], dtype=complex)
    if kind == "rx":
        c, s = math.cos(args[0] / 2.0), math.sin(args[0] / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return {"h": HADAMARD, "x": PAULI_X, "s": S_GATE}[kind].copy()


def run_circuit(gates, state: np.ndarray) -> np.ndarray:
    """The state after each gate of `build_sjm_circuit`'s list in turn, each
    applied to its wires (controls first) by `apply_gate`."""
    for kind, args, controls, targets in gates:
        state = apply_gate(state, gate_matrix(kind, args), controls + targets)
    return state


def unitary(gates) -> np.ndarray:
    """The circuit's matrix, column j the circuit run on basis ket j."""
    return np.column_stack([run_circuit(gates, ket) for ket in np.eye(4, dtype=complex)])


def partial_trace(state: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of the kept qubit(s) of a dense state, in the
    order given; `keep` is one qubit index or a sequence of distinct ones."""
    n = num_qubits(state)
    kept = [keep] if isinstance(keep, int) else list(keep)
    rest = [q for q in range(n) if q not in kept]
    psi = state.reshape([2] * n).transpose(kept + rest).reshape(2 ** len(kept), -1)
    return psi @ psi.conj().T


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Pauli expectation values (x, y, z) of a single-qubit density matrix."""
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def reduction_vectors(states: np.ndarray) -> np.ndarray:
    """Bloch vectors of both marginals of each two-qubit state, shape
    (len(states), 2, 3): [state, qubit], by partial trace."""
    return np.array([[bloch_vector(partial_trace(s, qubit)) for qubit in (0, 1)]
                     for s in states])


def symmetry_axis(k: int, params: SjmParams) -> np.ndarray:
    """Unit vector (cos phi_k, sin phi_k, 0); a pi rotation about it maps the
    first marginal's Bloch vector of state k onto the second's."""
    phik = params.phi_k(k)
    return np.array([math.cos(phik), math.sin(phik), 0.0])


def rotation_about_axis(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a 3-vector about a unit axis (Rodrigues formula)."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def multi_reduction_vector(states: np.ndarray, ks: tuple[int, ...], position: int) -> np.ndarray:
    """Bloch vector of one reduction of the dense state ks of a basis (qubit
    position 0-based), by partial trace: the independent oracle of
    `multi_reduction_vectors`."""
    n = states.shape[1].bit_length() - 1
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for n={n}")
    return bloch_vector(partial_trace(states[np.ravel_multi_index(ks, (4,) * len(ks))], position))


def permutation_residual(probs: np.ndarray) -> float:
    """Max change of a (4, 4, 4) outcome table under any relabeling of the parties."""
    worst = 0.0
    for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        worst = max(worst, float(np.abs(probs - probs.transpose(axes)).max()))
    return worst


# Sources emit pairs in the order (A2 B1)(B2 C1)(C2 A1); this permutation
# rearranges those six qubits into party order (A1 A2 B1 B2 C1 C2).
SOURCE_PERMUTATION = (1, 2, 3, 4, 5, 0)


def triangle_state() -> np.ndarray:
    """The six-qubit network state, qubits ordered (A1 A2 B1 B2 C1 C2)."""
    pair = bell_psi_plus()
    return permute_qubits(tensor(pair, pair, pair), SOURCE_PERMUTATION)


def joint_amplitudes(params: SjmParams) -> np.ndarray:
    """<state_j state_k state_l | network> for all 64 outcomes, by the 64-term
    einsum over the dense network state."""
    m = sjm_basis(params).conj()
    return np.einsum("ja,kb,lc,abc->jkl", m, m, m, triangle_state().reshape(4, 4, 4))


def outcome_amplitude(j: int, k: int, l: int, params: SjmParams) -> complex:
    """<state_j state_k state_l | network state>, computed numerically."""
    states = sjm_basis(params)
    return complex(np.vdot(tensor(states[j], states[k], states[l]), triangle_state()))


def amplitude_closed_form(j: int, k: int, l: int, params: SjmParams) -> complex:
    """The same amplitude in closed form:

    (1/32) { e^{-2i theta} (cj + ck + cl)
             + 2 e^{-i theta} [sin(pj - pk) + sin(pk - pl) + sin(pl - pj)]
             - 2 [cj cos(pk - pl) + ck cos(pl - pj) + cl cos(pj - pk)]
             - cj ck cl }
    """
    cj, ck, cl = cos_k_pi(j), cos_k_pi(k), cos_k_pi(l)
    pj, pk, pl = params.phi_k(j), params.phi_k(k), params.phi_k(l)
    theta = params.theta
    return (
        np.exp(-2j * theta) * (cj + ck + cl)
        + 2.0
        * np.exp(-1j * theta)
        * (math.sin(pj - pk) + math.sin(pk - pl) + math.sin(pl - pj))
        - 2.0
        * (
            cj * math.cos(pk - pl)
            + ck * math.cos(pl - pj)
            + cl * math.cos(pj - pk)
        )
        - cj * ck * cl
    ) / 32.0


def threshold_theta() -> float:
    """Where p(a=b=c) crosses the trilocal bound: arcsin(sqrt(15/28))."""
    return math.asin(math.sqrt(15.0 / 28.0))
