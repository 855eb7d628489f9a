"""Independent references the tests hold the library to.

Nothing in `sjm` calls these: each restates a quantity the package computes
another way (a closed form, a partial trace, a dense unitary), so a test can
compare the two.
"""
import math

import numpy as np

from sjm.analysis import bloch_vector
from sjm.bases import SjmParams, cos_k_pi, sjm_basis
from sjm.circuit import GateCircuit
from sjm.linalg import partial_trace, tensor
from sjm.network import TRIANGLE_STATE


def ejm_family_concurrence_closed_form(theta: float) -> float:
    """Concurrence of the interpolating family: (1/2) sqrt(1 + 3 sin^2 theta)."""
    return 0.5 * math.sqrt(1.0 + 3.0 * math.sin(theta) ** 2)


def unitarity_residual(op: np.ndarray) -> float:
    """Max absolute deviation of U^dag U from the identity."""
    return float(np.abs(op.conj().T @ op - np.eye(op.shape[0])).max())


def unitary(circuit: GateCircuit) -> np.ndarray:
    """The circuit's matrix, column j the circuit applied to basis ket j."""
    dim = 2**circuit.num_qubits
    cols = [circuit.apply(np.eye(dim, dtype=complex)[:, j]) for j in range(dim)]
    return np.column_stack(cols)


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


def outcome_amplitude(j: int, k: int, l: int, params: SjmParams) -> complex:
    """<state_j state_k state_l | network state>, computed numerically."""
    states = sjm_basis(params)
    return complex(
        np.vdot(tensor(states[j], states[k], states[l]), TRIANGLE_STATE)
    )


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
