"""Dense linear algebra on few-qubit pure states.

States are 1-D complex128 ndarrays of length 2**n.  Index bits are
big-endian: qubit 0 is the leftmost ket factor and the most significant
bit, so |01> puts its amplitude at index 0b01 = 1.  Global phase is
physical here (interference across network sources) and is never
normalized away.  All functions are pure.
"""
from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def num_qubits(state: np.ndarray) -> int:
    """Qubit count of a state vector; length must be a power of two."""
    n = len(state).bit_length() - 1
    if n < 1 or len(state) != 2**n:
        raise ValueError(f"state length {len(state)} is not a power of two >= 2")
    return n


def ket(bits: str) -> np.ndarray:
    """Computational basis state from a bit string: ket("01") -> |01>."""
    out = np.zeros(2 ** len(bits), dtype=complex)
    out[int(bits, 2)] = 1.0
    return out


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of states or operators, leftmost factor first."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    return reduce(np.kron, factors)


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, conjugating the left argument."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def norm(state: np.ndarray) -> float:
    return float(np.linalg.norm(state))


def partial_trace(state: np.ndarray, keep: int | Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the kept qubit(s), in the order given.

    `keep` is a single qubit index or a sequence of distinct indices; all
    other qubits are traced out.
    """
    n = num_qubits(state)
    kept = [int(keep)] if isinstance(keep, (int, np.integer)) else [int(q) for q in keep]
    if len(set(kept)) != len(kept):
        raise ValueError(f"duplicate qubit index in keep={kept}")
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"qubit index out of range in keep={kept} for {n} qubits")
    rest = [q for q in range(n) if q not in kept]
    psi = state.reshape([2] * n).transpose(kept + rest).reshape(2 ** len(kept), -1)
    return psi @ psi.conj().T


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


def gram_matrix(states: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of pairwise inner products G[j, k] = <s_j|s_k>."""
    v = np.asarray(states)
    return v.conj() @ v.T


def orthonormality_residual(states: Sequence[np.ndarray]) -> float:
    """Max absolute deviation of the Gram matrix from the identity."""
    g = gram_matrix(states)
    return float(np.abs(g - np.eye(g.shape[0])).max())


def completeness_residual(states: Sequence[np.ndarray]) -> float:
    """Max absolute deviation of sum_k |s_k><s_k| from the identity."""
    v = np.asarray(states)
    proj = v.T @ v.conj()
    return float(np.abs(proj - np.eye(proj.shape[0])).max())


def unitarity_residual(op: np.ndarray) -> float:
    """Max absolute deviation of U^dag U from the identity."""
    return float(np.abs(op.conj().T @ op - np.eye(op.shape[0])).max())
