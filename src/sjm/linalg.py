"""Dense linear algebra on few-qubit pure states: kets, Kronecker
products, inner products and the Gram and completeness residuals.

States are 1-D complex128 ndarrays of length 2**n.  Index bits are
big-endian: qubit 0 is the leftmost ket factor and the most significant
bit, so |01> puts its amplitude at index 0b01 = 1.  Global phase is
physical here (interference across network sources) and is never
normalized away.  All functions are pure.  `inner` is an elementwise sum,
not a BLAS dot, so its bits do not depend on the CPU's BLAS kernel; the
matrix products of `gram_matrix` and `completeness_residual` still go
through BLAS.
"""
from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


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
    """<a|b>, conjugating the left argument: an elementwise product and a sum,
    so its bits do not depend on the BLAS kernel."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex((a.conj() * b).sum())


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
