"""Triangle-network statistics under the symmetric joint measurement.

Three parties sit on a triangle; each edge carries an independent source
emitting (|01> + |10>)/sqrt(2), and each party measures its two incoming
qubits in the parameterized basis.  The resulting 64-outcome distribution
is permutation invariant, and the probability that all three parties
agree exceeds every trilocal model's reach once theta passes
arcsin(sqrt(15/28)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import SjmParams, bell_psi_plus, sjm_basis, sjm_basis_sweep
from .linalg import permute_qubits, tensor

# Largest p(a=b=c) any model with three independent local sources can reach.
# Taken as an external constant (reported alongside the quantum curve), not
# derived here.
TRILOCAL_BOUND = 61.0 / 256.0

# Sources emit pairs in the order (A2 B1)(B2 C1)(C2 A1); this permutation
# rearranges those six qubits into party order (A1 A2 B1 B2 C1 C2).
SOURCE_PERMUTATION = (1, 2, 3, 4, 5, 0)


def triangle_state() -> np.ndarray:
    """The six-qubit network state, qubits ordered (A1 A2 B1 B2 C1 C2)."""
    pair = bell_psi_plus()
    return permute_qubits(tensor(pair, pair, pair), SOURCE_PERMUTATION)


# The network state depends on no parameter: built once, read-only.
TRIANGLE_STATE = triangle_state()
TRIANGLE_STATE.flags.writeable = False


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint outcome probabilities p[a, b, c] for the three parties."""

    params: SjmParams
    probs: np.ndarray  # shape (4, 4, 4)

    def __post_init__(self) -> None:
        if self.probs.shape != (4, 4, 4):
            raise ValueError(f"expected shape (4, 4, 4), got {self.probs.shape}")
        if float(self.probs.min()) < -1e-12:
            raise ValueError("negative probability beyond tolerance")

    def prob(self, a: int, b: int, c: int) -> float:
        return float(self.probs[a, b, c])

    def total(self) -> float:
        return float(self.probs.sum())

    def p_same(self) -> float:
        """Probability that all three outcomes coincide."""
        return float(np.einsum("kkk->", self.probs))


def joint_distribution(params: SjmParams) -> OutcomeDistribution:
    """Brute-force distribution: project the network state onto every
    triple of basis states."""
    m = sjm_basis(params).states  # (4, 4): state index x amplitudes
    psi = TRIANGLE_STATE.reshape(4, 4, 4)  # party pairs (A1A2), (B1B2), (C1C2)
    amps = np.einsum("ja,kb,lc,abc->jkl", m.conj(), m.conj(), m.conj(), psi)
    return OutcomeDistribution(params=params, probs=np.abs(amps) ** 2)


def closed_form_probability(j: int, k: int, l: int, theta: float) -> float:
    """Outcome probability by case: all outcomes equal, all distinct, or
    exactly two equal.  Depends on theta only."""
    s2 = math.sin(theta) ** 2
    if j == k == l:
        return (4.0 + 21.0 * s2) / 256.0
    if j != k and k != l and j != l:
        return (4.0 + s2) / 256.0
    return (4.0 - 3.0 * s2) / 256.0


def _diagonal_amplitudes(m: np.ndarray) -> np.ndarray:
    """sum_abc m[t,k,a] m[t,k,b] m[t,k,c] psi[a,b,c] over the eight nonzero
    entries of the network state psi, in C order, each term taken as
    ((m_a m_b) m_c) psi_abc in real arithmetic: the bits of the 64-term
    einsum (the tests' oracle), which numpy's complex `*` would not keep."""
    psi = TRIANGLE_STATE.reshape(4, 4, 4)
    re, im = (np.ascontiguousarray(np.moveaxis(part, 2, 0)) for part in (m.real, m.imag))
    total_re = total_im = 0.0
    for a, b, c in zip(*np.nonzero(psi)):
        weight = psi[a, b, c].real
        ab_re = re[a] * re[b] - im[a] * im[b]
        ab_im = re[a] * im[b] + im[a] * re[b]
        total_re = total_re + (ab_re * re[c] - ab_im * im[c]) * weight
        total_im = total_im + (ab_re * im[c] + ab_im * re[c]) * weight
    # Complex again, so `np.abs` rounds the modulus as it does the einsum's
    # (`np.hypot` on the parts does not).
    amps = np.empty(m.shape[:2], dtype=complex)
    amps.real, amps.imag = total_re, total_im
    return amps


def nonlocality_scan(thetas, phi: float = math.pi / 4) -> tuple[np.ndarray, np.ndarray]:
    """p(a=b=c) along theta at fixed phi, and where it exceeds the trilocal
    bound: two arrays over the grid, (p_same, p_same > TRILOCAL_BOUND + 1e-12).

    Every basis on the grid comes from one `sjm_basis_sweep` call, and only
    the diagonal amplitudes <k k k|network> are contracted.  The four
    probabilities are added left to right, as `OutcomeDistribution.p_same`
    sums them, so each value equals `joint_distribution(...).p_same()` at its
    point bit for bit.
    """
    probs = np.abs(_diagonal_amplitudes(sjm_basis_sweep(thetas, phi).conj())) ** 2
    p_same = ((probs[:, 0] + probs[:, 1]) + probs[:, 2]) + probs[:, 3]
    return p_same, p_same > TRILOCAL_BOUND + 1e-12
