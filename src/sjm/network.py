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

import numpy as np

from .bases import SjmParams, bell_psi_plus, sjm_basis, sjm_basis_sweep

# Largest p(a=b=c) any model with three independent local sources can reach.
# Taken as an external constant (reported alongside the quantum curve), not
# derived here.
TRILOCAL_BOUND = 61.0 / 256.0

# The network state's eight nonzero amplitudes, at (a, b, c) in C order, each
# party's index 2 q1 + q2 over its two incoming qubits: the sources (A2 B1),
# (B2 C1) and (C2 A1) each put one 1 on their pair.  Every amplitude is the
# product of one source amplitude per edge, rounded left to right as np.kron
# rounds it.
NETWORK_TRIPLES = ((0, 2, 3), (0, 3, 1), (1, 0, 3), (1, 1, 1),
                   (2, 2, 2), (2, 3, 0), (3, 0, 2), (3, 1, 0))
_SOURCE_AMPLITUDE = float(bell_psi_plus()[1].real)
NETWORK_WEIGHT = _SOURCE_AMPLITUDE * _SOURCE_AMPLITUDE * _SOURCE_AMPLITUDE

# Where `_amplitudes` puts the three parties' factors: on one shared axis
# (one outcome k k k per basis of a sweep), or on three outer axes (the
# whole (4, 4, 4) table of one basis).
_DIAGONAL = (..., ..., ...)
_OUTER = (np.s_[:, :, None, None], np.s_[:, None, :, None], np.s_[:, None, None, :])


def _amplitudes(basis: np.ndarray, places: tuple) -> np.ndarray:
    """<network|x y z> = sum over NETWORK_TRIPLES of x_a y_b z_c NETWORK_WEIGHT,
    with x, y and z the states of `basis` (amplitude axis last) that `places`
    puts on the three parties: the conjugate of the outcome amplitude
    <x y z|network>, so of the same modulus.  Each term is taken as
    ((x_a y_b) z_c) weight in real arithmetic, and the terms are added in C
    order.  So the real parts are those of the 64-term einsum over the dense
    state (the tests' oracle) bit for bit, and the imaginary parts are its
    own negated: bits that numpy's complex `*` would not keep."""
    # One contiguous copy of the real and imaginary planes, amplitude axis
    # first: every factor below is a view of it.
    re, im = np.ascontiguousarray(
        np.moveaxis(basis.view(float).reshape(*basis.shape, 2), (-1, -2), (0, 1)))
    (rx, ix), (ry, iy), (rz, iz) = ((re[place], im[place]) for place in places)
    total_re = total_im = 0.0
    for a, b, c in NETWORK_TRIPLES:
        ab_re = rx[a] * ry[b] - ix[a] * iy[b]
        ab_im = rx[a] * iy[b] + ix[a] * ry[b]
        total_re = total_re + (ab_re * rz[c] - ab_im * iz[c]) * NETWORK_WEIGHT
        total_im = total_im + (ab_re * iz[c] + ab_im * rz[c]) * NETWORK_WEIGHT
    # Complex again, so `np.abs` rounds the modulus as it does the einsum's
    # (`np.hypot` on the parts does not).
    amps = np.empty(total_re.shape, dtype=complex)
    amps.real, amps.imag = total_re, total_im
    return amps


def joint_distribution(params: SjmParams) -> np.ndarray:
    """Project the network state onto every triple of basis states: the
    (4, 4, 4) array of probabilities p[a, b, c]."""
    return np.abs(_amplitudes(sjm_basis(params), _OUTER)) ** 2


def closed_form_probability(j: int, k: int, l: int, theta: float) -> float:
    """Outcome probability by case: all outcomes equal, all distinct, or
    exactly two equal.  Depends on theta only."""
    s2 = math.sin(theta) ** 2
    if j == k == l:
        return (4.0 + 21.0 * s2) / 256.0
    if j != k and k != l and j != l:
        return (4.0 + s2) / 256.0
    return (4.0 - 3.0 * s2) / 256.0


def nonlocality_scan(thetas, phi: float = math.pi / 4) -> tuple[np.ndarray, np.ndarray]:
    """p(a=b=c) along theta at fixed phi, and where it exceeds the trilocal
    bound: two arrays over the grid, (p_same, p_same > TRILOCAL_BOUND + 1e-12).

    Every basis on the grid comes from one `sjm_basis_sweep` call, and only
    the diagonal amplitudes <k k k|network> are contracted.  The four
    probabilities are added left to right, as einsum("kkk->") sums the
    diagonal, so each value equals that sum of `joint_distribution` at its
    point bit for bit.
    """
    probs = np.abs(_amplitudes(sjm_basis_sweep(thetas, phi), _DIAGONAL)) ** 2
    p_same = ((probs[:, 0] + probs[:, 1]) + probs[:, 2]) + probs[:, 3]
    return p_same, p_same > TRILOCAL_BOUND + 1e-12
