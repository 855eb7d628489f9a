"""Entanglement measures and Bloch-sphere geometry of the basis states.

Everything here works on the reduced single-qubit states: concurrence as
2 |det M| of the amplitude matrix, Bloch vectors of each marginal, and the
pi-rotation symmetry relating the two marginals of every basis state.
`multiqubit.multi_invariant_residuals` gathers these checks into the report
`sjm verify` prints.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bases import (SjmParams, _theta_grid, cos_k_pi, ejm_aligned, ejm_family_state, sjm_basis,
                    sjm_basis_sweep)
from .linalg import PAULIS, ket, num_qubits, partial_trace

TOL_AXIS = 1e-10

# Reduction-vector vertices at theta = pi/2, phi = pi/4: the first-qubit
# marginals (upper) and second-qubit marginals (lower) each form a regular
# tetrahedron of circumradius sqrt(3)/2, mirror images through the xy plane.
ALIGNED_VERTICES_FIRST = 0.5 * np.array(
    [[-1, -1, 1], [-1, 1, -1], [1, 1, 1], [1, -1, -1]], dtype=float
)
ALIGNED_VERTICES_SECOND = ALIGNED_VERTICES_FIRST * np.array([1.0, 1.0, -1.0])


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Pauli expectation values (x, y, z) of a single-qubit density matrix."""
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def reduction_vector(state: np.ndarray, qubit: int) -> np.ndarray:
    """Bloch vector of one marginal of a two-qubit pure state (qubit 0 or 1)."""
    if num_qubits(state) != 2:
        raise ValueError("reduction_vector expects a two-qubit state")
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    return bloch_vector(partial_trace(state, qubit))


def concurrence(state: np.ndarray) -> float | np.ndarray:
    """Concurrence of a two-qubit pure state, or of each state in a stack of
    shape (..., 4) (then an array of shape (...)).

    For a normalized pure state with amplitude matrix M (the state reshaped
    to 2x2) the concurrence sqrt(2 (1 - tr rho^2)) equals 2 |det M|.  The
    determinant form is used because it stays accurate for near-product
    states, where the sqrt of the purity deficit would amplify float noise
    to the 1e-8 scale.  The tests check it against the purity route.
    det M is taken in real arithmetic and its modulus by `np.hypot`, so a
    stack gives each state the bits a single call does.
    """
    v = np.asarray(state)
    if v.ndim == 0 or v.shape[-1] != 4:
        raise ValueError("concurrence expects a two-qubit state")
    re, im = v.real, v.imag

    def product(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        return (re[..., i] * re[..., j] - im[..., i] * im[..., j],
                re[..., i] * im[..., j] + im[..., i] * re[..., j])

    (ad_re, ad_im), (bc_re, bc_im) = product(0, 3), product(1, 2)
    value = 2.0 * np.hypot(ad_re - bc_re, ad_im - bc_im)
    return float(value) if v.ndim == 1 else value


def sjm_concurrence_closed_form(theta: float) -> float:
    """Concurrence shared by all four basis states: |sin theta| / 2."""
    return 0.5 * abs(math.sin(theta))


def multi_reduction_closed_form(k: int, params: SjmParams, n: int, position: int) -> np.ndarray:
    """Closed-form Bloch vector of the reduction at one qubit position
    (0-based) of pair i = position // 2, whose direction index is k:

        (1/sqrt 2) (-cos(k pi) cos(phi_k) +- cos(theta) sin(phi_k),
                    -cos(k pi) sin(phi_k) -+ cos(theta) cos(phi_k),
                    +- 2^{(1-n)/2} cos(k pi) sin(theta))

    with the upper sign on the first qubit of the pair (even position) and
    the lower on the second.
    """
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for n={n}")
    sign = 1.0 if position % 2 == 0 else -1.0
    ck = cos_k_pi(k)
    phik = params.phi_k(k)
    ct, st = math.cos(params.theta), math.sin(params.theta)
    inv_root2 = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            inv_root2 * (-ck * math.cos(phik) + sign * ct * math.sin(phik)),
            inv_root2 * (-ck * math.sin(phik) - sign * ct * math.cos(phik)),
            inv_root2 * sign * 2.0 ** ((1.0 - n) / 2.0) * ck * st,
        ]
    )


def symmetry_axis(k: int, params: SjmParams) -> np.ndarray:
    """Unit vector (cos phi_k, sin phi_k, 0); a pi rotation about it maps the
    first marginal's Bloch vector of state k onto the second's."""
    phik = params.phi_k(k)
    return np.array([math.cos(phik), math.sin(phik), 0.0])


def rotation_about_axis(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a 3-vector about a unit axis (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > TOL_AXIS:
        raise ValueError("rotation axis must be a unit vector")
    v = np.asarray(v, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def reduction_vectors(states: np.ndarray) -> np.ndarray:
    """Bloch vectors of both marginals of each two-qubit state, shape
    (len(states), 2, 3): [state, qubit], by partial trace."""
    return np.array([[reduction_vector(s, qubit) for qubit in (0, 1)] for s in states])


def rotation_symmetry_residual(vectors: np.ndarray, params: SjmParams) -> float:
    """Max deviation of R_pi(axis_k) v_k^(0) from v_k^(1) across a basis at
    `params`, from its `reduction_vectors`."""
    return max(
        float(np.abs(rotation_about_axis(v[0], symmetry_axis(k, params), math.pi) - v[1]).max())
        for k, v in enumerate(vectors)
    )


def zero_sum_residual(vectors: np.ndarray) -> float:
    """Max component of sum_k v_k over both marginals of a basis, from its
    `reduction_vectors` (0 for a valid basis)."""
    return float(np.abs(vectors.sum(axis=0)).max())


def aligned_tetrahedron_residual() -> float:
    """How far the marginals at theta=pi/2, phi=pi/4 sit from the reference
    tetrahedra: worst deviation over vertex positions, circumradii
    (sqrt(3)/2), and pairwise vertex distances (sqrt 2)."""
    # [qubit, state, xyz]
    vertices = reduction_vectors(sjm_basis(ejm_aligned())).transpose(1, 0, 2)
    expected = np.stack([ALIGNED_VERTICES_FIRST, ALIGNED_VERTICES_SECOND])
    a, b = np.triu_indices(4, 1)
    edges = np.linalg.norm(vertices[:, a] - vertices[:, b], axis=2)
    return float(max(np.abs(vertices - expected).max(),
                     np.abs(np.linalg.norm(vertices, axis=2) - math.sqrt(3.0) / 2.0).max(),
                     np.abs(edges - math.sqrt(2.0)).max()))


def concurrence_curve(family: str, thetas: Sequence[float]) -> np.ndarray:
    """Numeric concurrence at each theta of a grid, as one array, for one of
    the two state families.

    family is "sjm" (the basis states, all four share one value) or
    "ejm-family" (the interpolating family).  The tests compare these values
    against the closed forms `sjm_concurrence_closed_form` and
    `ejm_family_concurrence_closed_form` (in `tests/oracles.py`).
    """
    if family == "sjm":
        states = sjm_basis_sweep(thetas, 0.0)[:, 0]
    elif family == "ejm-family":
        states = ejm_family_state(_theta_grid(thetas), (ket("0"), ket("1")))
    else:
        raise ValueError(f"unknown family {family!r}")
    return concurrence(states)
