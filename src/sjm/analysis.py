"""Entanglement measures and Bloch-sphere geometry of the basis states.

Concurrence as 2 |det M| of the amplitude matrix, and the single-qubit
reduction (Bloch) vectors of every basis state, two-qubit or n-qubit, from
the 4x4 pair matrices (F, S) alone: no dense state is traced.  From those
vectors come the closed-form, half-turn, zero-sum and tetrahedron checks.
`multiqubit.multi_invariant_residuals` gathers these checks into the report
`sjm verify` prints.
"""
from __future__ import annotations

import math

import numpy as np

from .bases import SjmParams, _index_array, cos_k_pi, ejm_aligned, pair_matrices
from .linalg import PAULIS

# Reduction-vector vertices at theta = pi/2, phi = pi/4: the first-qubit
# marginals (upper) and second-qubit marginals (lower) each form a regular
# tetrahedron of circumradius sqrt(3)/2, mirror images through the xy plane.
ALIGNED_VERTICES_FIRST = 0.5 * np.array(
    [[-1, -1, 1], [-1, 1, -1], [1, 1, 1], [1, -1, -1]], dtype=float
)
ALIGNED_VERTICES_SECOND = ALIGNED_VERTICES_FIRST * np.array([1.0, 1.0, -1.0])


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


def _reduction_vectors(pairs: int, theta: float, forward: np.ndarray,
                       swapped: np.ndarray) -> np.ndarray:
    """Bloch vectors of every reduction of the basis on `pairs` pairs built
    from the pair matrices (F, S), shape (4**pairs, 2 * pairs, 3): [state,
    position, xyz].  With one pair, the two marginals [k, qubit] of the
    two-qubit basis.

    Tracing out every pair but p leaves on pair p (index k), with
    alpha, beta = (1 +- e^{i theta})/2 and w_xy = prod_{q != p} <y_{k_q}|x_{k_q}>,
    |alpha|^2 w_ff |f_k><f_k| + |beta|^2 w_ss |s_k><s_k| + (alpha conj(beta) w_fs |f_k><s_k|
    + h.c.); a Bloch vector is linear in that operator, so it sums over the terms.
    """
    mix = np.exp(1j * theta)
    alpha, beta = 0.5 * (1.0 + mix), 0.5 * (1.0 - mix)
    ks = _index_array(pairs)

    def term(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """w_xy times the Pauli expectations of |x_k><y_k| on each qubit of pair p."""
        per_pair = np.einsum("ka,ka->k", y.conj(), x)[ks]
        w = np.where(np.eye(pairs, dtype=bool), 1.0, per_pair[:, None, :]).prod(axis=2)
        xm, ym = x.reshape(4, 2, 2), y.conj().reshape(4, 2, 2)
        first = np.einsum("kac,kbc,pba->kp", xm, ym, PAULIS)  # trace out the pair's qubit 1
        second = np.einsum("kac,kad,pdc->kp", xm, ym, PAULIS)  # trace out its qubit 0
        return w[..., None, None] * np.stack([first, second], axis=1)[ks]

    vectors = (abs(alpha) ** 2 * term(forward, forward) + abs(beta) ** 2 * term(swapped, swapped)
               + 2.0 * alpha * beta.conjugate() * term(forward, swapped)).real
    return vectors.reshape(4**pairs, 2 * pairs, 3)


def rotation_symmetry_residual(vectors: np.ndarray, params: SjmParams) -> float:
    """Max deviation of R_pi(a_k) v_k^(0) from v_k^(1) across a basis at
    `params`, from its two-qubit reduction vectors [k, qubit, xyz].

    The half-turn about the unit axis a_k = (cos phi_k, sin phi_k, 0) is
    R_pi(a) v = 2 (a . v) a - v, taken in explicit sums over the four axes at once
    (a . v has no z term, since a_z = 0).
    """
    axes = np.array([[math.cos(phik), math.sin(phik), 0.0]
                     for phik in (params.phi_k(k) for k in range(4))])
    first, second = vectors[:, 0], vectors[:, 1]
    along = axes[:, 0] * first[:, 0] + axes[:, 1] * first[:, 1]
    return float(np.abs(2.0 * along[:, None] * axes - first - second).max())


def zero_sum_residual(vectors: np.ndarray) -> float:
    """Max component of sum_k v_k over both marginals of a basis, from its
    two-qubit reduction vectors (0 for a valid basis)."""
    return float(np.abs(vectors.sum(axis=0)).max())


def aligned_tetrahedron_residual() -> float:
    """How far the marginals at theta=pi/2, phi=pi/4 sit from the reference
    tetrahedra: worst deviation over vertex positions, circumradii
    (sqrt(3)/2), and pairwise vertex distances (sqrt 2)."""
    aligned = ejm_aligned()
    # [qubit, state, xyz]
    vertices = _reduction_vectors(1, aligned.theta, *pair_matrices(aligned)).transpose(1, 0, 2)
    expected = np.stack([ALIGNED_VERTICES_FIRST, ALIGNED_VERTICES_SECOND])
    a, b = np.triu_indices(4, 1)
    edges = np.linalg.norm(vertices[:, a] - vertices[:, b], axis=2)
    return float(max(np.abs(vertices - expected).max(),
                     np.abs(np.linalg.norm(vertices, axis=2) - math.sqrt(3.0) / 2.0).max(),
                     np.abs(edges - math.sqrt(2.0)).max()))

