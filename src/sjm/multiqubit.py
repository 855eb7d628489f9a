"""Even-n generalization of the symmetric joint measurement.

An n-qubit basis (n even) indexed by tuples (k_1, ..., k_{n/2}) base 4,
built by the same two-term symmetrization as the two-qubit case applied
across all pairs at once.  Orthonormality rests on the identity
<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}> = delta_{jk}, made transparent by two
auxiliary orthonormal single-qubit bases.  Each state is a sum of two
product states over the pairs, so the Gram check and the reductions work
from the 4x4 pair matrices alone; only `multi_sjm_basis` is dense (2^n).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import bloch_vector, multi_reduction_closed_form
from .bases import (_COMPONENT_NORM, _EIGHTH_TURN, SjmParams, _pair_matrices_of, component_state,
                    pair_matrices, sjm_basis)  # pair_matrices: re-exported, it lives in bases
from .linalg import PAULIS, inner, partial_trace, tensor

# Dimension 4096 keeps the dense construction interactive; a config
# constant, not an algorithmic limit.
N_CAP = 12


def aux_state(which: int, sign: int, phi: float) -> np.ndarray:
    """One of the auxiliary orthonormal single-qubit pairs.

    which=0 gives |m_0^+-> with |0>/|1> weights (1 + e^{-i pi/4}) and
    +-(1 + e^{i pi/4}); which=1 swaps the two weights.  Both carry the
    azimuthal phases e^{-+ i phi/2} and the shared 1/sqrt(4 + 2 sqrt 2)
    normalization.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    w = _EIGHTH_TURN if which else _EIGHTH_TURN.conjugate()
    half_phase = np.exp(0.5j * phi)
    return _COMPONENT_NORM * np.array(
        [(1.0 + w) / half_phase, sign * (1.0 + w.conjugate()) * half_phase],
        dtype=complex,
    )


def _components(params: SjmParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eight component states as pairs (m_{k,0}, m_{k,1}), k = 0..3: every
    quantity in this module starts from them."""
    return [(component_state(k, 0, params), component_state(k, 1, params)) for k in range(4)]


def _overlap_product(mj: tuple[np.ndarray, ...], mk: tuple[np.ndarray, ...]) -> complex:
    """<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}> of two component pairs."""
    return inner(mj[0], mk[0]) * inner(mj[1], mk[1])


def pairwise_overlap_product(j: int, k: int, params: SjmParams) -> complex:
    """<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}>; equals delta_{jk}, which is what
    makes the n-qubit Gram matrix the identity."""
    components = _components(params)
    return _overlap_product(components[j], components[k])


def _pairs(n: int) -> int:
    """Pair count n // 2 of a valid qubit count (n even, 2 <= n <= N_CAP)."""
    if n % 2 != 0 or not 2 <= n <= N_CAP:
        raise ValueError(f"n must be even with 2 <= n <= {N_CAP}, got {n}")
    return n // 2


def _index_array(pair_count: int) -> np.ndarray:
    """Every index tuple in lexicographic (state) order, shape (4**pair_count, pair_count)."""
    return np.indices((4,) * pair_count).reshape(pair_count, -1).T


@dataclass(frozen=True, eq=False)
class MultiSjmBasis:
    """The 4^{n/2} basis states, ordered lexicographically by index tuple, as
    one read-only complex128 array of shape (4**(n//2), 2**n), a state per row.
    Equality and hashing are by identity."""

    n: int
    params: SjmParams
    states: np.ndarray

    def __post_init__(self) -> None:
        self.states.flags.writeable = False

    def index_tuples(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(4), repeat=self.n // 2))

    def state_for(self, ks: tuple[int, ...]) -> np.ndarray:
        if len(ks) != self.n // 2 or any(k not in (0, 1, 2, 3) for k in ks):
            raise ValueError(f"bad index tuple {ks} for n={self.n}")
        return self.states[np.ravel_multi_index(ks, (4,) * len(ks))]


def multi_sjm_basis(n: int, params: SjmParams) -> MultiSjmBasis:
    """Build the dense n-qubit basis (n even, 2 <= n <= 12)."""
    pairs = _pairs(n)
    forward, swapped = _pair_matrices_of(_components(params))
    mix = np.exp(1j * params.theta)
    # Rows are written in place: at n = 12 the array alone is 268 MB.
    states = np.empty((4**pairs, 2**n), dtype=complex)
    for row, ks in enumerate(itertools.product(range(4), repeat=pairs)):
        first = tensor(*(forward[k] for k in ks))
        second = tensor(*(swapped[k] for k in ks))
        states[row] = 0.5 * ((1.0 + mix) * first + (1.0 - mix) * second)
    return MultiSjmBasis(n=n, params=params, states=states)


def multi_gram_bound(n: int, params: SjmParams) -> float:
    """Bound on max |G - I| over every entry of the n-qubit Gram matrix G:
    with a, b = |1 +- e^{i theta}|^2, P = n/2 pairs, A = conj(F) F^T,
    B = conj(S) S^T and C = conj(F) S^T,
        4(G - I) = a (A^{(x)P} - I) + b (B^{(x)P} - I) + (a + b - 4) I
                   - 2i sin(theta) (C^{(x)P} - (C^H)^{(x)P}),
    and |X^{(x)P} - Y^{(x)P}| <= P |X - Y| max(|X|, |Y|)^{P-1} in the max-entry
    norm (telescoping; the norm is multiplicative over Kronecker products)."""
    return _gram_bound(_pairs(n), params.theta, *_pair_matrices_of(_components(params)))


def _gram_bound(pairs: int, theta: float, forward: np.ndarray, swapped: np.ndarray) -> float:
    mix = np.exp(1j * theta)
    a, b = abs(1.0 + mix) ** 2, abs(1.0 - mix) ** 2
    cross = forward.conj() @ swapped.T

    def power_gap(x: np.ndarray, y: np.ndarray) -> float:
        return pairs * np.abs(x - y).max() * max(np.abs(x).max(), np.abs(y).max()) ** (pairs - 1)

    return float(0.25 * (a * power_gap(forward.conj() @ forward.T, np.eye(4))
                         + b * power_gap(swapped.conj() @ swapped.T, np.eye(4)) + abs(a + b - 4.0)
                         + 2.0 * abs(math.sin(theta)) * power_gap(cross, cross.conj().T)))


def multi_reduction_vectors(n: int, params: SjmParams) -> np.ndarray:
    """Bloch vectors of every reduction, shape (4**(n//2), n, 3): [state, position].

    Tracing out every pair but p leaves on pair p (index k), with
    alpha, beta = (1 +- e^{i theta})/2 and w_xy = prod_{q != p} <y_{k_q}|x_{k_q}>,
    |alpha|^2 w_ff |f_k><f_k| + |beta|^2 w_ss |s_k><s_k| + (alpha conj(beta) w_fs |f_k><s_k|
    + h.c.); a Bloch vector is linear in that operator, so it sums over the terms.
    """
    return _reduction_vectors(_pairs(n), params.theta, *_pair_matrices_of(_components(params)))


def _reduction_vectors(pairs: int, theta: float, forward: np.ndarray,
                       swapped: np.ndarray) -> np.ndarray:
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


def multi_reduction_vector(basis: MultiSjmBasis, ks: tuple[int, ...], position: int) -> np.ndarray:
    """Bloch vector of one reduction of the dense state (qubit position 0-based),
    by partial trace: the independent oracle of `multi_reduction_vectors`."""
    if not 0 <= position < basis.n:
        raise ValueError(f"position {position} out of range for n={basis.n}")
    return bloch_vector(partial_trace(basis.state_for(ks), position))


def multi_invariant_residuals(n: int, params: SjmParams) -> list[tuple[str, float, float]]:
    """Every multiqubit invariant at `params` as (name, residual, tolerance),
    certifying the n-qubit basis from its pair matrices, built once."""
    pairs = _pairs(n)
    components = _components(params)
    forward, swapped = _pair_matrices_of(components)
    mix = np.exp(1j * params.theta)
    two_from_pairs = 0.5 * ((1.0 + mix) * forward + (1.0 - mix) * swapped)
    match = float(np.abs(sjm_basis(params).states - two_from_pairs).max())
    aux_orth = max(
        abs(inner(aux_state(which, +1, params.phi), aux_state(which, -1, params.phi)))
        for which in (0, 1)
    )
    overlap_product = max(
        abs(_overlap_product(components[j], components[k]) - (1.0 if j == k else 0.0))
        for j in range(4) for k in range(4)
    )
    # The closed form depends on (k, position) only: evaluate each once.
    closed = np.array(
        [[multi_reduction_closed_form(k, params, n, q) for q in range(n)] for k in range(4)]
    )
    positions = np.arange(n)
    expected = closed[_index_array(pairs)[:, positions // 2], positions]
    vectors = _reduction_vectors(pairs, params.theta, forward, swapped)
    reduction = float(np.abs(vectors - expected).max())
    return [
        ("multi_two_qubit_match_residual", match, 1e-12),
        ("aux_orthogonality_residual", float(aux_orth), 1e-12),
        ("overlap_product_residual", float(overlap_product), 1e-12),
        ("multi_gram_residual", _gram_bound(pairs, params.theta, forward, swapped), 1e-10),
        ("multi_reduction_residual", reduction, 1e-10),
    ]
