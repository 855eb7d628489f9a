"""Even-n generalization of the symmetric joint measurement.

An n-qubit basis (n even) indexed by tuples (k_1, ..., k_{n/2}) base 4,
built by the same two-term symmetrization as the two-qubit case applied
across all pairs at once.  Orthonormality rests on the identity
<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}> = delta_{jk}, made transparent by two
auxiliary orthonormal single-qubit bases.  Each state is a sum of two
product states over the pairs, so the Gram matrix is A^{(x)(n/2)} for the 4x4
matrix A of those overlaps, and the Gram check and the reductions
(`analysis._reduction_vectors`) work from the 4x4 pair matrices alone; only
`_basis_rows` makes dense (2^n) states.  `multi_invariant_residuals` is the
list of invariants `sjm verify` prints, each computed one way.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .analysis import (_reduction_vectors, aligned_tetrahedron_residual, concurrence,
                       multi_reduction_closed_form, rotation_symmetry_residual,
                       sjm_concurrence_closed_form, zero_sum_residual)
from .bases import (_COMPONENT_NORM, _EIGHTH_TURN, SjmParams, _index_array, _pair_matrices_of,
                    _read_only, _symmetrize, component_states, ejm_aligned, original_ejm_basis,
                    pair_matrices, sjm_basis, sjm_overlap_closed_form, sjm_state,
                    sjm_state_closed_form)
from .linalg import completeness_residual, gram_matrix, inner, tensor

# Dimension 4096 keeps the dense construction interactive; a config
# constant, not an algorithmic limit.
N_CAP = 12
_BLOCK_HEADS = 16  # index prefixes per block of dense states: 64 states, 4 MB at n = 12
# Largest accepted n-qubit Gram bound, in `multiqubit` and `verify` (multi_gram_residual).
TOL_GRAM = 1e-10


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


def _pairs(n: int) -> int:
    """Pair count n // 2 of a valid qubit count (n even, 2 <= n <= N_CAP)."""
    if n % 2 != 0 or not 2 <= n <= N_CAP:
        raise ValueError(f"n must be even with 2 <= n <= {N_CAP}, got {n}")
    return n // 2


def _basis_rows(n: int, params: SjmParams) -> Iterator[np.ndarray]:
    """The dense n-qubit states in index order, a block at a time (n is checked
    at the call).  Prefixes a..b-1 give the rows of kron(F^{(x)(P-1)}[a:b], F),
    and likewise for S: the products of `tensor`'s left fold, bit for bit.  Each
    head starts from the 1x1 matrix [1], which is F^{(x)0} when P = 1."""
    pairs = _pairs(n)
    forward, swapped = pair_matrices(params)
    heads = (tensor(np.ones((1, 1)), *[forward] * (pairs - 1)),
             tensor(np.ones((1, 1)), *[swapped] * (pairs - 1)))
    return (state for a in range(0, 4**(pairs - 1), _BLOCK_HEADS)
            for state in _symmetrize(params.theta, np.kron(heads[0][a:a + _BLOCK_HEADS], forward),
                                     np.kron(heads[1][a:a + _BLOCK_HEADS], swapped)))


def multi_sjm_basis(n: int, params: SjmParams) -> np.ndarray:
    """The dense n-qubit basis (n even, 2 <= n <= 12): a read-only (4**(n//2), 2**n)
    array whose row np.ravel_multi_index(ks, (4,) * len(ks)) is state ks."""
    return _read_only(np.fromiter(_basis_rows(n, params), np.dtype((complex, 2**n)), 4**(n // 2)))


def multi_gram_bound(n: int, params: SjmParams) -> float:
    """Bound on max |G - I| over every entry of the n-qubit Gram matrix G.

    G = A^{(x)P} exactly, for P = n/2 pairs and A = conj(F) F^T: of G's
    mixed-product terms, B = conj(S) S^T equals A, and C = conj(F) S^T is
    Hermitian with weight 2 Re(conj(alpha) beta) = 0, alpha, beta = (1 +-
    e^{i theta})/2 (tests/test_symbolic.py proves these, and A = I).  The
    bound is the telescoped power gap P |A - I| max(|A|, 1)^{P-1} in the
    max-entry norm, which is multiplicative over Kronecker products, taken in
    exact arithmetic from the computed F.  It leaves out the rounding of A's
    products, of e^{i theta} and of the dense rows, so the float residual of
    `multi_sjm_basis` can exceed it (ROADMAP.md, item 8)."""
    return _gram_bound(_pairs(n), _pair_overlaps(pair_matrices(params)[0]))


def _pair_overlaps(forward: np.ndarray) -> np.ndarray:
    """A = conj(F) F^T, whose entry [j, k] is <m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}>:
    delta_{jk}, which is what makes the n-qubit Gram matrix the identity."""
    return forward.conj() @ forward.T


def _gram_bound(pairs: int, overlaps: np.ndarray) -> float:
    return float(pairs * np.abs(overlaps - np.eye(4)).max()
                 * max(np.abs(overlaps).max(), 1.0) ** (pairs - 1))


def multi_reduction_vectors(n: int, params: SjmParams) -> np.ndarray:
    """Bloch vectors of every reduction, shape (4**(n//2), n, 3): [state, position],
    from the pair matrices (see `analysis._reduction_vectors`)."""
    return _reduction_vectors(_pairs(n), params.theta, *pair_matrices(params))


def _aligned_rows() -> tuple[tuple[str, float, float], ...]:
    """The `verify` rows at the aligned point (pi/2, pi/4), which do not
    depend on the point verified."""
    ejm, aligned = original_ejm_basis(), sjm_basis(ejm_aligned())
    return (
        ("aligned_ejm_orthogonality_residual",
         max(abs(inner(ejm[j], aligned[(j + 1) % 4])) for j in range(4)), 1e-10),
        ("aligned_tetrahedron_residual", aligned_tetrahedron_residual(), 1e-10),
    )


# Computed once, at import: no later patch of the library can change them.
_ALIGNED_ROWS = _aligned_rows()


def multi_invariant_residuals(n: int, params: SjmParams) -> list[tuple[str, float, float]]:
    """Every invariant at `params` as (name, residual, tolerance), in the order
    `sjm verify` reports them: the two-qubit basis, the aligned point, then the
    n-qubit basis, certified from its pair matrices.  The components, (F, S),
    the basis, the pair overlaps A and the reduction vectors of each pair
    count are built once (at n = 2 one set serves both), and the aligned rows
    at import; `sjm_state` stays the independent oracle."""
    pairs = _pairs(n)
    components = component_states(params)
    forward, swapped = _pair_matrices_of(components)
    basis = _symmetrize(params.theta, forward, swapped)
    gram = gram_matrix(basis)
    overlaps = _pair_overlaps(forward)
    vectors = _reduction_vectors(1, params.theta, forward, swapped)  # [k, qubit, xyz]
    multi = vectors if pairs == 1 else _reduction_vectors(pairs, params.theta, forward, swapped)
    ks, phi = range(4), params.phi

    def worst(values: np.ndarray, reference: np.ndarray | float) -> float:
        return float(np.abs(values - reference).max())

    def closed(m: int) -> np.ndarray:
        """The closed-form reductions on m qubits, [k, position]: each (k, position) once."""
        return np.array([[multi_reduction_closed_form(k, params, m, q) for q in range(m)]
                         for k in ks])

    positions = np.arange(n)
    return [
        ("orthonormality_residual", worst(gram, np.eye(4)), 1e-10),
        ("completeness_residual", completeness_residual(basis), 1e-10),
        ("construction_closed_form_residual",
         worst(basis, np.array([sjm_state_closed_form(k, params) for k in ks])), 1e-12),
        # Scalar `abs` of a complex is hypot; np.abs of a complex array can
        # differ from it in the last bit, so these rows keep the scalar form.
        ("overlap_closed_form_residual", float(max(
            abs(gram[j, k] - sjm_overlap_closed_form(j, k, params)) for j in ks for k in ks)),
         1e-12),
        ("component_overlap_residual",
         max(abs(inner(m0, m1) - 1.0 / math.sqrt(2.0)) for m0, m1 in components), 1e-12),
        ("concurrence_residual",
         worst(concurrence(basis), sjm_concurrence_closed_form(params.theta)), 1e-10),
        ("reduction_closed_form_residual", worst(vectors, closed(2)), 1e-10),
        ("rotational_symmetry_residual", rotation_symmetry_residual(vectors, params), 1e-10),
        ("zero_sum_residual", zero_sum_residual(vectors), 1e-10),
        *_ALIGNED_ROWS,
        # sjm_state rebuilds each state from the same components: this row
        # catches a symmetrizer bug, never a component error.
        ("multi_two_qubit_match_residual",
         worst(basis, np.array([sjm_state(k, params) for k in ks])), 1e-12),
        ("aux_orthogonality_residual",
         max(abs(inner(aux_state(w, +1, phi), aux_state(w, -1, phi))) for w in (0, 1)), 1e-12),
        ("overlap_product_residual",
         float(max(abs(overlaps[j, k] - float(j == k)) for j in ks for k in ks)), 1e-12),
        ("multi_gram_residual", _gram_bound(pairs, overlaps), TOL_GRAM),
        ("multi_reduction_residual",
         worst(multi, closed(n)[_index_array(pairs)[:, positions // 2], positions]), 1e-10),
    ]
