"""Even-n generalization of the symmetric joint measurement.

An n-qubit basis (n even) indexed by tuples (k_1, ..., k_{n/2}) base 4,
built by the same two-term symmetrization as the two-qubit case applied
across all pairs at once.  Orthonormality rests on the identity
<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}> = delta_{jk}, made transparent by two
auxiliary orthonormal single-qubit bases.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import bloch_vector, multi_reduction_closed_form
from .bases import _COMPONENT_NORM, _EIGHTH_TURN, SjmParams, component_state, sjm_basis
from .linalg import inner, orthonormality_residual, partial_trace, tensor

# Dimension 4096 keeps construction and sampling interactive; a config
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


def pairwise_overlap_product(j: int, k: int, params: SjmParams) -> complex:
    """<m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}>; equals delta_{jk}, which is what
    makes the n-qubit Gram matrix the identity."""
    return inner(component_state(j, 0, params), component_state(k, 0, params)) * inner(
        component_state(j, 1, params), component_state(k, 1, params)
    )


@dataclass(frozen=True)
class MultiSjmBasis:
    """The 4^{n/2} basis states, ordered lexicographically by index tuple, as
    one read-only complex128 array of shape (4**(n//2), 2**n), a state per row."""

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
        flat = 0
        for k in ks:
            flat = 4 * flat + k
        return self.states[flat]


def multi_sjm_basis(n: int, params: SjmParams) -> MultiSjmBasis:
    """Build the n-qubit basis (n even, 2 <= n <= 12)."""
    if n % 2 != 0 or not 2 <= n <= N_CAP:
        raise ValueError(f"n must be even with 2 <= n <= {N_CAP}, got {n}")
    pairs = n // 2
    # Per direction index: the component pair in both orders.
    forward = [tensor(component_state(k, 0, params), component_state(k, 1, params)) for k in range(4)]
    swapped = [tensor(component_state(k, 1, params), component_state(k, 0, params)) for k in range(4)]
    mix = np.exp(1j * params.theta)
    # Rows are written in place: at n = 12 the array alone is 268 MB.
    states = np.empty((4**pairs, 2**n), dtype=complex)
    for row, ks in enumerate(itertools.product(range(4), repeat=pairs)):
        first = tensor(*(forward[k] for k in ks))
        second = tensor(*(swapped[k] for k in ks))
        states[row] = 0.5 * ((1.0 + mix) * first + (1.0 - mix) * second)
    return MultiSjmBasis(n=n, params=params, states=states)


@dataclass(frozen=True)
class GramCheck:
    """Result of an orthonormality check, exhaustive or sampled."""

    residual: float
    exhaustive: bool
    pairs_sampled: int


def gram_residual(
    basis: MultiSjmBasis, rng: np.random.Generator | None = None, pairs: int = 200
) -> GramCheck:
    """Max deviation of the Gram matrix from the identity.

    Exhaustive for n <= 6.  For n >= 8 the full matrix grows quartically,
    so all norms are checked and `pairs` off-diagonal entries are sampled;
    the caller must supply a seeded generator so failures reproduce.
    """
    if basis.n <= 6:
        return GramCheck(
            residual=orthonormality_residual(basis.states),
            exhaustive=True,
            pairs_sampled=0,
        )
    if rng is None:
        raise ValueError("n >= 8 uses sampled Gram checking; pass a seeded rng")
    worst = max(abs(inner(s, s) - 1.0) for s in basis.states)
    count = len(basis.states)
    for _ in range(pairs):
        j = int(rng.integers(count))
        k = int(rng.integers(count - 1))
        if k >= j:
            k += 1
        worst = max(worst, abs(inner(basis.states[j], basis.states[k])))
    return GramCheck(residual=float(worst), exhaustive=False, pairs_sampled=pairs)


def multi_reduction_vector(
    basis: MultiSjmBasis, ks: tuple[int, ...], position: int
) -> np.ndarray:
    """Bloch vector of the single-qubit reduction at a qubit position (0-based)."""
    if not 0 <= position < basis.n:
        raise ValueError(f"position {position} out of range for n={basis.n}")
    return bloch_vector(partial_trace(basis.state_for(ks), position))


def multi_invariant_residuals(
    n: int, params: SjmParams, rng: np.random.Generator | None = None
) -> list[tuple[str, float, float]]:
    """Every multiqubit invariant at `params` as (name, residual, tolerance),
    checking the n-qubit basis; `rng` seeds the sampled Gram check (n >= 8)."""
    two = sjm_basis(params)
    multi_two = multi_sjm_basis(2, params)
    match = float(np.abs(two.states - multi_two.states).max())
    aux_orth = max(
        abs(inner(aux_state(which, +1, params.phi), aux_state(which, -1, params.phi)))
        for which in (0, 1)
    )
    overlap_product = max(
        abs(pairwise_overlap_product(j, k, params) - (1.0 if j == k else 0.0))
        for j in range(4)
        for k in range(4)
    )
    basis = multi_sjm_basis(n, params) if n != 2 else multi_two
    check = gram_residual(basis, rng=rng)
    reduction = 0.0
    for ks in basis.index_tuples():
        for position in range(basis.n):
            numeric = multi_reduction_vector(basis, ks, position)
            closed = multi_reduction_closed_form(
                ks[position // 2], params, basis.n, position
            )
            reduction = max(reduction, float(np.abs(numeric - closed).max()))
    return [
        ("multi_two_qubit_match_residual", match, 1e-12),
        ("aux_orthogonality_residual", float(aux_orth), 1e-12),
        ("overlap_product_residual", float(overlap_product), 1e-12),
        ("multi_gram_residual", check.residual, 1e-10),
        ("multi_reduction_residual", reduction, 1e-10),
    ]

