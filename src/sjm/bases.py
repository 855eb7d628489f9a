"""Construction of the parameterized symmetric joint-measurement basis.

The two-qubit basis is a four-outcome entangled measurement controlled by
two angles: theta in [0, pi/2] tunes how entangled the basis states are
(from product states at 0 to concurrence 1/2 at pi/2), phi in [-pi, pi]
rotates the single-qubit directions about z.  Each basis state k carries
its own azimuth phi_k = phi + k*pi/2 (offsets 0, pi/2, pi, -pi/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import ket, tensor

PHI_OFFSETS = (0.0, math.pi / 2, math.pi, -math.pi / 2)

# Normalization shared by the component pair, 1/sqrt(4 + 2*sqrt(2)).
_COMPONENT_NORM = 1.0 / math.sqrt(4.0 + 2.0 * math.sqrt(2.0))
_EIGHTH_TURN = np.exp(0.25j * math.pi)  # e^{i pi/4}
_COS_K_PI = np.array([1.0, -1.0, 1.0, -1.0])  # cos(k pi), k = 0..3
# The slot weights w_0 = e^{-i pi/4} and w_1 = e^{i pi/4}, as a [slot, 1] column.
_SLOT_TURNS = np.array([[_EIGHTH_TURN.conjugate()], [_EIGHTH_TURN]])


def cos_k_pi(k: int) -> float:
    """cos(k*pi) for integer k, exactly +-1.0 (no float-pi rounding)."""
    return -1.0 if k % 2 else 1.0


def _state_index(k: int) -> int:
    """k, checked to name one of the four basis states."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"state index must be 0, 1, 2 or 3, got {k}")
    return k


def _checked_angle(value: float, low: float, high: float, message: str) -> float:
    """Range-check an angle, snapping values a rounding error past an endpoint
    back onto it (15-significant-digit emission can round pi/2 slightly up)."""
    if low <= value <= high:
        return value
    if abs(value - low) <= 1e-12:
        return low
    if abs(value - high) <= 1e-12:
        return high
    raise ValueError(f"{message}: {value}")


def _checked_theta(theta: float) -> float:
    """theta, range-checked and snapped onto [0, pi/2]."""
    return _checked_angle(theta, 0.0, math.pi / 2, "theta out of range [0, pi/2]")


@dataclass(frozen=True)
class SjmParams:
    """Angles (radians) selecting one symmetric joint measurement."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _checked_theta(self.theta))
        object.__setattr__(
            self,
            "phi",
            _checked_angle(self.phi, -math.pi, math.pi, "phi out of range [-pi, pi]"),
        )

    def phi_k(self, k: int) -> float:
        """Azimuth of basis state k; every parameterized state index passes here."""
        return self.phi + PHI_OFFSETS[_state_index(k)]


def ejm_aligned() -> SjmParams:
    """The parameter point (pi/2, pi/4) where the basis matches the
    original elegant joint measurement up to a cyclic relabeling."""
    return SjmParams(theta=math.pi / 2, phi=math.pi / 4)


def _read_only(states: np.ndarray) -> np.ndarray:
    """`states`, made read-only in place: a basis is this array, a state per row."""
    states.flags.writeable = False
    return states


def _index_array(pairs: int) -> np.ndarray:
    """Every index tuple in lexicographic (state) order, shape (4**pairs, pairs)."""
    return np.indices((4,) * pairs).reshape(pairs, -1).T


def component_states(params: SjmParams) -> np.ndarray:
    """The eight non-orthogonal component states as a new complex (4, 2, 2)
    array indexed [k, slot, amplitude]: every basis and every certificate
    starts from them.

    Along direction k, with h_k = e^{i phi_k/2} and c_k = cos(k pi), the
    orthonormal pair d^+-_k = (sqrt(1 +- c_k)/h_k, +-sqrt(1 -+ c_k) h_k)/sqrt 2
    gives m_{k,s} = ((1 + w_s) d^+_k + (1 + conj w_s) d^-_k)/sqrt(4 + 2 sqrt 2),
    with w_0 = e^{-i pi/4} and w_1 = e^{i pi/4}: the two slots overlap by
    exactly 1/sqrt(2).
    """
    half_phase = np.exp(0.5j * (params.phi + np.array(PHI_OFFSETS)))  # h_k
    sign = np.array([[1.0], [-1.0]])  # d^+ then d^-, broadcast over k
    directions = np.stack([np.sqrt(1.0 + sign * _COS_K_PI) / half_phase,
                           sign * np.sqrt(1.0 - sign * _COS_K_PI) * half_phase],
                          axis=-1) / math.sqrt(2.0)  # [sign, k, amplitude]
    plus, minus = directions[:, :, None]  # each [k, 1, amplitude]: broadcasts over slots
    return _COMPONENT_NORM * ((1.0 + _SLOT_TURNS) * plus + (1.0 + _SLOT_TURNS.conj()) * minus)


def sjm_state(k: int, params: SjmParams) -> np.ndarray:
    """Basis state k as the symmetrized product of its component pair, built
    on its own: the oracle `verify` and the tests hold the pair-matrix bases to."""
    mix = np.exp(1j * params.theta)
    m0, m1 = component_states(params)[_state_index(k)]
    return 0.5 * ((1.0 + mix) * tensor(m0, m1) + (1.0 - mix) * tensor(m1, m0))


def sjm_state_closed_form(k: int, params: SjmParams) -> np.ndarray:
    """Basis state k written directly in the computational basis:

        (1/2) * (e^{-i phi_k},  -r_minus,  -r_plus,  e^{i phi_k})

    with r_pm = (cos(k pi) +- i e^{i theta}) / sqrt(2).  Used as an
    independent check on the constructive path.
    """
    ck = cos_k_pi(k)
    phase = np.exp(1j * params.phi_k(k))
    spin = 1j * np.exp(1j * params.theta)
    r_plus = (ck + spin) / math.sqrt(2.0)
    r_minus = (ck - spin) / math.sqrt(2.0)
    return 0.5 * np.array([1.0 / phase, -r_minus, -r_plus, phase], dtype=complex)


def _symmetrize(theta: float | np.ndarray, forward: np.ndarray,
                swapped: np.ndarray) -> np.ndarray:
    """0.5 * ((1 + e^{i theta}) F + (1 - e^{i theta}) S): the basis states from
    their two product terms; an array of thetas broadcasts against F and S."""
    mix = np.exp(1j * theta)
    return 0.5 * ((1.0 + mix) * forward + (1.0 - mix) * swapped)


def sjm_basis(params: SjmParams) -> np.ndarray:
    """The four-state symmetric joint-measurement basis at the given angles, as
    a read-only complex (4, 4) array indexed [state, amplitude]."""
    return _read_only(_symmetrize(params.theta, *pair_matrices(params)))


def pair_matrices(params: SjmParams) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 pair matrices (F, S): row k of F is m_{k,0} (x) m_{k,1}, row k
    of S is m_{k,1} (x) m_{k,0}.  They depend on phi only, not on theta."""
    return _pair_matrices_of(component_states(params))


def _pair_matrices_of(components: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, S) from the (4, 2, 2) `component_states` array, as broadcast outer
    products: the bits of `tensor` row by row."""
    first, second = components.swapaxes(0, 1)  # each [k, amplitude]
    return ((first[:, :, None] * second[:, None, :]).reshape(4, 4),
            (second[:, :, None] * first[:, None, :]).reshape(4, 4))


def sjm_basis_sweep(thetas: Sequence[float], phi: float) -> np.ndarray:
    """The basis at every theta of a grid at one phi, as one array of shape
    (len(thetas), 4, 4) indexed [theta, state, amplitude], from a single
    `pair_matrices` call.  Each theta is checked and snapped as `SjmParams`
    does, a grid that is not 1-D raises ValueError, and phi is checked once.
    Row t equals sjm_basis(SjmParams(thetas[t], phi)) bit for bit (the
    tests hold it to that).
    """
    column = _checked_thetas(thetas)[:, None, None]  # broadcasts over [state, amplitude]
    return _symmetrize(column, *pair_matrices(SjmParams(0.0, phi)))


def _checked_thetas(thetas: Sequence[float]) -> np.ndarray:
    """A 1-D theta grid as a new float array, each value checked and snapped
    as `_checked_theta` does: values in [0, pi/2] (-0.0 among them) are kept
    as one array, and only the rest go through `_checked_theta`, in order.
    A grid of any other shape raises ValueError."""
    grid = np.array(thetas, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"theta grid must be 1-D, got shape {grid.shape}")
    outside = ~((grid >= 0.0) & (grid <= math.pi / 2))
    grid[outside] = [_checked_theta(theta) for theta in grid[outside].tolist()]
    return grid


def sjm_overlap_closed_form(j: int, k: int, params: SjmParams) -> float:
    """<state_j|state_k> in closed form; real for every parameter choice:

        (1/4) * (1 + 2 cos(phi_k - phi_j) + cos(j pi) cos(k pi))
    """
    return 0.25 * (
        1.0
        + 2.0 * math.cos(params.phi_k(k) - params.phi_k(j))
        + cos_k_pi(j) * cos_k_pi(k)
    )


# Azimuths of the original elegant joint measurement, in state order.
EJM_PHI = (3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4, math.pi / 4)


def original_ejm_state(j: int) -> np.ndarray:
    """State j of the original elegant joint measurement.

    Same shell as the closed form above but with real weights
    r_pm = (cos(j pi) +- 1)/sqrt(2), the |01>/|10> slots exchanged, and a
    -e^{i phi_j} amplitude on |11>.
    """
    phase = np.exp(1j * EJM_PHI[_state_index(j)])
    cj = cos_k_pi(j)
    r_plus = (cj + 1.0) / math.sqrt(2.0)
    r_minus = (cj - 1.0) / math.sqrt(2.0)
    return 0.5 * np.array([1.0 / phase, -r_plus, -r_minus, -phase], dtype=complex)


def original_ejm_basis() -> np.ndarray:
    """The original elegant joint measurement (iso-entangled, concurrence 1/2),
    as a read-only complex (4, 4) array indexed [state, amplitude]."""
    return _read_only(np.array([original_ejm_state(j) for j in range(4)]))


def ejm_family_state(theta: float | np.ndarray) -> np.ndarray:
    """Representative state of the one-parameter family interpolating toward
    maximal entanglement (concurrence 1/2 at theta = 0, 1 at pi/2):

        (1/(2 sqrt 2)) * ((sqrt 3 + e^{i theta}) |01> +
                          (sqrt 3 - e^{i theta}) |10>)

    A 1-D array of thetas gives the states as rows of one array, shape
    (len(theta), 4).
    """
    # A 1-D theta gives one state per row: mix broadcasts over the amplitudes.
    mix = np.exp(1j * np.asarray(theta, dtype=float))[..., None]
    root3 = math.sqrt(3.0)
    return ((root3 + mix) * ket("01") + (root3 - mix) * ket("10")) / (2.0 * math.sqrt(2.0))


def bell_psi_plus() -> np.ndarray:
    """(|01> + |10>)/sqrt(2), the two-qubit state each network source emits."""
    return (ket("01") + ket("10")) / math.sqrt(2.0)
