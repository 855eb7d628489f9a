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

from .linalg import inner, ket, tensor

PHI_OFFSETS = (0.0, math.pi / 2, math.pi, -math.pi / 2)

# Normalization shared by the component pair, 1/sqrt(4 + 2*sqrt(2)).
_COMPONENT_NORM = 1.0 / math.sqrt(4.0 + 2.0 * math.sqrt(2.0))
_EIGHTH_TURN = np.exp(0.25j * math.pi)  # e^{i pi/4}


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


def _fmt(x: float) -> float:
    """Round a float to 15 significant digits for emission."""
    return float(f"{x:.15g}")


@dataclass(frozen=True)
class SjmParams:
    """Angles (radians) selecting one symmetric joint measurement."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "theta",
            _checked_angle(self.theta, 0.0, math.pi / 2, "theta out of range [0, pi/2]"),
        )
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


@dataclass(frozen=True, eq=False)
class JointBasis:
    """The basis states on n qubits (n even), ordered lexicographically by
    index tuple (k_1, ..., k_{n/2}), as one read-only complex128 array of
    shape (4**(n//2), 2**n), a state per row.  `params` is None for the
    original elegant joint measurement.  Equality and hashing are by identity."""

    states: np.ndarray
    params: SjmParams | None = None

    def __post_init__(self) -> None:
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n(self) -> int:
        return self.states.shape[1].bit_length() - 1

    def index_tuples(self) -> list[tuple[int, ...]]:
        return list(map(tuple, _index_array(self.n // 2).tolist()))

    def state_for(self, ks: tuple[int, ...]) -> np.ndarray:
        if len(ks) != self.n // 2 or any(k not in (0, 1, 2, 3) for k in ks):
            raise ValueError(f"bad index tuple {ks} for n={self.n}")
        return self.states[np.ravel_multi_index(ks, (4,) * len(ks))]


def _index_array(pairs: int) -> np.ndarray:
    """Every index tuple in lexicographic (state) order, shape (4**pairs, pairs)."""
    return np.indices((4,) * pairs).reshape(pairs, -1).T


def direction_state(k: int, sign: int, params: SjmParams) -> np.ndarray:
    """One of the orthonormal single-qubit pair along measurement direction k.

    sign=+1 gives the state aligned with the direction, sign=-1 the
    antipodal one.  For even k these are |0> and -|1> up to the azimuthal
    phase e^{-+ i phi_k / 2}; for odd k the roles of |0> and |1> swap.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ck = cos_k_pi(k)
    half_phase = np.exp(0.5j * params.phi_k(k))
    a = math.sqrt(1.0 + sign * ck) / half_phase
    b = sign * math.sqrt(1.0 - sign * ck) * half_phase
    return np.array([a, b], dtype=complex) / math.sqrt(2.0)


def component_state(k: int, slot: int, params: SjmParams) -> np.ndarray:
    """One of the non-orthogonal pair the basis states are built from.

    The two slots (0 and 1) are superpositions of the direction pair with
    weights 1 + e^{-+ i pi/4}; their mutual overlap is exactly 1/sqrt(2).
    """
    if slot not in (0, 1):
        raise ValueError(f"slot must be 0 or 1, got {slot}")
    plus = direction_state(k, +1, params)
    minus = direction_state(k, -1, params)
    w = _EIGHTH_TURN if slot else _EIGHTH_TURN.conjugate()
    return _COMPONENT_NORM * ((1.0 + w) * plus + (1.0 + w.conjugate()) * minus)


def sjm_state(k: int, params: SjmParams) -> np.ndarray:
    """Basis state k as the symmetrized product of its component pair, built
    on its own: the oracle `verify` and the tests hold the pair-matrix bases to."""
    mix = np.exp(1j * params.theta)
    m0 = component_state(k, 0, params)
    m1 = component_state(k, 1, params)
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


def sjm_basis(params: SjmParams) -> JointBasis:
    """The four-state symmetric joint-measurement basis at the given angles."""
    return JointBasis(_symmetrize(params.theta, *pair_matrices(params)), params)


def _components(params: SjmParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eight component states as pairs (m_{k,0}, m_{k,1}), k = 0..3: every
    basis and every certificate starts from them."""
    return [(component_state(k, 0, params), component_state(k, 1, params)) for k in range(4)]


def pair_matrices(params: SjmParams) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 pair matrices (F, S): row k of F is m_{k,0} (x) m_{k,1}, row k
    of S is m_{k,1} (x) m_{k,0}.  They depend on phi only, not on theta."""
    return _pair_matrices_of(_components(params))


def _pair_matrices_of(
    components: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """(F, S) from the component pairs (m_{k,0}, m_{k,1}), k = 0..3."""
    return (np.array([tensor(m0, m1) for m0, m1 in components]),
            np.array([tensor(m1, m0) for m0, m1 in components]))


def sjm_basis_sweep(thetas: Sequence[float], phi: float) -> np.ndarray:
    """The basis at every theta of a grid at one phi, as one array of shape
    (len(thetas), 4, 4) indexed [theta, state, amplitude], from a single
    `pair_matrices` call.  Each theta is checked and snapped as `SjmParams`
    does, and row t equals sjm_basis(SjmParams(thetas[t], phi)).states bit
    for bit (the tests hold it to that).
    """
    snapped = [SjmParams(float(theta), phi).theta for theta in thetas]
    column = np.array(snapped, dtype=float)[:, None, None]  # broadcasts over [state, amplitude]
    return _symmetrize(column, *pair_matrices(SjmParams(0.0, phi)))


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


def original_ejm_basis() -> JointBasis:
    """The original elegant joint measurement (iso-entangled, concurrence 1/2)."""
    return JointBasis(np.array([original_ejm_state(j) for j in range(4)]))


def ejm_family_state(theta: float | np.ndarray,
                     m_pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Representative state of the one-parameter family interpolating toward
    maximal entanglement:

        (1/(2 sqrt 2)) * ((sqrt 3 + e^{i theta}) |m0 m1> +
                          (sqrt 3 - e^{i theta}) |m1 m0>)

    m_pair must be an orthonormal single-qubit pair.  A 1-D array of thetas
    gives the states as rows of one array, shape (len(theta), 4).
    """
    m0, m1 = m_pair
    if (
        abs(inner(m0, m0) - 1.0) > 1e-10
        or abs(inner(m1, m1) - 1.0) > 1e-10
        or abs(inner(m0, m1)) > 1e-10
    ):
        raise ValueError("m_pair must be an orthonormal single-qubit pair")
    # A 1-D theta gives one state per row: mix broadcasts over the amplitudes.
    mix = np.exp(1j * np.asarray(theta, dtype=float))[..., None]
    root3 = math.sqrt(3.0)
    return ((root3 + mix) * tensor(m0, m1) + (root3 - mix) * tensor(m1, m0)) / (
        2.0 * math.sqrt(2.0)
    )


def bell_psi_plus() -> np.ndarray:
    """(|01> + |10>)/sqrt(2), the two-qubit state each network source emits."""
    return (ket("01") + ket("10")) / math.sqrt(2.0)
