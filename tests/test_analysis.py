import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjm.analysis import (
    ALIGNED_VERTICES_FIRST,
    ALIGNED_VERTICES_SECOND,
    aligned_tetrahedron_residual,
    concurrence,
    multi_reduction_closed_form,
    rotation_symmetry_residual,
    sjm_concurrence_closed_form,
    zero_sum_residual,
)
from sjm.bases import (
    SjmParams,
    bell_psi_plus,
    ejm_aligned,
    ejm_family_state,
    original_ejm_basis,
    sjm_basis,
    sjm_basis_sweep,
)
from sjm.linalg import PAULI_Y, ket, tensor
from sjm.multiqubit import multi_reduction_vectors

from oracles import (bloch_vector, ejm_family_concurrence_closed_form, partial_trace,
                     reduction_vectors, rotation_about_axis, symmetry_axis)

THETAS = st.floats(0.0, math.pi / 2)
PHIS = st.floats(-math.pi, math.pi)
THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
GRID = [(t, p) for t in THETA_GRID for p in PHI_GRID]


def wootters_concurrence(state):
    """Independent oracle: spin-flip concurrence from the density matrix."""
    rho = np.outer(state, state.conj())
    yy = tensor(PAULI_Y, PAULI_Y)
    rho_tilde = yy @ rho.conj() @ yy
    eigs = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def test_bloch_vector_cardinal_states():
    np.testing.assert_allclose(bloch_vector(np.outer(ket("0"), ket("0"))), [0, 0, 1], atol=1e-12)
    plus = (ket("0") + ket("1")) / math.sqrt(2)
    np.testing.assert_allclose(bloch_vector(np.outer(plus, plus.conj())), [1, 0, 0], atol=1e-12)


def test_concurrence_reference_states():
    assert concurrence(bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(ket("01")) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        concurrence(ket("0"))


@pytest.mark.parametrize("theta,phi", GRID)
def test_concurrence_closed_form_on_grid(theta, phi):
    basis = sjm_basis(SjmParams(theta, phi))
    expected = sjm_concurrence_closed_form(theta)
    for state in basis:
        assert abs(concurrence(state) - expected) <= 1e-10


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 0.3), (1.2, -2.0), (math.pi / 2, math.pi / 4)])
def test_concurrence_against_spin_flip_oracle(theta, phi):
    # The eigenvalue-based oracle carries sqrt-of-epsilon noise in its three
    # near-zero branches, so the agreement floor is ~1e-8, not machine epsilon.
    basis = sjm_basis(SjmParams(theta, phi))
    for state in basis:
        assert abs(concurrence(state) - wootters_concurrence(state)) <= 1e-7


def test_concurrence_against_oracle_random_states():
    rng = np.random.default_rng(23)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert abs(concurrence(v) - wootters_concurrence(v)) <= 1e-7


def test_concurrence_endpoints():
    assert sjm_concurrence_closed_form(0.0) == 0.0
    assert sjm_concurrence_closed_form(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    assert ejm_family_concurrence_closed_form(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ejm_family_concurrence_closed_form(math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_ejm_family_concurrence_curve():
    for theta in THETA_GRID:
        state = ejm_family_state(theta)
        assert abs(concurrence(state) - ejm_family_concurrence_closed_form(theta)) <= 1e-10


def test_original_ejm_iso_entangled():
    for state in original_ejm_basis():
        assert concurrence(state) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("theta,phi", GRID)
def test_purity_relation(theta, phi):
    # tr rho^2 = 1 - C^2/2 for any pure two-qubit state.
    state = sjm_basis(SjmParams(theta, phi))[1]
    rho = partial_trace(state, 0)
    purity = np.trace(rho @ rho).real
    c = concurrence(state)
    assert purity == pytest.approx(1.0 - c**2 / 2.0, abs=1e-12)


@pytest.mark.parametrize("theta,phi", GRID)
def test_reduction_vectors_match_closed_form(theta, phi):
    p = SjmParams(theta, phi)
    dense = reduction_vectors(sjm_basis(p))
    for k in range(4):
        for qubit in (0, 1):
            np.testing.assert_allclose(
                dense[k, qubit], multi_reduction_closed_form(k, p, 2, qubit), atol=1e-10)


def test_rotation_about_axis_basics():
    x, y, z = np.eye(3)
    np.testing.assert_allclose(rotation_about_axis(x, z, math.pi / 2), y, atol=1e-12)
    np.testing.assert_allclose(rotation_about_axis(x, z, math.pi), -x, atol=1e-12)
    np.testing.assert_allclose(rotation_about_axis(z, z, 0.73), z, atol=1e-12)


def test_rotation_preserves_length():
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = rng.normal(size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotated = rotation_about_axis(v, axis, rng.uniform(-math.pi, math.pi))
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(v), abs=1e-12)


@pytest.mark.parametrize("theta,phi", GRID)
def test_pi_rotation_swaps_marginals(theta, phi):
    p = SjmParams(theta, phi)
    dense = reduction_vectors(sjm_basis(p))
    assert rotation_symmetry_residual(dense, p) <= 1e-10
    for k, (first, second) in enumerate(dense):
        rotated = rotation_about_axis(first, symmetry_axis(k, p), math.pi)
        np.testing.assert_allclose(rotated, second, atol=1e-10)


def _rodrigues_symmetry_residual(vectors, params):
    """The half-turn residual by the Rodrigues formula, one state at a time."""
    return max(float(np.abs(rotation_about_axis(v[0], symmetry_axis(k, params), math.pi)
                            - v[1]).max()) for k, v in enumerate(vectors))


@settings(max_examples=200, deadline=None)
@given(theta=THETAS, phi=PHIS, noise=st.lists(st.floats(-1e-3, 1e-3), min_size=24, max_size=24))
def test_explicit_half_turn_residual_matches_the_rodrigues_oracle(theta, phi, noise):
    # On the package's reduction vectors, and on vectors moved off the
    # symmetry so the residual is not only rounding.
    p = SjmParams(theta, phi)
    vectors = multi_reduction_vectors(2, p)
    for v in (vectors, vectors + np.reshape(noise, (4, 2, 3))):
        assert abs(rotation_symmetry_residual(v, p) - _rodrigues_symmetry_residual(v, p)) <= 1e-15


@pytest.mark.parametrize("theta,phi", GRID)
def test_zero_sum_on_grid(theta, phi):
    assert zero_sum_residual(reduction_vectors(sjm_basis(SjmParams(theta, phi)))) <= 1e-10


def test_zero_sum_original_ejm():
    assert zero_sum_residual(reduction_vectors(original_ejm_basis())) <= 1e-10


def test_aligned_tetrahedra():
    assert aligned_tetrahedron_residual() <= 1e-10
    first, second = reduction_vectors(sjm_basis(ejm_aligned())).transpose(1, 0, 2)
    np.testing.assert_allclose(first, ALIGNED_VERTICES_FIRST, atol=1e-10)
    np.testing.assert_allclose(second, ALIGNED_VERTICES_SECOND, atol=1e-10)
    for vertices in (first, second):
        np.testing.assert_allclose(
            np.linalg.norm(vertices, axis=1), math.sqrt(3.0) / 2.0, atol=1e-10
        )


def _curves(thetas) -> tuple[np.ndarray, np.ndarray]:
    """The two concurrence columns of `sjm curve` over a grid: the SJM's and
    the EJM family's."""
    return (concurrence(sjm_basis_sweep(thetas, 0.0)[:, 0]),
            concurrence(ejm_family_state(thetas)))


def test_concurrence_curve_families():
    thetas = np.linspace(0.0, math.pi / 2, 9)
    c_sjm, c_ejm = _curves(thetas)
    assert c_sjm.shape == c_ejm.shape == (9,)
    assert c_sjm[0] == pytest.approx(0.0, abs=1e-12)
    assert c_sjm[-1] == pytest.approx(0.5, abs=1e-12)
    assert c_ejm[0] == pytest.approx(0.5, abs=1e-12)
    assert c_ejm[-1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(theta=THETAS, phi=PHIS, k=st.integers(0, 3))
def test_concurrence_determinant_route_matches_purity_route(theta, phi, k):
    # C = 2|det M| against C = sqrt(2 (1 - tr rho^2)), with both marginals
    # sharing one purity, and both equal to sin(theta)/2.
    state = sjm_basis(SjmParams(theta, phi))[k]
    purities = [np.trace(rho @ rho).real for rho in (partial_trace(state, q) for q in (0, 1))]
    assert abs(purities[0] - purities[1]) <= 1e-10
    from_purity = math.sqrt(max(2.0 * (1.0 - purities[0]), 0.0))
    value = concurrence(state)
    assert abs(value - from_purity) <= 1e-7
    assert abs(value - math.sin(theta) / 2.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(thetas=st.lists(THETAS, min_size=1, max_size=5))
def test_concurrence_curve_matches_closed_forms(thetas):
    c_sjm, c_ejm = _curves(thetas)
    for theta, value in zip(thetas, c_sjm):
        assert abs(value - math.sin(theta) / 2.0) <= 1e-10
    for theta, value in zip(thetas, c_ejm):
        assert abs(value - 0.5 * math.sqrt(1.0 + 3.0 * math.sin(theta) ** 2)) <= 1e-10


def _determinant_route(state):
    """2 |m00 m11 - m01 m10| in numpy's scalar complex arithmetic."""
    m = state.reshape(2, 2)
    return float(2.0 * abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))


# Grids that hold both endpoints; the sjm family snaps pi/2 + 5e-13 onto pi/2.
CURVE_THETAS = st.one_of(
    st.lists(st.one_of(THETAS, st.just(math.pi / 2 + 5e-13)), max_size=30).map(
        lambda xs: [0.0, *xs, math.pi / 2]),
    st.integers(1, 200).map(lambda k: np.linspace(0.0, math.pi / 2, k + 1)),
)


@settings(max_examples=40, deadline=None)
@given(thetas=CURVE_THETAS)
def test_concurrence_curve_equals_pointwise_concurrence_bit_for_bit(thetas):
    sjm_values, ejm_values = (curve.tolist() for curve in _curves(thetas))
    assert len(sjm_values) == len(ejm_values) == len(thetas)
    for theta, c_sjm, c_ejm in zip(thetas, sjm_values, ejm_values):
        state = sjm_basis(SjmParams(theta, 0.0))[0]
        assert type(c_sjm) is float and c_sjm == concurrence(state) == _determinant_route(state)
        state = ejm_family_state(theta)
        assert type(c_ejm) is float and c_ejm == concurrence(state) == _determinant_route(state)


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(THETAS, PHIS), min_size=1, max_size=12))
def test_stacked_concurrence_equals_single_calls_bit_for_bit(points):
    states = np.array([sjm_basis(SjmParams(t, p)) for t, p in points])  # (K, 4, 4)
    values = concurrence(states)
    assert values.shape == (len(points), 4)
    for value_row, state_row in zip(values, states):
        for value, state in zip(value_row.tolist(), state_row):
            assert value == concurrence(state) == _determinant_route(state)


def test_concurrence_rejects_a_non_two_qubit_stack():
    for bad in (np.zeros((3, 8), dtype=complex), np.zeros(()), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            concurrence(bad)
