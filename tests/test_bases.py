import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjm.multiqubit
from sjm.analysis import concurrence_curve, multi_reduction_closed_form, symmetry_axis
from sjm.bases import (
    EJM_PHI,
    PHI_OFFSETS,
    SjmParams,
    _checked_theta,
    _checked_thetas,
    _components,
    _pair_matrices_of,
    bell_psi_plus,
    component_state,
    cos_k_pi,
    direction_state,
    ejm_aligned,
    ejm_family_state,
    original_ejm_basis,
    original_ejm_state,
    pair_matrices,
    sjm_basis,
    sjm_basis_sweep,
    sjm_overlap_closed_form,
    sjm_state,
    sjm_state_closed_form,
)
from sjm.linalg import (
    completeness_residual,
    gram_matrix,
    inner,
    ket,
    orthonormality_residual,
    partial_trace,
    tensor,
)
from sjm.network import nonlocality_scan

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
GRID = [(t, p) for t in THETA_GRID for p in PHI_GRID]


def test_params_validation():
    SjmParams(0.0, -math.pi)
    SjmParams(math.pi / 2, math.pi)
    with pytest.raises(ValueError):
        SjmParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        SjmParams(1.6, 0.0)
    with pytest.raises(ValueError):
        SjmParams(0.5, 3.2)
    with pytest.raises(ValueError):
        SjmParams(0.5, -3.2)


def test_phi_k_offsets():
    p = SjmParams(0.3, 0.2)
    assert PHI_OFFSETS == (0.0, math.pi / 2, math.pi, -math.pi / 2)
    for k in range(4):
        assert p.phi_k(k) == pytest.approx(0.2 + PHI_OFFSETS[k])


def test_ejm_aligned_point():
    p = ejm_aligned()
    assert p.theta == pytest.approx(math.pi / 2)
    assert p.phi == pytest.approx(math.pi / 4)


def test_cos_k_pi_exact():
    assert [cos_k_pi(k) for k in range(5)] == [1.0, -1.0, 1.0, -1.0, 1.0]


def test_direction_state_collapsed_even_k():
    p = SjmParams(0.5, 0.0)
    np.testing.assert_allclose(direction_state(0, +1, p), ket("0"), atol=1e-15)
    np.testing.assert_allclose(direction_state(0, -1, p), -ket("1"), atol=1e-15)


def test_direction_state_collapsed_odd_k():
    # k=1 at phi=0: phi_1 = pi/2, so the pair collapses onto |1> and |0>
    # with e^{+-i pi/4} phases.
    p = SjmParams(0.5, 0.0)
    np.testing.assert_allclose(
        direction_state(1, +1, p), np.exp(0.25j * math.pi) * ket("1"), atol=1e-15
    )
    np.testing.assert_allclose(
        direction_state(1, -1, p), np.exp(-0.25j * math.pi) * ket("0"), atol=1e-15
    )


@pytest.mark.parametrize("phi", PHI_GRID)
def test_direction_states_orthonormal(phi):
    p = SjmParams(0.4, phi)
    for k in range(4):
        plus = direction_state(k, +1, p)
        minus = direction_state(k, -1, p)
        assert abs(inner(plus, plus) - 1) < 1e-12
        assert abs(inner(minus, minus) - 1) < 1e-12
        assert abs(inner(plus, minus)) < 1e-12


def test_direction_state_bad_sign():
    with pytest.raises(ValueError):
        direction_state(0, 0, SjmParams(0.1, 0.1))


def test_component_state_frozen():
    p = SjmParams(0.5, 0.0)
    scale = 1.0 / math.sqrt(4.0 + 2.0 * math.sqrt(2.0))
    expected = scale * np.array(
        [1.0 + np.exp(-0.25j * math.pi), -(1.0 + np.exp(0.25j * math.pi))]
    )
    np.testing.assert_allclose(component_state(0, 0, p), expected, atol=1e-15)


@pytest.mark.parametrize("phi", PHI_GRID)
@pytest.mark.parametrize("k", range(4))
def test_component_states_normalized_with_fixed_overlap(k, phi):
    p = SjmParams(0.9, phi)
    m0 = component_state(k, 0, p)
    m1 = component_state(k, 1, p)
    assert np.linalg.norm(m0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(m1) == pytest.approx(1.0, abs=1e-12)
    assert inner(m0, m1) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_component_state_bad_slot():
    with pytest.raises(ValueError):
        component_state(0, 2, SjmParams(0.1, 0.1))


@pytest.mark.parametrize("k", (-1, 4))
@pytest.mark.parametrize("build", [
    lambda k, p: sjm_state(k, p),
    lambda k, p: sjm_state_closed_form(k, p),
    lambda k, p: component_state(k, 0, p),
    lambda k, p: direction_state(k, +1, p),
    lambda k, p: sjm_overlap_closed_form(0, k, p),
    lambda k, p: symmetry_axis(k, p),
    lambda k, p: multi_reduction_closed_form(k, p, 2, 0),
    lambda k, p: original_ejm_state(k),
], ids=["sjm_state", "sjm_state_closed_form", "component_state", "direction_state",
        "sjm_overlap_closed_form", "symmetry_axis", "multi_reduction_closed_form",
        "original_ejm_state"])
def test_state_index_outside_0_to_3_rejected(build, k):
    # -1 used to wrap round to state 3, and 4 to raise a bare IndexError.
    with pytest.raises(ValueError, match="state index"):
        build(k, SjmParams(0.1, 0.1))


@pytest.mark.parametrize("theta,phi", GRID)
def test_construction_matches_closed_form(theta, phi):
    p = SjmParams(theta, phi)
    for k in range(4):
        np.testing.assert_allclose(
            sjm_state(k, p), sjm_state_closed_form(k, p), atol=1e-12
        )


def test_closed_form_frozen_at_aligned_point():
    # theta=pi/2, phi=pi/4, k=0: amplitudes (1/2)(e^{-i pi/4}, -sqrt2, 0, e^{i pi/4}).
    state = sjm_state_closed_form(0, ejm_aligned())
    expected = 0.5 * np.array(
        [np.exp(-0.25j * math.pi), -math.sqrt(2.0), 0.0, np.exp(0.25j * math.pi)]
    )
    np.testing.assert_allclose(state, expected, atol=1e-15)


@pytest.mark.parametrize("theta,phi", GRID)
def test_basis_orthonormal_and_complete(theta, phi):
    basis = sjm_basis(SjmParams(theta, phi))
    assert orthonormality_residual(basis) <= 1e-10
    assert completeness_residual(basis) <= 1e-10


@pytest.mark.parametrize("theta,phi", GRID + [(0.3, 1.1)])
def test_gram_matches_overlap_closed_form(theta, phi):
    p = SjmParams(theta, phi)
    gram = gram_matrix(sjm_basis(p))
    for j in range(4):
        for k in range(4):
            assert abs(gram[j, k] - sjm_overlap_closed_form(j, k, p)) <= 1e-12


def test_theta_zero_states_are_products():
    params = SjmParams(0.0, 0.7)
    for k, state in enumerate(sjm_basis(params)):
        singular = np.linalg.svd(state.reshape(2, 2), compute_uv=False)
        assert singular[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            state, np.kron(component_state(k, 0, params), component_state(k, 1, params)),
            atol=1e-12,
        )


def test_original_ejm_orthonormal():
    basis = original_ejm_basis()
    assert orthonormality_residual(basis) <= 1e-10
    assert completeness_residual(basis) <= 1e-10


@pytest.mark.parametrize("basis", [
    sjm_basis(SjmParams(0.5, 0.1)), original_ejm_basis(),
    *(sjm.multiqubit.multi_sjm_basis(n, SjmParams(0.5, 0.1)) for n in (2, 4, 6)),
])
def test_basis_states_are_one_read_only_array(basis):
    assert type(basis) is np.ndarray
    n = basis.shape[1].bit_length() - 1
    assert n in (2, 4, 6)
    assert basis.shape == (4 ** (n // 2), 2**n)
    assert basis.dtype == np.complex128
    assert basis.flags.writeable is False
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_original_ejm_frozen_first_state():
    # j=0: phi_0 = 3pi/4, r_0^+ = sqrt2, r_0^- = 0, minus sign on |11>.
    expected = 0.5 * np.array(
        [
            np.exp(-0.75j * math.pi),
            -math.sqrt(2.0),
            0.0,
            -np.exp(0.75j * math.pi),
        ]
    )
    np.testing.assert_allclose(original_ejm_state(0), expected, atol=1e-15)
    assert EJM_PHI == (3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4, math.pi / 4)


def test_aligned_basis_orthogonal_to_shifted_ejm():
    aligned = sjm_basis(ejm_aligned())
    ejm = original_ejm_basis()
    for j in range(4):
        assert abs(inner(ejm[j], aligned[(j + 1) % 4])) <= 1e-10


def test_cross_overlap_closed_form_all_pairs():
    # <Psi_j|Phi_k(theta=pi/2)> = (1/4)[1 + cos(j pi) cos(k pi)
    #                                   + 2i sin(phi_j - phi_k)].
    p = ejm_aligned()
    aligned = sjm_basis(p)
    ejm = original_ejm_basis()
    for j in range(4):
        for k in range(4):
            expected = 0.25 * (
                1.0
                + cos_k_pi(j) * cos_k_pi(k)
                + 2.0j * math.sin(EJM_PHI[j] - p.phi_k(k))
            )
            assert abs(inner(ejm[j], aligned[k]) - expected) <= 1e-12


def test_ejm_family_state_frozen_at_zero():
    state = ejm_family_state(0.0, (ket("0"), ket("1")))
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    expected = scale * np.array([0.0, math.sqrt(3.0) + 1.0, math.sqrt(3.0) - 1.0, 0.0])
    np.testing.assert_allclose(state, expected, atol=1e-15)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_ejm_family_state_rejects_bad_pair():
    with pytest.raises(ValueError):
        ejm_family_state(0.3, (ket("0"), ket("0")))
    with pytest.raises(ValueError):
        ejm_family_state(0.3, (2.0 * ket("0"), ket("1")))


def test_bell_psi_plus():
    state = bell_psi_plus()
    np.testing.assert_allclose(state, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15)
    for qubit in (0, 1):
        np.testing.assert_allclose(partial_trace(state, qubit), np.eye(2) / 2, atol=1e-12)


# Grids of thetas that always hold both endpoints; pi/2 + 5e-13 is snapped
# back onto pi/2 by SjmParams.
SWEEP_THETAS = st.lists(
    st.one_of(st.floats(0.0, math.pi / 2), st.just(math.pi / 2 + 5e-13)), max_size=40
).map(lambda xs: [0.0, *xs, math.pi / 2])


@settings(max_examples=40, deadline=None)
@given(thetas=SWEEP_THETAS, phi=st.floats(-math.pi, math.pi))
def test_basis_sweep_equals_each_basis_bit_for_bit(thetas, phi):
    sweep = sjm_basis_sweep(thetas, phi)
    assert sweep.shape == (len(thetas), 4, 4)
    expected = np.array([sjm_basis(SjmParams(theta, phi)) for theta in thetas])
    assert np.array_equal(sweep, expected)


def test_basis_sweep_checks_every_angle():
    assert sjm_basis_sweep([], 0.3).shape == (0, 4, 4)
    for thetas, phi in (([0.1, math.pi / 2 + 1e-9], 0.0), ([-1e-9], 0.0), ([0.1], 3.2)):
        with pytest.raises(ValueError):
            sjm_basis_sweep(thetas, phi)


# Values on either side of each endpoint: inside, snapped (1e-13 past), and
# rejected (1e-9 past, far out, NaN).
EDGE_THETAS = st.sampled_from([
    0.0, -0.0, 1e-13, -1e-13, -1e-9, math.pi / 2, math.pi / 2 - 1e-13, math.pi / 2 + 1e-13,
    math.pi / 2 + 1e-9, 2.0, -3.0, math.inf, math.nan,
])


@settings(max_examples=200, deadline=None)
@given(thetas=st.lists(st.one_of(st.floats(0.0, math.pi / 2), EDGE_THETAS), max_size=20))
def test_array_theta_check_equals_the_scalar_check_element_by_element(thetas):
    try:
        expected = np.array([_checked_theta(theta) for theta in thetas], dtype=float)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            _checked_thetas(thetas)
        assert str(raised.value) == str(error)
    else:
        assert _checked_thetas(thetas).tobytes() == expected.tobytes()


def test_theta_check_keeps_negative_zero_and_leaves_the_caller_grid_alone():
    grid = np.array([-0.0, -1e-13, math.pi / 2 + 1e-13])
    checked = _checked_thetas(grid)
    assert math.copysign(1.0, checked[0]) == -1.0
    assert checked.tolist() == [0.0, 0.0, math.pi / 2]
    assert grid[1] == -1e-13


@pytest.mark.parametrize("thetas, shape", [
    (0.5, "()"), (np.array(0.5), "()"), (np.zeros((3, 2)), "(3, 2)"), ([[0.1], [0.2]], "(2, 1)"),
])
def test_theta_sweeps_reject_a_grid_that_is_not_1d(thetas, shape):
    sweeps = (lambda: sjm_basis_sweep(thetas, 0.3), lambda: nonlocality_scan(thetas, 0.3),
              lambda: concurrence_curve("sjm", thetas), lambda: concurrence_curve("ejm-family", thetas))
    for sweep in sweeps:
        with pytest.raises(ValueError, match=f"theta grid must be 1-D, got shape {re.escape(shape)}"):
            sweep()


@settings(max_examples=60, deadline=None)
@given(phi=st.floats(-math.pi, math.pi))
def test_pair_matrices_equal_the_tensor_rows_bit_for_bit(phi):
    components = _components(SjmParams(0.0, phi))
    forward, swapped = _pair_matrices_of(components)
    assert forward.tobytes() == np.array([tensor(m0, m1) for m0, m1 in components]).tobytes()
    assert swapped.tobytes() == np.array([tensor(m1, m0) for m0, m1 in components]).tobytes()


def test_pair_matrices_do_not_depend_on_theta():
    forward, swapped = pair_matrices(SjmParams(0.0, 0.4))
    for other in pair_matrices(SjmParams(1.2, 0.4)), pair_matrices(SjmParams(math.pi / 2, 0.4)):
        assert np.array_equal(other[0], forward) and np.array_equal(other[1], swapped)


@settings(max_examples=40, deadline=None)
@given(thetas=st.lists(st.floats(-10.0, 10.0), max_size=20))
def test_ejm_family_state_on_a_theta_array_is_the_stack_of_single_states(thetas):
    pair = (ket("0"), ket("1"))
    stacked = ejm_family_state(np.array(thetas, dtype=float), pair)
    assert stacked.shape == (len(thetas), 4)
    for row, theta in zip(stacked, thetas):
        assert np.array_equal(row, ejm_family_state(theta, pair))
