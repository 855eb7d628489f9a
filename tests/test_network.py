"""Tests for the triangle-network outcome statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sjm.bases import SjmParams, bell_psi_plus, ejm_aligned, sjm_basis, sjm_basis_sweep
from sjm.network import (
    _DIAGONAL,
    NETWORK_TRIPLES,
    NETWORK_WEIGHT,
    TRILOCAL_BOUND,
    _amplitudes,
    closed_form_probability,
    joint_distribution,
    nonlocality_scan,
)

from oracles import (amplitude_closed_form, joint_amplitudes, outcome_amplitude, partial_trace,
                     permutation_residual, threshold_theta, triangle_state)

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)


def _p_same(dist: np.ndarray) -> float:
    """p(a=b=c) of a (4, 4, 4) outcome table: its diagonal, summed in order."""
    return float(np.einsum("kkk->", dist))


def test_trilocal_bound_value():
    assert TRILOCAL_BOUND == 61 / 256


def test_triangle_state_amplitudes():
    psi = triangle_state()
    assert psi.shape == (64,)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    nonzero = np.flatnonzero(np.abs(psi) > 1e-12)
    assert len(nonzero) == 8
    np.testing.assert_allclose(np.abs(psi[nonzero]), 2 ** -1.5, atol=1e-12)
    # Each source feeds an antisymmetric bit pair: with qubits ordered
    # (A1, A2, B1, B2, C1, C2), the sourced pairs are (A2,B1), (B2,C1), (C2,A1).
    for idx in nonzero:
        bits = format(idx, "06b")
        assert bits[1] != bits[2]
        assert bits[3] != bits[4]
        assert bits[5] != bits[0]


def test_triangle_state_construction():
    # The qubit permutation of the sources' product, entry by entry: with
    # qubits (A1 A2 B1 B2 C1 C2), the pairs (A2 B1), (B2 C1), (C2 A1) each
    # carry one source's amplitude.
    pair = bell_psi_plus()
    expected = np.zeros(64, dtype=complex)
    for idx in range(64):
        q = [int(bit) for bit in format(idx, "06b")]
        expected[idx] = pair[2 * q[1] + q[2]] * pair[2 * q[3] + q[4]] * pair[2 * q[5] + q[0]]
    np.testing.assert_allclose(triangle_state(), expected, atol=1e-15)


def test_triangle_state_marginals_maximally_mixed():
    psi = triangle_state()
    for q in range(6):
        np.testing.assert_allclose(partial_trace(psi, q), np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("phi", (math.pi / 3, -math.pi / 2))
def test_distribution_matches_closed_form(theta, phi):
    dist = joint_distribution(SjmParams(theta, phi))
    for j in range(4):
        for k in range(4):
            for l in range(4):
                expected = closed_form_probability(j, k, l, theta)
                assert abs(dist[j, k, l] - expected) <= 1e-10


@pytest.mark.parametrize("theta,phi", [(t, p) for t in THETA_GRID for p in PHI_GRID])
def test_distribution_normalized_and_symmetric(theta, phi):
    dist = joint_distribution(SjmParams(theta, phi))
    assert type(dist) is np.ndarray and dist.shape == (4, 4, 4)
    assert abs(dist.sum() - 1) <= 1e-10
    assert permutation_residual(dist) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
def test_distribution_normalized_and_symmetric_random_point(theta, phi):
    dist = joint_distribution(SjmParams(theta, phi))
    assert abs(dist.sum() - 1) <= 1e-10
    assert permutation_residual(dist) <= 1e-12


def test_aligned_distribution_values():
    dist = joint_distribution(ejm_aligned())
    values = np.sort(dist.ravel())
    # 36 outcomes at 1/256, 24 at 5/256, 4 at 25/256.
    np.testing.assert_allclose(values[:36], 1 / 256, atol=1e-12)
    np.testing.assert_allclose(values[36:60], 5 / 256, atol=1e-12)
    np.testing.assert_allclose(values[60:], 25 / 256, atol=1e-12)


def test_product_point_distribution_uniform():
    dist = joint_distribution(SjmParams(0.0, 0.3))
    np.testing.assert_allclose(dist, 1 / 64, atol=1e-12)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_distribution_independent_of_phi(theta):
    reference = joint_distribution(SjmParams(theta, PHI_GRID[0]))
    for phi in PHI_GRID[1:]:
        other = joint_distribution(SjmParams(theta, phi))
        assert np.max(np.abs(other - reference)) <= 1e-10


@pytest.mark.parametrize("theta,phi", [(t, p) for t in THETA_GRID for p in (0.1, 2.0)])
def test_amplitude_closed_form_matches_projection(theta, phi):
    params = SjmParams(theta, phi)
    amps = joint_amplitudes(params)
    for j in range(4):
        for k in range(4):
            for l in range(4):
                assert abs(amps[j, k, l] - amplitude_closed_form(j, k, l, params)) <= 1e-10


def test_outcome_amplitude_single_entry():
    params = SjmParams(0.9, -0.7)
    a = outcome_amplitude(0, 0, 0, params)
    assert abs(a - amplitude_closed_form(0, 0, 0, params)) <= 1e-12
    assert abs(abs(a) ** 2 - closed_form_probability(0, 0, 0, params.theta)) <= 1e-12


@pytest.mark.parametrize("theta", THETA_GRID)
def test_p_same_formula(theta):
    p = _p_same(joint_distribution(SjmParams(theta, 0.4)))
    assert abs(p - (4 + 21 * math.sin(theta) ** 2) / 64) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
def test_p_same_closed_form_random_point(theta, phi):
    p = _p_same(joint_distribution(SjmParams(theta, phi)))
    assert abs(p - (4 + 21 * math.sin(theta) ** 2) / 64) <= 1e-10


def test_p_same_aligned_value():
    assert abs(_p_same(joint_distribution(ejm_aligned())) - 25 / 64) <= 1e-12


def test_p_same_monotone_in_theta():
    thetas = np.linspace(0, math.pi / 2, 21)
    values = [_p_same(joint_distribution(SjmParams(float(t), 0.2))) for t in thetas]
    diffs = np.diff(values)
    assert np.all(diffs > -1e-12)
    assert values[0] == pytest.approx(1 / 16, abs=1e-12)
    assert values[-1] == pytest.approx(25 / 64, abs=1e-12)


def test_threshold_value():
    target = math.asin(math.sqrt(15 / 28))
    assert abs(threshold_theta() - target) <= 1e-12
    # The equal-outcome probability crosses the trilocal bound at the threshold.
    below = _p_same(joint_distribution(SjmParams(threshold_theta() - 1e-6, 0.0)))
    above = _p_same(joint_distribution(SjmParams(threshold_theta() + 1e-6, 0.0)))
    assert below < TRILOCAL_BOUND < above


def test_threshold_bracketed_by_fine_grid():
    # On a grid of step 1e-4 the crossing lands between 0.8211 and 0.8212.
    thetas = np.arange(0.80, 0.85, 1e-4)
    p = (4 + 21 * np.sin(thetas) ** 2) / 64
    crossing = np.flatnonzero((p[:-1] <= TRILOCAL_BOUND) & (p[1:] > TRILOCAL_BOUND))
    assert len(crossing) == 1
    low = float(thetas[crossing[0]])
    high = float(thetas[crossing[0] + 1])
    assert low == pytest.approx(0.8211, abs=1e-9)
    assert high == pytest.approx(0.8212, abs=1e-9)
    assert low <= threshold_theta() <= high
    assert threshold_theta() == pytest.approx(0.8211428883402087, abs=1e-12)


def test_scan_flags_and_bracket():
    thetas = np.linspace(0, math.pi / 2, 64)
    p_same, violates = nonlocality_scan(thetas)
    assert p_same.shape == violates.shape == (64,)
    assert p_same.dtype == np.float64 and violates.dtype == np.bool_
    assert not violates[0]
    assert violates[-1]
    flags = violates.tolist()
    first = flags.index(True)
    # The first flagged angle sits within one grid step of the true threshold.
    step = thetas[1] - thetas[0]
    assert 0 < thetas[first] - threshold_theta() <= step
    assert not any(flags[:first])
    assert all(flags[first:])
    for p, flag in zip(p_same.tolist(), flags):
        assert flag == (p > TRILOCAL_BOUND + 1e-12)


def test_network_state_constant_is_the_constructed_state_read_only():
    # The eight triples and their one weight are the dense state the sources
    # and the qubit permutation build, bit for bit, and immutable.
    dense = np.zeros((4, 4, 4), dtype=complex)
    dense[tuple(np.transpose(NETWORK_TRIPLES))] = NETWORK_WEIGHT
    assert dense.tobytes() == triangle_state().reshape(4, 4, 4).tobytes()
    assert list(NETWORK_TRIPLES) == sorted(NETWORK_TRIPLES)
    assert type(NETWORK_TRIPLES) is tuple and type(NETWORK_WEIGHT) is float


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
@example(theta=0.0, phi=0.0)
@example(theta=math.pi / 2, phi=math.pi / 4)
@example(theta=math.pi / 2, phi=math.pi)
@example(theta=0.0, phi=-math.pi)
def test_table_equals_the_einsum_bit_for_bit(theta, phi):
    params = SjmParams(theta, phi)
    expected = np.abs(joint_amplitudes(params)) ** 2
    assert joint_distribution(params).tobytes() == expected.tobytes()


# Random grids that hold both endpoints, or evenly spaced ones as the CLI uses.
SCAN_THETAS = st.one_of(
    st.lists(st.floats(0.0, math.pi / 2), max_size=30).map(lambda xs: [0.0, *xs, math.pi / 2]),
    st.integers(1, 200).map(lambda k: np.linspace(0.0, math.pi / 2, k)),
)


@settings(max_examples=40, deadline=None)
@given(thetas=SCAN_THETAS, phi=st.floats(-math.pi, math.pi))
def test_scan_equals_pointwise_p_same_bit_for_bit(thetas, phi):
    p_same, violates = nonlocality_scan(thetas, phi)
    assert len(p_same) == len(violates) == len(thetas)
    for p, theta in zip(p_same.tolist(), thetas):
        assert type(p) is float
        assert p == _p_same(joint_distribution(SjmParams(float(theta), phi)))


def _assert_scan_is_the_einsum_bit_for_bit(thetas, phi):
    """|<k k k|network>|^2 and p_same against the 64-term einsum, the oracle
    of the eight-term kernel."""
    m = sjm_basis_sweep(thetas, phi)
    psi = triangle_state().reshape(4, 4, 4)
    expected = np.abs(np.einsum("tka,tkb,tkc,abc->tk", m.conj(), m.conj(), m.conj(), psi)) ** 2
    assert (np.abs(_amplitudes(m, _DIAGONAL)) ** 2).tobytes() == expected.tobytes()
    p_same, _ = nonlocality_scan(thetas, phi)
    summed = ((expected[:, 0] + expected[:, 1]) + expected[:, 2]) + expected[:, 3]
    assert p_same.tobytes() == summed.tobytes()


@settings(max_examples=60, deadline=None)
@given(thetas=st.one_of(st.lists(st.floats(0.0, math.pi / 2), max_size=300),
                        st.integers(1, 3000).map(lambda k: np.linspace(0.0, math.pi / 2, k))),
       phi=st.floats(-math.pi, math.pi))
@example(thetas=[0.7], phi=0.0)
@example(thetas=[0.0, math.pi / 2], phi=math.pi / 2)
@example(thetas=[0.3, 1.1], phi=-math.pi / 2)
@example(thetas=[math.pi / 2], phi=math.pi)
@example(thetas=[0.0, 0.9], phi=-math.pi)
def test_scan_kernel_equals_the_einsum_bit_for_bit(thetas, phi):
    _assert_scan_is_the_einsum_bit_for_bit(thetas, phi)


def test_scan_kernel_equals_the_einsum_past_the_iterator_buffer():
    # 8193 points put 32772 (theta, state) pairs through the einsum, past the
    # 8192-element buffer of numpy's iterator.
    _assert_scan_is_the_einsum_bit_for_bit(np.linspace(0.0, math.pi / 2, 8193), 0.4)
