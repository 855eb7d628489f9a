import functools
import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sjm.bases
import sjm.multiqubit
from sjm.analysis import multi_reduction_closed_form
from sjm.bases import (SjmParams, component_states, ejm_aligned, original_ejm_basis,
                       pair_matrices, sjm_basis, sjm_state)
from sjm.linalg import gram_matrix, inner, orthonormality_residual, tensor
from sjm.multiqubit import (
    aux_state,
    multi_gram_bound,
    multi_invariant_residuals,
    multi_reduction_vectors,
    multi_sjm_basis,
)

from oracles import multi_reduction_vector, partial_trace, rotation_about_axis, symmetry_axis

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
THETAS = st.floats(0.0, math.pi / 2)
PHIS = st.floats(-math.pi, math.pi)


@pytest.mark.parametrize("phi", PHI_GRID)
def test_aux_states_orthonormal(phi):
    for which in (0, 1):
        plus = aux_state(which, +1, phi)
        minus = aux_state(which, -1, phi)
        assert abs(np.linalg.norm(plus) - 1) <= 1e-12
        assert abs(np.linalg.norm(minus) - 1) <= 1e-12
        assert abs(inner(plus, minus)) <= 1e-12


def test_aux_state_validation():
    with pytest.raises(ValueError):
        aux_state(2, +1, 0.0)
    with pytest.raises(ValueError):
        aux_state(0, 0, 0.0)


@pytest.mark.parametrize("phi", (0.0, 0.7, -2.0))
def test_component_states_are_relabeled_aux_states(phi):
    params = SjmParams(0.4, phi)
    # First tensor slot draws from the first auxiliary pair...
    table0 = {
        0: aux_state(0, -1, phi),
        1: aux_state(0, +1, phi),
        2: -1j * aux_state(0, +1, phi),
        3: 1j * aux_state(0, -1, phi),
    }
    # ...and the second slot from the second pair.
    table1 = {
        0: aux_state(1, -1, phi),
        1: -1j * aux_state(1, -1, phi),
        2: -1j * aux_state(1, +1, phi),
        3: aux_state(1, +1, phi),
    }
    for k, (m0, m1) in enumerate(component_states(params)):
        np.testing.assert_allclose(m0, table0[k], atol=1e-12)
        np.testing.assert_allclose(m1, table1[k], atol=1e-12)


def test_pairwise_overlap_products_are_kronecker_delta():
    rng = np.random.default_rng(41)
    for phi in rng.uniform(-math.pi, math.pi, size=4):
        m = component_states(SjmParams(0.9, float(phi)))
        for j in range(4):
            for k in range(4):
                value = inner(m[j, 0], m[k, 0]) * inner(m[j, 1], m[k, 1])
                assert abs(value - (1.0 if j == k else 0.0)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(theta=THETAS, phi=PHIS)
def test_overlap_product_row_matches_the_per_pair_products(theta, phi):
    # The row reads A = conj(F) F^T; the same overlaps, pair by pair, from
    # the components' inner products.
    params = SjmParams(theta, phi)
    m = component_states(params)
    per_pair = max(abs(inner(m[j, 0], m[k, 0]) * inner(m[j, 1], m[k, 1]) - float(j == k))
                   for j in range(4) for k in range(4))
    rows = {name: r for name, r, _ in multi_invariant_residuals(2, params)}
    assert abs(rows["overlap_product_residual"] - per_pair) <= 1e-15


def test_two_pair_case_reduces_to_joint_basis():
    for theta, phi in [(0.0, 0.0), (0.7, 0.3), (math.pi / 2, math.pi / 4)]:
        params = SjmParams(theta, phi)
        multi = multi_sjm_basis(2, params)
        reference = sjm_basis(params)
        for k in range(4):
            np.testing.assert_allclose(multi[k], reference[k], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(theta=THETAS, phi=PHIS)
def test_two_qubit_case_is_bit_equal_to_joint_basis(theta, phi):
    # `sjm basis` emits the rows multi_sjm_basis is built from, at every n,
    # so n = 2 must match sjm_basis bit for bit.
    params = SjmParams(theta, phi)
    assert np.array_equal(multi_sjm_basis(2, params), sjm_basis(params))


@settings(max_examples=50, deadline=None)
@given(theta=st.one_of(st.sampled_from((0.0, math.pi / 2)), THETAS),
       phi=st.one_of(st.sampled_from((-math.pi, math.pi)), PHIS))
@example(theta=0.0, phi=-math.pi)
@example(theta=0.0, phi=math.pi)
@example(theta=math.pi / 2, phi=-math.pi)
@example(theta=math.pi / 2, phi=math.pi)
def test_pair_matrix_bases_equal_the_per_state_oracle(theta, phi):
    # Both constructors go through the pair matrices; `sjm_state` builds each
    # state from its own component pair.  Exact equality is what keeps
    # `multi_two_qubit_match_residual` at 0.
    params = SjmParams(theta, phi)
    oracle = np.array([sjm_state(k, params) for k in range(4)])
    assert np.array_equal(sjm_basis(params), oracle)
    assert np.array_equal(multi_sjm_basis(2, params), oracle)
    match = {name: r for name, r, _ in multi_invariant_residuals(2, params)}
    assert match["multi_two_qubit_match_residual"] == 0.0


def _row_loop(n: int, params: SjmParams):
    """The dense states one at a time, each by `tensor` over its pairs: the
    oracle of the Kronecker-block construction."""
    forward, swapped = pair_matrices(params)
    mix = np.exp(1j * params.theta)
    for ks in itertools.product(range(4), repeat=n // 2):
        yield 0.5 * ((1.0 + mix) * tensor(*(forward[k] for k in ks))
                     + (1.0 - mix) * tensor(*(swapped[k] for k in ks)))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from((2, 4, 6, 8, 10)),
       theta=st.one_of(st.sampled_from((0.0, math.pi / 2)), THETAS),
       phi=st.one_of(st.sampled_from((-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi)), PHIS))
@example(n=2, theta=0.0, phi=0.0)
@example(n=2, theta=0.0, phi=-math.pi)
@example(n=4, theta=0.0, phi=math.pi / 2)
@example(n=6, theta=math.pi / 2, phi=-math.pi / 2)
@example(n=8, theta=0.0, phi=math.pi)
@example(n=10, theta=0.7, phi=-1.3)
@example(n=10, theta=math.pi / 2, phi=math.pi / 4)
def test_basis_rows_equal_the_row_loop_bit_for_bit(n, theta, phi):
    params = SjmParams(theta, phi)
    oracle = np.array(list(_row_loop(n, params)))
    assert np.array(list(sjm.multiqubit._basis_rows(n, params))).tobytes() == oracle.tobytes()
    assert multi_sjm_basis(n, params).tobytes() == oracle.tobytes()


def test_basis_rows_equal_the_row_loop_at_n_12():
    # Row by row, so the test never holds the 268 MB basis.
    params = SjmParams(0.7, -1.3)
    rows = sjm.multiqubit._basis_rows(12, params)
    for count, (expected, state) in enumerate(zip(_row_loop(12, params), rows), 1):
        assert state.tobytes() == expected.tobytes(), count
    assert count == 4**6 and next(rows, None) is None


@pytest.mark.parametrize("n", (2, 4, 6))
def test_states_are_one_read_only_array(n):
    states = multi_sjm_basis(n, SjmParams(0.5, 0.1))
    assert states.shape == (4 ** (n // 2), 2**n)
    assert states.dtype == np.complex128
    assert states.flags.writeable is False
    with pytest.raises(ValueError):
        states[0, 0] = 0.0


def test_basis_size_and_ordering():
    # Every basis is one array, the two-qubit ones included, and the state of
    # index tuple ks is row np.ravel_multi_index(ks, (4,) * len(ks)).
    params = SjmParams(0.5, 0.1)
    bases = [(2, sjm_basis(params)), (2, original_ejm_basis()),
             *((n, multi_sjm_basis(n, params)) for n in (2, 4, 6))]
    for n, basis in bases:
        assert len(basis) == 4 ** (n // 2)
    for n, basis in bases[2:]:
        pairs = n // 2
        for ks, expected in zip(itertools.product(range(4), repeat=pairs), _row_loop(n, params)):
            assert np.array_equal(basis[np.ravel_multi_index(ks, (4,) * pairs)], expected)


def test_invalid_sizes_rejected():
    params = SjmParams(0.5, 0.1)
    for n in (1, 3, 7, 0, 14, -2):
        # _basis_rows checks n at the call, not at its first row.
        for build in (sjm.multiqubit._basis_rows, multi_sjm_basis, multi_gram_bound,
                      multi_reduction_vectors, multi_invariant_residuals):
            with pytest.raises(ValueError):
                build(n, params)


def test_pair_matrices_rows_are_the_component_products():
    params = SjmParams(0.8, -0.6)
    forward, swapped = pair_matrices(params)
    assert forward.shape == swapped.shape == (4, 4)
    for k in range(4):
        m0, m1 = component_states(params)[k]
        assert np.array_equal(forward[k], tensor(m0, m1))
        assert np.array_equal(swapped[k], tensor(m1, m0))


# The dense Gram matrix is the exhaustive oracle of the factored bound: the
# bound holds for the exact states, and the dense states add their own
# rounding, a few 1e-16 per entry.
def test_four_qubit_gram_exhaustive():
    params = SjmParams(0.7, 0.3)
    bound = multi_gram_bound(4, params)
    assert type(bound) is float
    assert orthonormality_residual(multi_sjm_basis(4, params)) <= bound + 1e-14
    assert bound <= 1e-10


@pytest.mark.parametrize("theta,phi", [(0.0, 0.5), (0.9, -2.1), (math.pi / 2, math.pi / 4)])
def test_six_qubit_gram_exhaustive(theta, phi):
    params = SjmParams(theta, phi)
    bound = multi_gram_bound(6, params)
    assert orthonormality_residual(multi_sjm_basis(6, params)) <= bound + 1e-14
    assert bound <= 1e-10


def test_eight_qubit_gram_sampled():
    # 200 seeded pairs of the dense n = 8 basis all sit inside the bound.
    params = SjmParams(0.6, 0.2)
    states = multi_sjm_basis(8, params)
    bound = multi_gram_bound(8, params)
    rng = np.random.default_rng(7)
    for j, k in rng.integers(len(states), size=(200, 2)):
        expected = 1.0 if j == k else 0.0
        assert abs(inner(states[j], states[k]) - expected) <= bound + 1e-14


# Worst |gram - A^{(x)P}| seen over 3000+ random points: 4.4e-16 at n = 2,
# 6.7e-16 at n = 4 and 1.4e-15 at n = 6, where each entry sums 64 products.
GRAM_ROUNDING = {2: 1e-15, 4: 1e-15, 6: 2e-15}


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((2, 4, 6)), theta=THETAS, phi=PHIS)
@example(n=4, theta=0.7, phi=-1.3)
@example(n=6, theta=math.pi / 2, phi=math.pi / 4)
def test_dense_gram_matrix_is_the_kronecker_power_of_a(n, theta, phi):
    # G = A^{(x)P} with A = conj(F) F^T: the one matrix `multi_gram_bound` reads.
    params = SjmParams(theta, phi)
    forward = pair_matrices(params)[0]
    overlaps = forward.conj() @ forward.T
    gram = gram_matrix(multi_sjm_basis(n, params))
    assert np.abs(gram - tensor(*[overlaps] * (n // 2))).max() <= GRAM_ROUNDING[n]


def test_gram_bound_needs_no_rng():
    assert list(inspect.signature(multi_gram_bound).parameters) == ["n", "params"]
    assert list(inspect.signature(multi_invariant_residuals).parameters) == ["n", "params"]
    params = SjmParams(0.6, 0.2)
    assert multi_gram_bound(8, params) == multi_gram_bound(8, params)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
@pytest.mark.parametrize("theta,phi", [(0.0, 0.5), (0.7, -1.3), (math.pi / 2, math.pi / 4)])
def test_gram_bound_certifies_every_n(n, theta, phi):
    assert multi_gram_bound(n, SjmParams(theta, phi)) <= 1e-10


def test_gram_bound_sees_a_non_orthonormal_basis(monkeypatch):
    def perturbed(params):
        states = component_states(params)
        states[1, 0] *= 1.0 + 1e-6
        return states

    for module in (sjm.bases, sjm.multiqubit):
        monkeypatch.setattr(module, "component_states", perturbed)
    params = SjmParams(0.7, -1.3)
    dense = orthonormality_residual(multi_sjm_basis(4, params))
    assert dense > 1e-6
    assert multi_gram_bound(4, params) >= dense - 1e-14


# The rows of `sjm verify`, in the order it prints them.
VERIFY_ORDER = (
    "orthonormality_residual", "completeness_residual", "construction_closed_form_residual",
    "overlap_closed_form_residual", "component_overlap_residual", "concurrence_residual",
    "reduction_closed_form_residual", "rotational_symmetry_residual", "zero_sum_residual",
    "aligned_ejm_orthogonality_residual", "aligned_tetrahedron_residual",
    "multi_two_qubit_match_residual", "aux_orthogonality_residual", "overlap_product_residual",
    "multi_gram_residual", "multi_reduction_residual",
)


@settings(max_examples=40, deadline=None)
@given(theta=THETAS, phi=PHIS, n=st.sampled_from((2, 4, 6, 8, 10, 12)))
@example(theta=0.0, phi=-math.pi, n=2)
@example(theta=0.0, phi=math.pi, n=12)
@example(theta=math.pi / 2, phi=-math.pi, n=12)
@example(theta=math.pi / 2, phi=math.pi, n=2)
def test_verify_report_holds_at_random_points(theta, phi, n):
    residuals = multi_invariant_residuals(n, SjmParams(theta, phi))
    assert tuple(name for name, _, _ in residuals) == VERIFY_ORDER
    for name, residual, tolerance in residuals:
        assert type(residual) is float, name
        assert residual <= tolerance, name


def test_invariant_residuals_are_json_floats():
    residuals = multi_invariant_residuals(8, SjmParams(0.7, -1.3))
    assert all(type(r) is float and r <= tol for _, r, tol in residuals)
    json.dumps([r <= tol for _, r, tol in residuals])


@settings(max_examples=12, deadline=None)
@given(theta=THETAS, phi=PHIS, n=st.sampled_from((2, 4, 6, 8)))
def test_factored_checks_match_dense_oracle(theta, phi, n):
    params = SjmParams(theta, phi)
    basis = multi_sjm_basis(n, params)
    vectors = multi_reduction_vectors(n, params)
    assert vectors.shape == (4 ** (n // 2), n, 3)
    dense = np.array([[multi_reduction_vector(basis, ks, q) for q in range(n)]
                      for ks in np.ndindex((4,) * (n // 2))])
    assert np.abs(vectors - dense).max() <= 1e-13
    bound = multi_gram_bound(n, params)
    dense_gram = orthonormality_residual(basis)
    assert dense_gram <= bound + 1e-14
    assert max(bound, dense_gram) <= 1e-10


def test_product_structure_at_theta_zero():
    # With no mixing, every state factors into single-qubit pieces:
    # all marginals are pure, so no qubit is entangled with anything.
    basis = multi_sjm_basis(4, SjmParams(0.0, 0.8))
    for state in basis:
        for q in range(4):
            rho = partial_trace(state, q)
            assert abs(np.trace(rho @ rho).real - 1) <= 1e-12


def test_theta_zero_states_are_component_products():
    params = SjmParams(0.0, -0.4)
    basis = multi_sjm_basis(4, params)
    for ks in [(0, 0), (1, 3), (2, 1)]:
        factors = [component_states(params)[k, slot] for k in ks for slot in (0, 1)]
        expected = functools.reduce(np.kron, factors)
        np.testing.assert_allclose(basis[np.ravel_multi_index(ks, (4, 4))], expected, atol=1e-12)


def _assert_reductions_match_closed_form(n: int, params: SjmParams) -> None:
    """Every reduction of the dense n-qubit basis, by partial trace, against
    `multi_reduction_closed_form`."""
    basis = multi_sjm_basis(n, params)
    for ks in np.ndindex((4,) * (n // 2)):
        for position in range(n):
            actual = multi_reduction_vector(basis, ks, position)
            expected = multi_reduction_closed_form(ks[position // 2], params, n, position)
            np.testing.assert_allclose(actual, expected, atol=1e-10)


@pytest.mark.parametrize("theta,phi", [(t, p) for t in THETA_GRID for p in PHI_GRID])
def test_two_pair_reductions_match_closed_form(theta, phi):
    _assert_reductions_match_closed_form(2, SjmParams(theta, phi))


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("phi", (math.pi / 3, -math.pi / 2))
def test_four_qubit_reductions_match_closed_form(theta, phi):
    _assert_reductions_match_closed_form(4, SjmParams(theta, phi))


@pytest.mark.parametrize("theta,phi", [(0.0, 0.5), (0.9, -2.1), (math.pi / 2, math.pi / 4)])
def test_six_qubit_reductions_match_closed_form(theta, phi):
    _assert_reductions_match_closed_form(6, SjmParams(theta, phi))


@settings(max_examples=20, deadline=None)
@given(theta=THETAS, phi=PHIS, n=st.sampled_from((2, 4)))
def test_reductions_match_closed_form_random_point(theta, phi, n):
    _assert_reductions_match_closed_form(n, SjmParams(theta, phi))


def test_pair_partners_related_by_axis_rotation():
    # Within each sourced pair the two marginals map onto each other under a
    # half-turn about the in-plane axis set by the phase angle.
    params = SjmParams(1.1, 0.6)
    for n in (2, 4):
        for k in range(4):
            axis = symmetry_axis(k, params)
            plus = multi_reduction_closed_form(k, params, n, 0)
            minus = multi_reduction_closed_form(k, params, n, 1)
            np.testing.assert_allclose(rotation_about_axis(plus, axis, math.pi), minus, atol=1e-10)


def test_reduction_shrinks_with_pair_count():
    # The out-of-plane component scales down as more pairs join in.
    params = SjmParams(math.pi / 2, math.pi / 4)
    z2 = multi_reduction_closed_form(0, params, 2, 0)[2]
    z4 = multi_reduction_closed_form(0, params, 4, 0)[2]
    z6 = multi_reduction_closed_form(0, params, 6, 0)[2]
    assert abs(z4 / z2 - 0.5) <= 1e-12
    assert abs(z6 / z4 - 0.5) <= 1e-12
    # In-plane components do not shrink.
    assert np.allclose(
        multi_reduction_closed_form(0, params, 2, 0)[:2],
        multi_reduction_closed_form(0, params, 6, 0)[:2],
        atol=1e-12,
    )


def test_aligned_two_pair_reduction_matches_tetrahedron():
    from sjm.analysis import ALIGNED_VERTICES_FIRST, ALIGNED_VERTICES_SECOND

    params = ejm_aligned()
    for k in range(4):
        np.testing.assert_allclose(
            multi_reduction_closed_form(k, params, 2, 0), ALIGNED_VERTICES_FIRST[k], atol=1e-12
        )
        np.testing.assert_allclose(
            multi_reduction_closed_form(k, params, 2, 1), ALIGNED_VERTICES_SECOND[k], atol=1e-12
        )


def test_reduction_position_validation():
    params = SjmParams(0.5, 0.1)
    basis = multi_sjm_basis(4, params)
    with pytest.raises(ValueError):
        multi_reduction_vector(basis, (0, 0), 4)
    with pytest.raises(ValueError):
        multi_reduction_vector(basis, (0, 0), -1)
    with pytest.raises(ValueError):
        multi_reduction_closed_form(0, params, 4, 4)
    with pytest.raises(ValueError):
        multi_reduction_closed_form(0, params, 2, 2)


def test_gram_matrix_off_diagonal_structure():
    # Spot-check the raw Gram matrix for one mid-range parameter point.
    basis = multi_sjm_basis(4, SjmParams(1.0, -0.3))
    g = gram_matrix(basis)
    np.testing.assert_allclose(g, np.eye(16), atol=1e-10)
