import math

import numpy as np
import pytest

from sjm.bases import SjmParams, bell_psi_plus, sjm_basis
from sjm.linalg import (
    PAULI_X,
    PAULI_Z,
    apply_gate,
    completeness_residual,
    gram_matrix,
    inner,
    ket,
    num_qubits,
    orthonormality_residual,
    partial_trace,
    permute_qubits,
    tensor,
)

from oracles import unitarity_residual

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_ket_big_endian():
    np.testing.assert_array_equal(ket("01"), [0, 1, 0, 0])
    np.testing.assert_array_equal(ket("10"), [0, 0, 1, 0])
    np.testing.assert_array_equal(ket("110"), np.eye(8)[6])


def test_num_qubits():
    assert num_qubits(ket("0")) == 1
    assert num_qubits(ket("0101")) == 4
    with pytest.raises(ValueError):
        num_qubits(np.zeros(3))
    with pytest.raises(ValueError):
        num_qubits(np.zeros(1))


def test_tensor_matches_kron_order():
    np.testing.assert_allclose(tensor(ket("0"), ket("1")), ket("01"))
    np.testing.assert_allclose(tensor(ket("1"), ket("0"), ket("1")), ket("101"))
    with pytest.raises(ValueError):
        tensor()


def test_inner_conjugates_left():
    a = np.array([1j, 0.0])
    b = np.array([1.0, 0.0])
    assert inner(a, b) == pytest.approx(-1j)
    assert inner(b, a) == pytest.approx(1j)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(ket("0"), ket("00"))


def test_partial_trace_bell_is_maximally_mixed():
    for qubit in (0, 1):
        rho = partial_trace(bell_psi_plus(), qubit)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_purity_frozen():
    # Marginal purity of a basis state: tr rho^2 = 1 - sin^2(theta)/8,
    # i.e. 15/16 at theta = pi/4 (consistent with concurrence sin(theta)/2).
    state = sjm_basis(SjmParams(math.pi / 4, 0.0))[0]
    for qubit in (0, 1):
        rho = partial_trace(state, qubit)
        assert np.trace(rho @ rho).real == pytest.approx(15.0 / 16.0, abs=1e-12)


def test_partial_trace_keep_order():
    state = ket("011")
    np.testing.assert_allclose(partial_trace(state, (1, 2)), np.outer(ket("11"), ket("11")), atol=1e-12)
    np.testing.assert_allclose(partial_trace(state, (0, 1)), np.outer(ket("01"), ket("01")), atol=1e-12)
    np.testing.assert_allclose(partial_trace(state, (1, 0)), np.outer(ket("10"), ket("10")), atol=1e-12)


def test_partial_trace_keep_all_is_projector():
    rng = np.random.default_rng(7)
    state = random_state(rng, 2)
    np.testing.assert_allclose(partial_trace(state, (0, 1)), np.outer(state, state.conj()), atol=1e-12)


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(ket("00"), 2)
    with pytest.raises(ValueError):
        partial_trace(ket("00"), (0, 0))


def test_permute_qubits_swap():
    np.testing.assert_allclose(permute_qubits(ket("01"), [1, 0]), ket("10"))
    np.testing.assert_allclose(permute_qubits(ket("100"), [1, 2, 0]), ket("010"))


def test_permute_qubits_roundtrip():
    rng = np.random.default_rng(11)
    state = random_state(rng, 5)
    perm = list(rng.permutation(5))
    inverse = list(np.argsort(perm))
    np.testing.assert_allclose(permute_qubits(permute_qubits(state, perm), inverse), state, atol=1e-12)


def test_permute_qubits_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(ket("00"), [0, 0])


def test_triple_pair_state_amplitudes():
    # (|01>+|10>)/sqrt(2) on three pairs: 8 nonzero amplitudes, each 2^{-3/2}.
    pair = bell_psi_plus()
    state = tensor(pair, pair, pair)
    nonzero = np.flatnonzero(np.abs(state) > 1e-14)
    assert len(nonzero) == 8
    np.testing.assert_allclose(state[nonzero], 2.0 ** (-1.5), atol=1e-12)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_adjacent_matches_kron():
    rng = np.random.default_rng(13)
    state = random_state(rng, 3)
    u = random_unitary(rng, 4)
    np.testing.assert_allclose(
        apply_gate(state, u, (0, 1)), tensor(u, np.eye(2)) @ state, atol=1e-12
    )
    np.testing.assert_allclose(
        apply_gate(state, u, (1, 2)), tensor(np.eye(2), u) @ state, atol=1e-12
    )


def test_apply_gate_reversed_targets():
    rng = np.random.default_rng(17)
    state = random_state(rng, 2)
    u = random_unitary(rng, 4)
    np.testing.assert_allclose(
        apply_gate(state, u, (1, 0)), apply_gate(state, SWAP @ u @ SWAP, (0, 1)), atol=1e-12
    )


def test_apply_gate_single_qubit():
    np.testing.assert_allclose(apply_gate(ket("00"), HADAMARD, (0,)), (ket("00") + ket("10")) / math.sqrt(2))
    np.testing.assert_allclose(apply_gate(ket("00"), PAULI_X, (1,)), ket("01"))


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(19)
    for _ in range(20):
        state = random_state(rng, 4)
        u = random_unitary(rng, 4)
        targets = tuple(rng.choice(4, size=2, replace=False))
        assert np.linalg.norm(apply_gate(state, u, targets)) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_errors():
    with pytest.raises(ValueError):
        apply_gate(ket("00"), np.eye(4, dtype=complex), (0, 0))
    with pytest.raises(ValueError):
        apply_gate(ket("00"), np.eye(4, dtype=complex), (0,))
    with pytest.raises(ValueError):
        apply_gate(ket("00"), np.eye(2, dtype=complex), (2,))


def test_gram_and_residuals():
    states = [ket("00"), ket("01"), ket("10"), ket("11")]
    np.testing.assert_allclose(gram_matrix(states), np.eye(4), atol=1e-12)
    assert orthonormality_residual(states) < 1e-12
    assert completeness_residual(states) < 1e-12
    tilted = [ket("00"), (ket("00") + ket("01")) / math.sqrt(2)]
    assert orthonormality_residual(tilted) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_unitarity_residual():
    assert unitarity_residual(HADAMARD) < 1e-12
    assert unitarity_residual(PAULI_Z) < 1e-12
    assert unitarity_residual(2 * np.eye(2)) == pytest.approx(3.0)
