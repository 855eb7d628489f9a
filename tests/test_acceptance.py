"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N (label): PASS|FAIL`` line and then
asserts, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances are the release tolerances, deliberately repeated
here as literals rather than imported, so a library regression cannot
silently relax a gate.
"""

import math

import numpy as np

from sjm.analysis import (
    ALIGNED_VERTICES_FIRST,
    ALIGNED_VERTICES_SECOND,
    concurrence,
    multi_reduction_closed_form,
    zero_sum_residual,
)
from sjm.bases import (
    EJM_PHI,
    SjmParams,
    cos_k_pi,
    ejm_aligned,
    ejm_family_state,
    original_ejm_basis,
    sjm_basis,
    sjm_overlap_closed_form,
)
from sjm.circuit import (
    EXPECTED_SIGNS,
    EXPECTED_TARGETS,
    GateKind,
    build_sjm_circuit,
    gate_matrix,
    verify_discrimination,
)
from sjm.linalg import PAULI_Y, gram_matrix, inner, ket
from sjm.multiqubit import multi_sjm_basis
from sjm.network import (
    TRILOCAL_BOUND,
    closed_form_probability,
    joint_distribution,
    nonlocality_scan,
    triangle_state,
)

from oracles import (
    amplitude_closed_form,
    ejm_family_concurrence_closed_form,
    multi_reduction_vector,
    partial_trace,
    permutation_residual,
    reduction_vectors,
    rotation_about_axis,
    symmetry_axis,
    threshold_theta,
)

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = (-math.pi, -math.pi / 2, 0.0, math.pi / 3, math.pi)
GRID = [SjmParams(t, p) for t in THETA_GRID for p in PHI_GRID]

CROSS_ORACLE_SEED = 20260822


def _report(num: int, label: str, checks: list[tuple[str, float, float]]) -> None:
    """Print the one-line verdict for a criterion, then assert it."""
    failures = [(d, v, t) for d, v, t in checks if not v <= t]
    verdict = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({label}): {verdict}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(
        f"{d} = {v:.3e} > {t:.0e}" for d, v, t in failures
    )


def test_criterion_1_orthonormality():
    checks = []
    for params in GRID:
        basis = sjm_basis(params)
        gram = gram_matrix(basis)
        checks.append(
            (f"gram residual at {params}", float(np.abs(gram - np.eye(4)).max()), 1e-10)
        )
        closed = max(
            abs(gram[j, k] - sjm_overlap_closed_form(j, k, params))
            for j in range(4)
            for k in range(4)
        )
        checks.append((f"closed-form overlap at {params}", float(closed), 1e-12))
    _report(1, "orthonormality", checks)


def test_criterion_2_concurrence():
    checks = []
    for params in GRID:
        worst = max(
            abs(concurrence(s) - 0.5 * abs(math.sin(params.theta)))
            for s in sjm_basis(params)
        )
        checks.append((f"concurrence at {params}", worst, 1e-10))
    endpoint_low = concurrence(sjm_basis(SjmParams(0.0, 0.2))[0])
    endpoint_high = concurrence(sjm_basis(SjmParams(math.pi / 2, 0.2))[0])
    checks.append(("endpoint C(0)", abs(endpoint_low), 1e-10))
    checks.append(("endpoint C(pi/2)", abs(endpoint_high - 0.5), 1e-10))
    family = concurrence(ejm_family_state(THETA_GRID))
    worst_family = max(
        abs(c - ejm_family_concurrence_closed_form(t)) for t, c in zip(THETA_GRID, family.tolist())
    )
    checks.append(("interpolating family curve", worst_family, 1e-10))
    _report(2, "concurrence", checks)


def test_criterion_3_reductions():
    checks = []
    for params in GRID:
        vectors = reduction_vectors(sjm_basis(params))
        worst = max(
            float(
                np.abs(
                    vectors[k, q] - multi_reduction_closed_form(k, params, 2, q)
                ).max()
            )
            for k in range(4)
            for q in (0, 1)
        )
        checks.append((f"closed-form reduction at {params}", worst, 1e-10))
        rotation = max(
            float(
                np.abs(
                    rotation_about_axis(v[0], symmetry_axis(k, params), math.pi) - v[1]
                ).max()
            )
            for k, v in enumerate(vectors)
        )
        checks.append((f"half-turn marginal map at {params}", rotation, 1e-10))
        checks.append((f"zero-sum at {params}", zero_sum_residual(vectors), 1e-10))
    aligned = reduction_vectors(sjm_basis(ejm_aligned()))
    for qubit, expected in ((0, ALIGNED_VERTICES_FIRST), (1, ALIGNED_VERTICES_SECOND)):
        vertices = aligned[:, qubit]
        checks.append(
            (f"aligned vertices qubit {qubit}", float(np.abs(vertices - expected).max()), 1e-10)
        )
        radii = np.linalg.norm(vertices, axis=1)
        checks.append(
            (
                f"aligned circumradius qubit {qubit}",
                float(np.abs(radii - math.sqrt(3) / 2).max()),
                1e-10,
            )
        )
    _report(3, "reductions", checks)


def test_criterion_4_ejm_relation():
    aligned = sjm_basis(ejm_aligned())
    ejm = original_ejm_basis()
    checks = []
    shifted = max(abs(inner(ejm[j], aligned[(j + 1) % 4])) for j in range(4))
    checks.append(("shifted-index orthogonality", float(shifted), 1e-10))
    params = ejm_aligned()
    worst = 0.0
    for j in range(4):
        for k in range(4):
            expected = 0.25 * (
                1.0
                + cos_k_pi(j) * cos_k_pi(k)
                + 2.0j * math.sin(EJM_PHI[j] - params.phi_k(k))
            )
            worst = max(worst, abs(inner(ejm[j], aligned[k]) - expected))
    checks.append(("cross inner-product closed form", float(worst), 1e-12))
    _report(4, "ejm-relation", checks)


def test_criterion_5_circuit():
    checks = []
    for params in GRID:
        report = verify_discrimination(build_sjm_circuit(params))
        distinct = 0.0 if report.targets_distinct else 1.0
        checks.append((f"distinct targets at {params}", distinct, 0.5))
        checks.append(
            (f"overlap magnitude at {params}", report.max_magnitude_error, 1e-8)
        )
    aligned = ejm_aligned()
    circuit = build_sjm_circuit(aligned)
    worst_sign = 0.0
    for k, state in enumerate(sjm_basis(aligned)):
        out = circuit.apply(state)
        expected = EXPECTED_SIGNS[k] * ket(format(EXPECTED_TARGETS[k], "02b"))
        worst_sign = max(worst_sign, float(np.abs(out - expected).max()))
    checks.append(("aligned signed mapping", worst_sign, 1e-8))
    idle_phase = gate_matrix(GateKind.CRPHASE, (math.pi / 2 - aligned.theta,))
    idle_rx = gate_matrix(GateKind.CRX, (math.pi / 2 - 2 * aligned.phi,))
    checks.append(
        ("parameterized gates idle", float(
            max(np.abs(idle_phase - np.eye(4)).max(), np.abs(idle_rx - np.eye(4)).max())
        ), 1e-12)
    )
    _report(5, "circuit", checks)


def test_criterion_6_network():
    checks = []
    for theta in THETA_GRID:
        for phi in (math.pi / 3, -math.pi / 2):
            dist = joint_distribution(SjmParams(theta, phi))
            worst = max(
                abs(dist[a, b, c] - closed_form_probability(a, b, c, theta))
                for a in range(4)
                for b in range(4)
                for c in range(4)
            )
            checks.append((f"three-case closed form at theta={theta}, phi={phi}", worst, 1e-10))
            checks.append((f"total at theta={theta}, phi={phi}", abs(dist.sum() - 1), 1e-10))
            checks.append(
                (f"permutation symmetry at theta={theta}, phi={phi}",
                 permutation_residual(dist), 1e-10)
            )
            p_same = float(np.einsum("kkk->", dist))
            checks.append(
                (
                    f"equal-outcome rate at theta={theta}",
                    abs(p_same - (4 + 21 * math.sin(theta) ** 2) / 64),
                    1e-10,
                )
            )
    aligned = joint_distribution(ejm_aligned())
    values = np.sort(aligned.ravel())
    expected = np.concatenate([np.full(36, 1 / 256), np.full(24, 5 / 256), np.full(4, 25 / 256)])
    checks.append(("aligned outcome spectrum", float(np.abs(values - expected).max()), 1e-10))
    uniform = joint_distribution(SjmParams(0.0, 0.6))
    checks.append(("product-point uniformity", float(np.abs(uniform - 1 / 64).max()), 1e-10))
    thetas = np.linspace(0.0, math.pi / 2, 64)
    p_same, violates = nonlocality_scan(thetas)
    flags = violates.tolist()
    first = flags.index(True)
    step = float(thetas[1] - thetas[0])
    bracket_error = float(thetas[first]) - threshold_theta()
    checks.append(("scan brackets threshold (above)", bracket_error, step))
    checks.append(("scan brackets threshold (below)", -bracket_error, 0.0))
    checks.append(
        ("below-threshold points stay bounded", max(
            (p - TRILOCAL_BOUND) for p in p_same[:first].tolist()
        ), 0.0)
    )
    _report(6, "network", checks)


def test_criterion_7_multiqubit():
    checks = []
    for theta, phi in [(0.7, 0.3), (math.pi / 2, math.pi / 4), (0.0, -1.0)]:
        params = SjmParams(theta, phi)
        for n in (4, 6):
            basis = multi_sjm_basis(n, params)
            gram = np.array(
                [[inner(a, b) for b in basis] for a in basis]
            )
            checks.append(
                (
                    f"n={n} gram at theta={theta}, phi={phi}",
                    float(np.abs(gram - np.eye(len(basis))).max()),
                    1e-10,
                )
            )
    for params in GRID:
        two = sjm_basis(params)
        multi_two = multi_sjm_basis(2, params)
        match = max(
            float(np.abs(a - b).max()) for a, b in zip(two, multi_two)
        )
        checks.append((f"pairwise construction match at {params}", match, 1e-12))
    reduction_points = {
        2: GRID,
        4: [SjmParams(t, math.pi / 3) for t in THETA_GRID],
        6: [SjmParams(0.0, 0.5), SjmParams(0.9, -2.1), ejm_aligned()],
    }
    for n, point_list in reduction_points.items():
        for params in point_list:
            basis = multi_sjm_basis(n, params)
            worst = max(
                float(
                    np.abs(
                        multi_reduction_vector(basis, ks, position)
                        - multi_reduction_closed_form(
                            ks[position // 2], params, n, position
                        )
                    ).max()
                )
                for ks in np.ndindex((4,) * (n // 2))
                for position in range(n)
            )
            checks.append((f"n={n} reductions at {params}", worst, 1e-10))
    # Unmixed point: states factor, so every sourced pair carries no
    # entanglement.  The spin-flip concurrence of a pure product pair has a
    # sqrt-of-epsilon noise floor, hence the 1e-8 gate.
    yy = np.kron(PAULI_Y, PAULI_Y)
    worst_pair = 0.0
    basis = multi_sjm_basis(4, SjmParams(0.0, 0.8))
    for state in basis:
        for pair in (0, 1):
            rho = partial_trace(state, (2 * pair, 2 * pair + 1))
            rho_tilde = yy @ rho.conj() @ yy
            lam = np.sqrt(np.clip(np.linalg.eigvals(rho @ rho_tilde).real, 0.0, None))
            lam = np.sort(lam)[::-1]
            worst_pair = max(worst_pair, float(lam[0] - lam[1:].sum()))
    checks.append(("unmixed pair concurrence", worst_pair, 1e-8))
    _report(7, "multiqubit", checks)


def test_criterion_8_cross_oracle():
    rng = np.random.default_rng(CROSS_ORACLE_SEED)
    psi = triangle_state().reshape(4, 4, 4)
    checks = []
    for _ in range(10):
        params = SjmParams(
            float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(-math.pi, math.pi))
        )
        m = np.array(sjm_basis(params))
        amps = np.einsum("ja,kb,lc,abc->jkl", m.conj(), m.conj(), m.conj(), psi)
        worst = max(
            abs(amps[j, k, l] - amplitude_closed_form(j, k, l, params))
            for j in range(4)
            for k in range(4)
            for l in range(4)
        )
        checks.append((f"amplitude closed form at {params}", float(worst), 1e-10))
    _report(8, "cross-oracle", checks)
