"""Exact proofs, with theta and phi as sympy symbols, of the closed forms the
certificate rests on.  For every state k = 0..3:

- the symmetrized product of the component pair, built from the
  `component_states` formula, equals `sjm_state_closed_form`;
- the two components overlap by exactly <m_{k,0}|m_{k,1}> = 1/sqrt(2);
- the state has concurrence |sin theta|/2 (`sjm_concurrence_closed_form`);
- <state_j|state_k> is `sjm_overlap_closed_form` for every j.

And the EJM family state `ejm_family_state(theta)` has concurrence
(1/2) sqrt(1 + 3 sin^2 theta).

The n-qubit Gram matrix is A^{(x)P} = I, for P = n/2 pairs and
A = conj(F) F^T: for eight generic 2-vectors m_{k,s}, with F, S the pair
matrices and alpha, beta any weights,

- B = conj(S) S^T equals A, and C = conj(F) S^T is Hermitian;
- one pair's Gram matrix is |alpha|^2 A + |beta|^2 B + conj(alpha) beta C
  + alpha conj(beta) C^H (the Kronecker mixed-product rule lifts it to P
  pairs);

and for the SJM weights alpha, beta = (1 +- e^{i theta})/2,
|alpha|^2 + |beta|^2 = 1 and conj(alpha) beta + alpha conj(beta) = 0.
For the SJM components, m_{k,s}(phi) = diag(e^{-i phi/2}, e^{i phi/2})
m_{k,s}(0), so no overlap of two components depends on phi, and at phi = 0
every entry of A is delta_jk.  Also exact: the two states of each auxiliary
pair `aux_state` are orthogonal, and the pair rows f_k, s_k of F and S have
<f_k|f_k> = <s_k|s_k> = 1 and <s_k|f_k> = 1/2.

The two-qubit reductions `verify` reads come from the pair rows alone: for
every k, the one-pair operator |alpha|^2 |f_k><f_k| + |beta|^2 |s_k><s_k| +
(alpha conj(beta) |f_k><s_k| + h.c.), traced down to either qubit, has the
Pauli expectations of `multi_reduction_closed_form(k, params, 2, qubit)`.
That proof runs in u = e^{i theta} and h = e^{i phi/2}, where both sides are
Laurent polynomials, so it holds for every real theta and phi.

Each formula restated here is tied to the function it restates by
evaluating both at random points, and each proof fails once one of its
coefficients slips by 1/64.
"""
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sjm.analysis import concurrence, multi_reduction_closed_form, sjm_concurrence_closed_form
from sjm.bases import (PHI_OFFSETS, SjmParams, component_states, ejm_family_state,
                       pair_matrices, sjm_overlap_closed_form, sjm_state, sjm_state_closed_form)
from sjm.linalg import inner
from sjm.multiqubit import aux_state, multi_reduction_vectors

from oracles import ejm_family_concurrence_closed_form

THETA, PHI = sp.symbols("theta phi", real=True)
HALF = sp.Rational(1, 2)
# phi_k - phi for k = 0..3, exactly: `PHI_OFFSETS` as multiples of pi.
OFFSETS = (sp.Integer(0), sp.pi / 2, sp.pi, -sp.pi / 2)


def direction(k: int, sign: int) -> sp.Matrix:
    """The direction pair of `component_states`, s = sign:
    (sqrt(1 + s ck) e^{-i phi_k/2}, s sqrt(1 - s ck) e^{i phi_k/2}) / sqrt 2."""
    ck = (-1) ** k
    half_phase = sp.exp(sp.I * (PHI + OFFSETS[k]) / 2)
    return sp.Matrix([sp.sqrt(1 + sign * ck) / half_phase,
                      sign * sp.sqrt(1 - sign * ck) * half_phase]) / sp.sqrt(2)


def component(k: int, slot: int) -> sp.Matrix:
    """`component_states` at [k, slot]: ((1 + w) |+> + (1 + conj w) |->) /
    sqrt(4 + 2 sqrt 2), w = e^{-+ i pi/4} for slot 0, 1."""
    w = sp.exp((1 if slot else -1) * sp.I * sp.pi / 4)
    return ((1 + w) * direction(k, 1) + (1 + sp.conjugate(w)) * direction(k, -1)) / sp.sqrt(
        4 + 2 * sp.sqrt(2))


def _kron(a: sp.Matrix, b: sp.Matrix) -> sp.Matrix:
    return sp.Matrix([x * y for x in a for y in b])


def symmetrized(k: int, half: sp.Expr = HALF) -> sp.Matrix:
    """`sjm_state`: half ((1 + e^{i theta}) m0 (x) m1 + (1 - e^{i theta}) m1 (x) m0)."""
    mix = sp.exp(sp.I * THETA)
    m0, m1 = component(k, 0), component(k, 1)
    return half * ((1 + mix) * _kron(m0, m1) + (1 - mix) * _kron(m1, m0))


def closed_form(k: int) -> sp.Matrix:
    """`sjm_state_closed_form`: (1/2) (e^{-i phi_k}, -r_minus, -r_plus, e^{i phi_k})."""
    ck = (-1) ** k
    phase = sp.exp(sp.I * (PHI + OFFSETS[k]))
    spin = sp.I * sp.exp(sp.I * THETA)
    r_plus, r_minus = (ck + spin) / sp.sqrt(2), (ck - spin) / sp.sqrt(2)
    return HALF * sp.Matrix([1 / phase, -r_minus, -r_plus, phase])


def overlap(k: int) -> sp.Expr:
    return (component(k, 0).H * component(k, 1))[0]


def concurrence_squared(state: sp.Matrix) -> sp.Expr:
    """`concurrence`, squared: (2 |det M|)^2 for the amplitude matrix M."""
    det = state[0] * state[3] - state[1] * state[2]
    return 4 * det * sp.conjugate(det)


def sjm_concurrence(quarter: sp.Expr = HALF**2) -> sp.Expr:
    """`sjm_concurrence_closed_form`, squared: sin^2(theta) / 4."""
    return quarter * sp.sin(THETA) ** 2


def family_state() -> sp.Matrix:
    """`ejm_family_state`:
    ((sqrt 3 + e^{i theta}) |01> + (sqrt 3 - e^{i theta}) |10>) / (2 sqrt 2)."""
    mix = sp.exp(sp.I * THETA)
    return sp.Matrix([0, sp.sqrt(3) + mix, sp.sqrt(3) - mix, 0]) / (2 * sp.sqrt(2))


def family_concurrence(three: sp.Expr = sp.Integer(3)) -> sp.Expr:
    """`ejm_family_concurrence_closed_form`, squared: (1 + 3 sin^2 theta) / 4."""
    return (1 + three * sp.sin(THETA) ** 2) / 4


def state_overlap(j: int, k: int, two: sp.Expr = sp.Integer(2)) -> sp.Expr:
    """`sjm_overlap_closed_form`: (1 + 2 cos(phi_k - phi_j) + cos(j pi) cos(k pi)) / 4."""
    return (1 + two * sp.cos(OFFSETS[k] - OFFSETS[j]) + (-1) ** j * (-1) ** k) / 4


def _is_zero(expr: sp.Expr) -> bool:
    """Whether expr is identically zero in theta and phi, decided exactly."""
    return sp.simplify(sp.expand(sp.expand_complex(expr))) == 0


def test_offsets_are_the_codes():
    assert tuple(float(offset) for offset in OFFSETS) == PHI_OFFSETS


@pytest.mark.parametrize("k", range(4))
def test_symmetrized_components_equal_the_closed_form(k):
    assert all(_is_zero(entry) for entry in symmetrized(k) - closed_form(k))


@pytest.mark.parametrize("k", range(4))
def test_components_overlap_by_one_over_root_two(k):
    assert _is_zero(overlap(k) - 1 / sp.sqrt(2))


@pytest.mark.parametrize("k", range(4))
def test_sjm_concurrence_is_half_sin_theta(k):
    # Both sides are >= 0, so equal squares prove 2 |det M| = |sin theta| / 2.
    assert _is_zero(concurrence_squared(closed_form(k)) - sjm_concurrence())


def test_ejm_family_concurrence():
    assert _is_zero(concurrence_squared(family_state()) - family_concurrence())


@pytest.mark.parametrize("j", range(4))
def test_state_overlaps_are_the_overlap_closed_form(j):
    for k in range(4):
        assert _is_zero((closed_form(j).H * closed_form(k))[0] - state_overlap(j, k))


def generic_pairs() -> tuple[sp.Matrix, sp.Matrix]:
    """F and S of eight generic complex 2-vectors m_{k,s}: any component states."""
    m = [[sp.Matrix(sp.symbols(f"m{k}{slot}_:2")) for slot in (0, 1)] for k in range(4)]
    return (sp.Matrix([list(_kron(m0, m1)) for m0, m1 in m]),
            sp.Matrix([list(_kron(m1, m0)) for m0, m1 in m]))


def overlap_matrices() -> tuple[sp.Matrix, sp.Matrix, sp.Matrix]:
    """(A, B, C) = (conj(F) F^T, conj(S) S^T, conj(F) S^T) of `generic_pairs`."""
    forward, swapped = generic_pairs()
    return (forward.conjugate() * forward.T, swapped.conjugate() * swapped.T,
            forward.conjugate() * swapped.T)


def _vanishes(matrix: sp.Matrix) -> bool:
    """Whether every entry, a polynomial in generic symbols and their
    conjugates, is identically zero."""
    return all(sp.expand(entry) == 0 for entry in matrix)


def swapped_overlap_gap(one: sp.Expr = sp.Integer(1)) -> sp.Matrix:
    """B - A."""
    overlaps, swapped, _ = overlap_matrices()
    return swapped - one * overlaps


def cross_overlap_gap(one: sp.Expr = sp.Integer(1)) -> sp.Matrix:
    """C - C^H."""
    cross = overlap_matrices()[2]
    return cross - one * cross.H


def one_pair_gram_gap(cross_weight: sp.Expr = sp.Integer(1)) -> sp.Matrix:
    """G - (|alpha|^2 A + |beta|^2 B + conj(alpha) beta C + alpha conj(beta) C^H)
    for the states alpha F + beta S, alpha and beta generic."""
    alpha, beta = sp.symbols("alpha beta")
    forward, swapped = generic_pairs()
    states = alpha * forward + beta * swapped
    overlaps, swapped_overlaps, cross = overlap_matrices()
    expansion = (alpha * sp.conjugate(alpha) * overlaps
                 + beta * sp.conjugate(beta) * swapped_overlaps
                 + cross_weight * sp.conjugate(alpha) * beta * cross
                 + alpha * sp.conjugate(beta) * cross.H)
    return states.conjugate() * states.T - expansion


def weight_gaps(one: sp.Expr = sp.Integer(1)) -> tuple[sp.Expr, sp.Expr]:
    """|alpha|^2 + |beta|^2 - 1 and conj(alpha) beta + alpha conj(beta) for
    alpha, beta = (1 +- e^{i theta}) / 2, the weights of F and S in `_symmetrize`."""
    mix = sp.exp(sp.I * THETA)
    alpha, beta = HALF * (1 + mix), HALF * (one - mix)
    return (alpha * sp.conjugate(alpha) + beta * sp.conjugate(beta) - 1,
            sp.conjugate(alpha) * beta + alpha * sp.conjugate(beta))


def phase_gap(k: int, slot: int, half: sp.Expr = HALF) -> sp.Matrix:
    """m_{k,s}(phi) - diag(e^{-i phi/2}, e^{i phi/2}) m_{k,s}(0)."""
    turn = sp.diag(sp.exp(-sp.I * half * PHI), sp.exp(sp.I * half * PHI))
    return component(k, slot) - turn * component(k, slot).subs(PHI, 0)


def identity_gaps(one: sp.Expr = sp.Integer(1)) -> list[sp.Expr]:
    """A[j, k] - delta_jk at phi = 0 for the 10 entries j <= k (A is Hermitian),
    A[j, k] = <m_{j,0}|m_{k,0}> <m_{j,1}|m_{k,1}>."""
    m = {(k, slot): component(k, slot).subs(PHI, 0) for k in range(4) for slot in (0, 1)}
    return [(m[j, 0].H * m[k, 0])[0] * (m[j, 1].H * m[k, 1])[0] - (one if j == k else 0)
            for j in range(4) for k in range(j, 4)]


def _is_algebraic_zero(expr: sp.Expr) -> bool:
    """Whether a constant built from radicals and e^{i pi/4} is exactly 0: its
    minimal polynomial is x."""
    x = sp.Symbol("x")
    return sp.minimal_polynomial(sp.expand_complex(expr), x) == x


def aux(which: int, sign: int, one: sp.Expr = sp.Integer(1)) -> sp.Matrix:
    """`aux_state`: ((1 + w)/h, sign (1 + conj w) h) / sqrt(4 + 2 sqrt 2),
    w = e^{+- i pi/4} for which = 1, 0, h = e^{i phi/2}."""
    w = sp.exp((1 if which else -1) * sp.I * sp.pi / 4)
    half_phase = sp.exp(sp.I * PHI / 2)
    return sp.Matrix([(one + w) / half_phase,
                      sign * (1 + sp.conjugate(w)) * half_phase]) / sp.sqrt(4 + 2 * sp.sqrt(2))


def pair_rows(k: int) -> tuple[sp.Matrix, sp.Matrix]:
    """Row k of F and of S: f_k = m_{k,0} (x) m_{k,1}, s_k = m_{k,1} (x) m_{k,0}."""
    m0, m1 = component(k, 0), component(k, 1)
    return _kron(m0, m1), _kron(m1, m0)


def pair_overlaps(k: int) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """<f_k|f_k>, <s_k|s_k> and <s_k|f_k>."""
    forward, swapped = pair_rows(k)
    return ((forward.H * forward)[0], (swapped.H * swapped)[0], (swapped.H * forward)[0])


PAULIS = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
          sp.Matrix([[1, 0], [0, -1]]))
# u = e^{i theta} and h = e^{i phi/2}: on the unit circle conj(u) = 1/u and
# conj(h) = 1/h, and every formula below is a Laurent polynomial in u and h.
U, H = sp.symbols("u h", nonzero=True)
ON_CIRCLE = {THETA: -sp.I * sp.log(U), PHI: -2 * sp.I * sp.log(H)}


def _conj(expr: sp.Expr) -> sp.Expr:
    return sp.conjugate(expr).xreplace({sp.conjugate(U): 1 / U, sp.conjugate(H): 1 / H})


def pair_reduction(k: int, qubit: int, cross: sp.Expr = sp.Integer(1)) -> list[sp.Expr]:
    """Pauli expectations (x, y, z), on one qubit of the pair, of the P = 1
    operator of `_reduction_vectors`: |alpha|^2 |f_k><f_k| + |beta|^2 |s_k><s_k|
    + (alpha conj(beta) |f_k><s_k| + h.c.), alpha, beta = (1 +- u)/2, in u and h.
    The components are m_{k,s}(phi) = diag(1/h, h) m_{k,s}(0), as
    `test_components_turn_with_phi` proves."""
    alpha, beta = HALF * (1 + U), HALF * (1 - U)
    m0, m1 = (sp.diag(1 / H, H) * component(k, slot).subs(PHI, 0) for slot in (0, 1))
    forward, swapped = _kron(m0, m1), _kron(m1, m0)

    def outer(x: sp.Matrix, y: sp.Matrix) -> sp.Matrix:
        return x * y.applyfunc(_conj).T

    mixed = alpha * _conj(beta) * outer(forward, swapped)
    operator = (alpha * _conj(alpha) * outer(forward, forward)
                + beta * _conj(beta) * outer(swapped, swapped)
                + cross * (mixed + mixed.applyfunc(_conj).T))
    # Index 2a + c is (first qubit a, second qubit c): trace out the other one.
    at = (lambda a, b, c: operator[2 * a + c, 2 * b + c]) if qubit == 0 else (
        lambda a, b, c: operator[2 * c + a, 2 * c + b])
    rho = sp.Matrix(2, 2, lambda a, b: at(a, b, 0) + at(a, b, 1))
    return [(rho * pauli).trace() for pauli in PAULIS]


def _is_laurent_zero(expr: sp.Expr) -> bool:
    """Whether expr, in u and h, is identically zero: every coefficient of its
    numerator, a constant built from radicals and e^{i pi/4}, is exactly 0."""
    numerator = sp.fraction(sp.together(sp.expand(expr)))[0]
    return all(_is_algebraic_zero(c) for c in sp.Poly(sp.expand(numerator), U, H).coeffs())


def _on_circle(expr: sp.Expr) -> sp.Expr:
    """expr, a function of theta and phi, in u and h."""
    return sp.expand(expr.rewrite(sp.exp).subs(ON_CIRCLE), power_exp=True)


def reduction_closed_form(k: int, qubit: int) -> list[sp.Expr]:
    """`multi_reduction_closed_form(k, params, 2, qubit)`, sign = +1 on qubit 0
    and -1 on qubit 1:
    ((-ck cos phi_k + sign cos theta sin phi_k) / sqrt 2,
     (-ck sin phi_k - sign cos theta cos phi_k) / sqrt 2, sign ck sin theta / 2)."""
    ck, sign = (-1) ** k, 1 - 2 * qubit
    phik = PHI + OFFSETS[k]
    return [(-ck * sp.cos(phik) + sign * sp.cos(THETA) * sp.sin(phik)) / sp.sqrt(2),
            (-ck * sp.sin(phik) - sign * sp.cos(THETA) * sp.cos(phik)) / sp.sqrt(2),
            sign * ck * sp.sin(THETA) / 2]


def test_swapped_overlaps_are_the_forward_overlaps():
    assert _vanishes(swapped_overlap_gap())


def test_cross_overlaps_are_hermitian():
    assert _vanishes(cross_overlap_gap())


def test_one_pair_gram_expansion():
    assert _vanishes(one_pair_gram_gap())


def test_sjm_weights_sum_to_one_and_their_cross_term_vanishes():
    assert all(_is_zero(gap) for gap in weight_gaps())


@pytest.mark.parametrize("k", range(4))
def test_components_turn_with_phi(k):
    # diag(e^{-i phi/2}, e^{i phi/2}) is unitary for real phi, so every overlap
    # of two components, and so A, is the same at every phi as at phi = 0.
    assert all(sp.expand(entry) == 0 for slot in (0, 1) for entry in phase_gap(k, slot))


def test_pair_overlap_matrix_is_the_identity():
    assert all(_is_algebraic_zero(gap) for gap in identity_gaps())


@pytest.mark.parametrize("which", (0, 1))
def test_aux_pairs_are_orthogonal(which):
    assert _is_zero((aux(which, +1).H * aux(which, -1))[0])


@pytest.mark.parametrize("k", range(4))
def test_pair_rows_overlap_by_one_one_and_one_half(k):
    assert [_is_zero(value - expected)
            for value, expected in zip(pair_overlaps(k), (1, 1, HALF))] == [True] * 3


@pytest.mark.parametrize("qubit", (0, 1))
@pytest.mark.parametrize("k", range(4))
def test_pair_reduction_is_the_closed_form(k, qubit):
    assert [_is_laurent_zero(value - _on_circle(expected)) for value, expected
            in zip(pair_reduction(k, qubit), reduction_closed_form(k, qubit))] == [True] * 3


SLIP = sp.Rational(1, 64)


def test_a_wrong_coefficient_fails_the_proof():
    wrong = symmetrized(0, half=HALF + SLIP)
    assert not all(_is_zero(entry) for entry in wrong - closed_form(0))


@pytest.mark.parametrize("proven, wrong", [
    (lambda: concurrence_squared(closed_form(0)), lambda: sjm_concurrence(HALF**2 + SLIP)),
    (lambda: concurrence_squared(family_state()), lambda: family_concurrence(3 + SLIP)),
    (lambda: (closed_form(0).H * closed_form(2))[0], lambda: state_overlap(0, 2, 2 + SLIP)),
], ids=["sjm_concurrence", "ejm_family_concurrence", "overlap"])
def test_a_wrong_coefficient_fails_each_closed_form_proof(proven, wrong):
    assert not _is_zero(proven() - wrong())


@pytest.mark.parametrize("gap", [
    lambda: swapped_overlap_gap(1 + SLIP),
    lambda: cross_overlap_gap(1 + SLIP),
    lambda: one_pair_gram_gap(1 + SLIP),
], ids=["swapped_overlaps", "hermitian_cross", "one_pair_expansion"])
def test_a_wrong_coefficient_fails_each_generic_proof(gap):
    assert not _vanishes(gap())


def test_a_wrong_coefficient_fails_the_weight_proofs():
    assert [_is_zero(gap) for gap in weight_gaps(1 + SLIP)] == [False, False]


def test_a_wrong_coefficient_fails_the_phase_and_identity_proofs():
    assert not all(sp.expand(entry) == 0 for entry in phase_gap(1, 0, HALF + SLIP))
    assert not all(_is_algebraic_zero(gap) for gap in identity_gaps(1 + SLIP))


def test_a_wrong_coefficient_fails_the_pair_reduction_proof():
    # The cross term alpha conj(beta) = i sin(theta)/2 carries the out-of-plane
    # component, +-cos(k pi) sin(theta)/2.
    assert not _is_laurent_zero(pair_reduction(1, 0, 1 + SLIP)[2]
                                - _on_circle(reduction_closed_form(1, 0)[2]))


def test_a_wrong_coefficient_fails_the_aux_and_pair_overlap_proofs():
    assert not _is_zero((aux(0, +1, 1 + SLIP).H * aux(0, -1, 1 + SLIP))[0])
    assert [_is_zero(value - expected) for value, expected
            in zip(pair_overlaps(2), (1 + SLIP, 1 + SLIP, HALF + SLIP))] == [False] * 3


def _numeric(expr):
    return sp.lambdify((THETA, PHI), expr, "numpy")


def _pair_overlaps_of(params: SjmParams, k: int) -> list[complex]:
    forward, swapped = pair_matrices(params)
    return [inner(forward[k], forward[k]), inner(swapped[k], swapped[k]),
            inner(swapped[k], forward[k])]


# Each restated formula, as a function of (theta, phi), beside the code it restates.
PAIRS = [
    *((_numeric(component(k, slot)), lambda p, k=k, slot=slot: component_states(p)[k, slot])
      for k in range(4) for slot in (0, 1)),
    *((_numeric(symmetrized(k)), lambda p, k=k: sjm_state(k, p)) for k in range(4)),
    *((_numeric(closed_form(k)), lambda p, k=k: sjm_state_closed_form(k, p)) for k in range(4)),
    *((_numeric(overlap(k)), lambda p, k=k: inner(*component_states(p)[k])) for k in range(4)),
    *((_numeric(sp.sqrt(concurrence_squared(closed_form(k)))),
       lambda p, k=k: concurrence(sjm_state_closed_form(k, p))) for k in range(4)),
    (_numeric(sp.Abs(sp.sin(THETA)) / 2), lambda p: sjm_concurrence_closed_form(p.theta)),
    (_numeric(family_state()), lambda p: ejm_family_state(p.theta)),
    (_numeric(sp.sqrt(concurrence_squared(family_state()))),
     lambda p: concurrence(ejm_family_state(p.theta))),
    (_numeric(sp.sqrt(family_concurrence())),
     lambda p: ejm_family_concurrence_closed_form(p.theta)),
    *((_numeric(state_overlap(j, k)), lambda p, j=j, k=k: sjm_overlap_closed_form(j, k, p))
      for j in range(4) for k in range(4)),
    *((_numeric(aux(which, sign)), lambda p, which=which, sign=sign: aux_state(which, sign, p.phi))
      for which in (0, 1) for sign in (1, -1)),
    *((_numeric(pair_rows(k)[i]), lambda p, k=k, i=i: pair_matrices(p)[i][k])
      for k in range(4) for i in (0, 1)),
    *((_numeric(sp.Matrix(pair_overlaps(k))), lambda p, k=k: _pair_overlaps_of(p, k))
      for k in range(4)),
    *((_numeric(sp.Matrix(reduction_closed_form(k, qubit))),
       lambda p, k=k, qubit=qubit: multi_reduction_closed_form(k, p, 2, qubit))
      for k in range(4) for qubit in (0, 1)),
]


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
def test_restated_formulas_evaluate_to_the_code(theta, phi):
    params = SjmParams(theta, phi)
    for restated, code in PAIRS:
        expected = np.asarray(restated(theta, phi), dtype=complex).ravel()
        assert np.abs(expected - code(params)).max() <= 1e-15


# [k, qubit, xyz] as a function of u and h.
PAIR_REDUCTIONS = sp.lambdify((U, H), [[pair_reduction(k, qubit) for qubit in (0, 1)]
                                       for k in range(4)], "numpy")


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
def test_restated_pair_reduction_evaluates_to_the_code(theta, phi):
    # The restatement's long expression rounds more than the code's einsums:
    # its worst distance from them over 3000 random points was 1.1e-15.
    expected = np.asarray(PAIR_REDUCTIONS(np.exp(1j * theta), np.exp(0.5j * phi)), dtype=complex)
    assert np.abs(expected - multi_reduction_vectors(2, SjmParams(theta, phi))).max() <= 2e-15
