"""Exact proofs, with theta and phi as sympy symbols, of two closed forms the
certificate rests on.  For every state k = 0..3:

- the symmetrized product of the component pair, built from the
  `direction_state` and `component_state` formulas, equals
  `sjm_state_closed_form`;
- the two components overlap by exactly <m_{k,0}|m_{k,1}> = 1/sqrt(2).

Each formula restated here is tied to the `sjm.bases` function it restates by
evaluating both at random points.
"""
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sjm.bases import (PHI_OFFSETS, SjmParams, component_state, direction_state, sjm_state,
                       sjm_state_closed_form)
from sjm.linalg import inner

THETA, PHI = sp.symbols("theta phi", real=True)
HALF = sp.Rational(1, 2)
# phi_k - phi for k = 0..3, exactly: `PHI_OFFSETS` as multiples of pi.
OFFSETS = (sp.Integer(0), sp.pi / 2, sp.pi, -sp.pi / 2)


def direction(k: int, sign: int) -> sp.Matrix:
    """`direction_state`, s = sign:
    (sqrt(1 + s ck) e^{-i phi_k/2}, s sqrt(1 - s ck) e^{i phi_k/2}) / sqrt 2."""
    ck = (-1) ** k
    half_phase = sp.exp(sp.I * (PHI + OFFSETS[k]) / 2)
    return sp.Matrix([sp.sqrt(1 + sign * ck) / half_phase,
                      sign * sp.sqrt(1 - sign * ck) * half_phase]) / sp.sqrt(2)


def component(k: int, slot: int) -> sp.Matrix:
    """`component_state`: ((1 + w) |+> + (1 + conj w) |->) / sqrt(4 + 2 sqrt 2),
    w = e^{-+ i pi/4} for slot 0, 1."""
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


def test_a_wrong_coefficient_fails_the_proof():
    wrong = symmetrized(0, half=HALF + sp.Rational(1, 64))
    assert not all(_is_zero(entry) for entry in wrong - closed_form(0))


def _numeric(expr):
    return sp.lambdify((THETA, PHI), expr, "numpy")


# Each restated formula, as a function of (theta, phi), beside the code it restates.
PAIRS = [
    *((_numeric(direction(k, sign)), lambda p, k=k, sign=sign: direction_state(k, sign, p))
      for k in range(4) for sign in (1, -1)),
    *((_numeric(component(k, slot)), lambda p, k=k, slot=slot: component_state(k, slot, p))
      for k in range(4) for slot in (0, 1)),
    *((_numeric(symmetrized(k)), lambda p, k=k: sjm_state(k, p)) for k in range(4)),
    *((_numeric(closed_form(k)), lambda p, k=k: sjm_state_closed_form(k, p)) for k in range(4)),
    *((_numeric(overlap(k)),
       lambda p, k=k: inner(component_state(k, 0, p), component_state(k, 1, p))) for k in range(4)),
]


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi, math.pi))
def test_restated_formulas_evaluate_to_the_code(theta, phi):
    params = SjmParams(theta, phi)
    for restated, code in PAIRS:
        expected = np.asarray(restated(theta, phi), dtype=complex).ravel()
        assert np.abs(expected - code(params)).max() <= 1e-15
