"""Parameterized symmetric two-qubit joint measurement and friends.

Construct the four-state entangled measurement basis controlled by two
angles, verify its symmetry and entanglement properties, simulate the
circuit that discriminates it, reproduce the triangle-network outcome
statistics it generates, and build its even-n multiqubit generalization.
"""
from .analysis import (
    concurrence,
    multi_reduction_closed_form,
    rotation_symmetry_residual,
    sjm_concurrence_closed_form,
    zero_sum_residual,
)
from .bases import (
    EJM_PHI,
    PHI_OFFSETS,
    SjmParams,
    bell_psi_plus,
    component_states,
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
from .circuit import (
    build_sjm_circuit,
    verify_discrimination,
)
from .linalg import (
    inner,
    ket,
    tensor,
)
from .multiqubit import (
    aux_state,
    multi_gram_bound,
    multi_reduction_vectors,
    multi_sjm_basis,
)
from .network import (
    TRILOCAL_BOUND,
    closed_form_probability,
    joint_distribution,
    nonlocality_scan,
)
