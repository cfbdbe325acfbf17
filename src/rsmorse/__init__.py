"""Lattice hyperbolic Ruijsenaars-Schneider system with a Morse term.

Exact commuting lattice Hamiltonians, their bispectral dual q-difference
operators, the joint eigenpolynomials, orthogonality and Fourier
structure on the alcove, and the factorized scattering matrix, with
every identity exposed as a checkable residual.
"""

from .combinatorics import (
    SignedPermutation,
    dominance_leq,
    eval_E,
    eval_E_l,
    eval_Ehat,
    eval_Ehat_l,
    eval_Eln,
    ideal,
    monomial_eval,
    orbit,
    partitions_max_weight,
)
from .dualop import (
    InvariantPolynomial,
    apply_dual_h_pointwise,
    apply_Hhat_l,
    dual_hl_pointwise,
    matrix_in_monomial_basis,
    vhat,
)
from .errors import (
    DegeneracyError,
    IrregularPointError,
    ParamDomainError,
    PoleError,
    RSMorseError,
    SingularMatrixError,
    StructureError,
    TruncationCapError,
)
from .latticeop import (
    LatticeFunction,
    apply_H,
    apply_Hl,
    commutator_on_delta,
    epsilon0,
    hop_terms,
    morse_vanishing_limit_check,
    ruijsenaars_limit_check,
    v_minus,
    v_plus,
)
from .polynomials import (
    PolynomialFamily,
    build_P,
    leading_coeff,
    normalization_point,
    pieri_residual,
)
from .qcore import (
    ParamSet,
    params_from_hat,
    parse_rational,
    qpoch_finite,
    qpoch_infinite,
)
from .scattering import (
    S_hat,
    S_hat_sorted,
    ScatterPoint,
    apply_H0,
    chi,
    free_eigen_residual,
    s_one,
    s_pair,
    sorting_permutation,
    sqrt_branch_s,
    sqrt_branch_s0,
)
from .spectral import (
    ConjugatedMatrix,
    NormValue,
    QuadSpec,
    conjugated_H_matrix,
    detailed_balance_residual,
    evolve,
    fourier_forward,
    fourier_inverse,
    gram,
    gram_report,
    norm_Delta,
    norm_ratio,
    norm_ratio_step,
    weight,
)

__version__ = "0.1.0"
