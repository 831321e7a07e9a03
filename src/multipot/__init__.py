"""Numerical multilinear potential operators, Orlicz cube norms, dyadic
decompositions and weighted-inequality verification harnesses."""

__version__ = "0.1.0"

from .grid import Cube, Grid, GridFunction, cube_family, integrate, make_grid
from .kernels import (
    AnnulusSpec,
    Kernel,
    annulus_integral,
    bar_phi,
    condition_d_check,
    eval_kernel,
    h_alpha,
    kernel_cell_value,
    parse_kernel,
    phi_theta,
    tilde_phi,
)
from .operators import (
    PhiScaling,
    apply_commutator,
    apply_potential,
    apply_potential_reference,
    maximal,
    maximal_single,
)
from .orlicz import (
    NormSpec,
    YoungFunction,
    holder_check,
    luxemburg_norm,
    luxemburg_norms,
    parse_norm_spec,
    young_eval,
    young_inverse,
)
from .dyadic import (
    CZDecomposition,
    DyadicLattice,
    cz_decompose,
    default_cz_base,
    discretization_rhs,
    dyadic_tail_check,
    m3d,
)
from .weights import (
    bmo_norm,
    gen_bmo_log,
    gen_power_weight,
    parse_weight,
    rh_check,
    rh_inf_check,
)
from .verify import (
    HypothesisUnmet,
    InequalityReport,
    TestingCondition,
    lorentz_weak_quasinorm,
    make_corpus,
    remark_bundle,
    testing_condition_W,
    verify_coifman,
    verify_control,
    verify_fefferman_stein,
    verify_ftd,
    verify_strong,
    verify_weak_maximal,
)
