"""Numerical multilinear potential operators, Orlicz cube norms, dyadic
decompositions and weighted-inequality verification harnesses."""

__version__ = "0.1.0"

from .grid import Cube, CubeSet, Grid, GridFunction, cube_family, integrate, make_grid
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
)
from .operators import (
    apply_commutator,
    apply_potential,
    apply_potential_reference,
    maximal,
    maximal_corpus,
)
from .orlicz import (
    NormSpec,
    YoungFunction,
    luxemburg_norm,
    luxemburg_norms,
    parse_norm_spec,
)
from .dyadic import (
    CZDecomposition,
    cz_decompose,
    default_cz_base,
    discretization_rhs,
)
from .weights import (
    gen_bmo_log,
    gen_power_weight,
    parse_weight,
    rh_check,
)
from .verify import (
    HypothesisUnmet,
    InequalityReport,
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
