"""Exact counting, density and verification toolkit for rank-metric
codes, finite semifields and subspace-avoidance problems over small
finite fields.

Everything is exact: counts are Python big ints, densities are Fractions,
and every closed formula ships with a brute-force oracle it is tested
against.  See the README for the CLI (`rankmetric formula/verify/table`)
and the acceptance suite.
"""

from .errors import BudgetExceededError, FieldSizeError
from .fields import FiniteField, make_ext_field, make_field
from .linpoly import LinearizedPoly
from .qcomb import (
    AsymptoticEstimate,
    alt_exp_sum,
    ball_size,
    binom,
    comparison_inequality_check,
    gl_order,
    matrix_rank_count,
    pi_q,
    pi_q_limit,
    pointset_size,
    qbinom,
)
from .codes import (
    DensityResult,
    Grassmannian,
    MatrixCode,
    asymptotic_constants,
    density_3x3_formula,
    density_bruteforce,
    spectrum_free_identity_check,
    kantor_lowerbound,
    mrd_lowerbound_formula,
    spectrum_free_count,
)
from .semifield import (
    LinPolyCode,
    Semifield,
    TwistedFieldSpec,
    aut_group_size_bruteforce,
    c0_code,
    class_count_formula,
    code_to_semifield,
    equiv_to_c0_predicate,
    idealizers,
    is_equivalent_bruteforce,
    normalize_contains_x,
    nuclei,
    semifield_to_code,
    twisted_class_census,
    twisted_code,
    valid_twisted_specs,
)
from .critical import (
    BlockCode,
    PointSet,
    avg_density_exhaustive,
    avg_density_formula,
    avg_density_rank_formula,
    code_from_pointset,
    delta_bruteforce,
    distinguishes,
    hyperplane_density_via_weights,
    lambda_count,
    lambda_exhaustive,
    mds_arc_density,
    moment_curve_arc,
    rank_average_table,
    rank_ball_pointset,
    weight_distribution,
)
from .restricted import (
    ambient_dim,
    ball_asymptotic_exponent,
    density_2dim_formula,
    dim_bound,
    rank_count,
    rank_distribution_exhaustive,
    restricted_density_bruteforce,
    sparseness_exponent,
    tensor_ratio,
)

__version__ = "0.1.0"
