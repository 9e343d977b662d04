"""Analysis of finite metric spaces of (strict) p-negative type.

The package certifies negative type spectrally, computes the exact gap by
sign-vector maximization, evaluates closed-form and spectral bounds on it,
implements the bridged-union (glueing) algebra, and runs the full
ultrametric pipeline (decomposition, recursive bounds, coteries, and the
large-exponent limit).
"""

from .bounds import (
    AveragingIdentity,
    DiameterBound,
    GapBounds,
    XiResult,
    averaging_identity,
    gamma_discrete,
    gamma_xi,
    spectral_bounds,
    upper_bound_diameter,
    upper_bound_mean,
    xi_enlargement,
)
from .gap import (
    Classification,
    GapMethod,
    GapResult,
    NegTypeCertificate,
    OracleResult,
    certify,
    gap_definition_check,
    gap_exact,
    gap_numeric_oracle,
    hat_matrix,
)
from .glue import (
    GlueClassification,
    GlueGapBounds,
    GlueSpec,
    GlueTypeResult,
    GluedHatForm,
    glue_gap_bounds,
    glue_spaces,
    glue_type_condition,
    glued_hat_form,
    glued_inverse,
)
from .metric import (
    FiniteMetricSpace,
    PDistanceMatrix,
    SpaceStats,
    WeightedGraph,
    build_graph,
    discrete_space,
    is_ultrametric,
    p_distance_matrix,
    parse_edge_list_text,
    parse_matrix_text,
    scale_space,
    space_stats,
    ultrametric_from_graph,
    validate_metric,
)
from .spectral import Spectrum, sym_eigen
from .ultrametric import (
    CoterieSet,
    RecursiveGapBounds,
    UltrametricDiagnostics,
    UltrametricTree,
    asymptotic_gap_limit,
    coteries,
    decompose,
    mp_ultrametric_properties,
    recursive_gap_bounds,
    strictly_ultrametric_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
