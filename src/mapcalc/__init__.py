"""Numerical exp-map charts, C^k topology, and descent on mapping spaces."""

from .atlas import (
    CIRCLE_ATLAS,
    TORUS2_ATLAS,
    Chart,
    DomainAtlas,
    MapFormula,
    SampledMap,
    chart_jet,
    circle_atlas,
    map_sup_distance,
    overlap_residual,
    sample_map,
    torus2_atlas,
)
from .charts import (
    OmegaKernel,
    TaylorData,
    chart_forward,
    chart_inverse,
    default_delta,
    metric_transition,
    omega_apply,
    omega_derivative,
    taylor_identity_residual,
    taylor_remainder,
    thickening_admissible,
    transition,
    transition_derivative,
)
from .energy import (
    DescentTrace,
    descend,
    dirichlet_energy,
    energy_gradient,
    loop_values,
    winding_numbers,
)
from .errors import (
    BaseMismatch,
    BeyondInjectivityRadius,
    ConfigError,
    FiberBoxViolated,
    FormulaOutOfTarget,
    HypothesisViolated,
    MapcalcError,
    ResolutionMismatch,
    StepOutOfChart,
    TargetChartViolated,
    ThickeningViolated,
    TrialAxisUnsupported,
    WellDefinednessViolated,
)
from .gridfn import GridFunction, grid_jet_sup_diff
from .manifolds import (
    ConformalFactor,
    TargetManifold,
    flat_torus,
    inj_radius,
    sphere,
)
from .sections import (
    PullbackSection,
    make_section,
    section_add,
    section_from_formula,
    section_max_diff,
    section_scale,
    section_sup,
)
from .target_charts import SphereCapChart, TorusBranchChart, auto_chart
from .topology import (
    CkCover,
    CkNeighborhood,
    canonical_cover,
    ck_distance,
    composition_bound_probe,
    nbhd_contains,
    neighborhood,
    section_norm,
    witness_ladder,
)
