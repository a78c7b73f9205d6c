"""regulab: numerical certification of metric subregularity and Aubin-type
stability for finite-dimensional set-valued mappings.

The toolkit cross-validates a hierarchy of primal (slope) and dual
(subdifferential, normal-cone, coderivative) conditions against brute-force
scans of the defining inequalities on grids.
"""

from .ekeland import EvpResult, evp_search
from .errors import (
    DimensionMismatchError,
    EmptySetError,
    InputError,
    NumericError,
    RegulabError,
    ResourceCapError,
)
from .dual import (
    check_coderivative_condition,
    check_normal_cone_condition,
    check_subdifferential_condition,
    dual_candidates,
    subdiff_distance,
)
from .implicit import (
    AubinQuery,
    certify_aubin,
    check_aubin,
    check_recede,
    compose_aubin_rate,
)
from .mappings import (
    ClosedFormMap,
    PolyhedralGraphMap,
    RegularityQuery,
    ScanGrids,
    SetValuedMap,
    hat_reduction,
)
from .oracle import (
    Certificate,
    Verdict,
    check_geometric,
    check_subreg_uniform,
    estimate_modulus,
)
from .sets import (
    ConeRep,
    PointCloud,
    PolyUnion,
    Polyhedron,
    cone_min_norm,
    dist_to_region,
    gamma_dual_distance,
    intersect_cones,
    normal_cone_at,
    project_polyhedron,
)
from .slope import (
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    local_slope,
    nonlocal_slope,
)
from .spaces import (
    GammaMetric,
    GridSpec,
    NormedSpace,
    make_grid,
)

__version__ = "0.1.0"
