"""Affine differential geometry of codimension-2 submanifolds contained in
hypersurfaces.

The library works with scenes: a hypersurface M in R^{n+2} given as a
graph z = f(t_1..t_n, y) together with a submanifold N given by y = g(t).
It computes osculating Darboux directions and frames, envelopes of
tangent spaces with their simple-singularity classification, curve
invariants and developables, affine metrics with the affine normal plane
bundle, Blaschke data, Transon planes, and the parallel-vector-field
existence test.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateError,
    DegenerateHypersurfaceError,
    DegenerateSectionError,
    DimensionError,
    DomainError,
    GeometryError,
    InputError,
    NeedMoreSectionsError,
    NotAkPointError,
    NonFiniteResultError,
    NotOnDiscriminantError,
    OrderError,
    OsculatingDegenerateError,
    ParseError,
    RankError,
    ReversionFailureError,
    SceneFormatError,
    SigmaZeroError,
    SingularBasisError,
    UnknownVariableError,
)
from .expr import eval_jet, parse_expression, to_infix, to_prefix
from .jets import Jet, JetSpace, jet_compose, jet_space
from .frame import (
    FramePoint,
    Scene,
    StructureCoeffs,
    build_scene,
    darboux_direction,
    darboux_frame,
    nondegeneracy,
    structure_coefficients,
    tangent_frame,
)
from .envelope import (
    Mesh,
    envelope_mesh,
    envelope_point,
    family_value,
    regression_values,
    write_obj,
    write_ply,
)
from .singular import (
    Germ,
    SingularityClass,
    classify_envelope_point,
    classify_germ,
    germ_jet,
    versality_matrix,
)
from .curve import (
    AdaptedCurve,
    CurveInvariants,
    CurveScene,
    adapt_parameterization,
    as_curve,
    curve_invariants,
    curve_singularity,
    tangent_developable,
)
from .metricbundle import (
    BlaschkeData,
    ParallelReport,
    affine_metric,
    affine_normal_plane,
    apolarity_defect,
    blaschke_compatibility,
    blaschke_data,
    cubic_forms,
    equiaffine_defect,
    normal_curvature,
    parallel_field_exists,
    tau_form,
)
from .transon import (
    TransonReport,
    hyperplane_section,
    monge_frame,
    principal_angles,
    section_blaschke_normal,
    transon_plane,
    transon_planarity_residual,
    transon_report,
    transon_vs_normal_plane,
)
from .scenes import CATALOG, load_bundled, parse_scene_text, serialize_scene
