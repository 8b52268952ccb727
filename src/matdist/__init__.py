"""Material-distribution analysis for simple bodies.

Given a constitutive response W(X, F), the package computes fibres of the
material distribution, grades of uniformity, material symmetry algebras,
traces of the body-material foliation and chart homogeneity tests, and
ships the worked piecewise-stiffness-cube and laminated-liquid-crystal
models as built-ins.
"""

__version__ = "0.1.0"

from .numkit import Tolerances, DEFAULT_TOL, jacobian_fd, rk4_step
from .response import (
    ConstitutiveModel,
    LeafInfo,
    BUILTIN_MODELS,
    builtin,
    parse_model,
    load_model_file,
    evaluate,
    derivatives,
)
from .distribution import (
    SamplerConfig,
    DEFAULT_SAMPLER,
    FibreResult,
    IsoCheck,
    material_fibre,
    is_material_isomorphism,
)
from .foliation import (
    GridSpec,
    GradeField,
    LeafTrace,
    grade_map,
    leaf_trace,
    regularity_report,
    trace_leaves,
)
from .homogeneity import (
    Chart,
    HomogeneityReport,
    builtin_chart,
    translation_jet,
    leaf_pairs,
    homogeneity_check,
    eq25_residual,
)

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT_TOL",
    "jacobian_fd",
    "rk4_step",
    "ConstitutiveModel",
    "LeafInfo",
    "BUILTIN_MODELS",
    "builtin",
    "parse_model",
    "load_model_file",
    "evaluate",
    "derivatives",
    "SamplerConfig",
    "DEFAULT_SAMPLER",
    "FibreResult",
    "IsoCheck",
    "material_fibre",
    "is_material_isomorphism",
    "GridSpec",
    "GradeField",
    "LeafTrace",
    "grade_map",
    "leaf_trace",
    "trace_leaves",
    "regularity_report",
    "Chart",
    "HomogeneityReport",
    "builtin_chart",
    "translation_jet",
    "leaf_pairs",
    "homogeneity_check",
    "eq25_residual",
]
