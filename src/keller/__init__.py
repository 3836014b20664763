"""Exact tools for classifying polynomial self-maps of the plane."""

from .errors import (
    AlgebraicallyDependentError,
    ContextMismatchError,
    DegreeCapExceeded,
    ExactDivisionError,
    InternalInconsistencyError,
    KellerError,
    MembershipFailedError,
    MissingAssignmentError,
    NotShapePositionError,
    ParseError,
    RecipeError,
    ResourceCapExceeded,
    UnknownVariableError,
    ZeroKernelError,
)
from .factor import (
    Factorization,
    PreservationReport,
    UnitsVerdict,
    UnitWitness,
    absolute_irreducibility,
    factor_bivariate,
    image_under,
    localization_units_check,
    squarefree_decomposition,
    stays_irreducible,
)
from .funcfield import UVDecomposition, shape_basis, uv_decomposition
from .groebner import (
    GREVLEX,
    LEX,
    Ideal,
    KernelGenerator,
    MonomialOrder,
    RunStats,
    block_order,
    buchberger,
    kernel_generator,
    normal_form,
    subring_membership,
)
from .parsing import parse_poly
from .pipeline import (
    ClassificationReport,
    TfaeReport,
    Verdict,
    certified_inverse,
    classify,
    invert,
    verify_inverse,
)
from .poly import (
    U12,
    U123,
    XY,
    Endomorphism,
    JacobianInfo,
    Polynomial,
    VarContext,
    compose,
    identity_map,
    jacobian_det,
    poly_gcd,
)
from .tame import (
    Affine,
    ElementaryX,
    ElementaryY,
    TameCertificate,
    TameRecipe,
    decompose,
    generate_tame,
    random_tame,
)

__version__ = "0.1.0"
