"""Exact truncated moment problems on path *-algebras of quiver doubles."""

from .algebra import Element
from .errors import (
    ExtensionObstructed,
    InputError,
    InternalInvariantError,
    NotFlatError,
    WindowError,
)
from .extension import FlatExtension, flat_extend_tip_maximal, schur_complete
from .gns import (
    Representation,
    build_from_groebner,
    build_representation,
    check_relations,
    compress_representation,
    rep_kernel,
)
from .groebner import (
    ReductionEvent,
    RightGroebnerBasis,
    kernel_groebner,
    left_divides,
    normal_form,
    right_groebner,
    total_reduce,
)
from .linalg import Matrix, ldlh_psd, nullspace, psd_check, rank
from .moment import FlatReport, MomentMatrix, TruncatedFunctional
from .quiver import (
    ZERO_PATH,
    DoubleQuiver,
    Path,
    PathOrder,
    Quiver,
    build_double,
    compose,
    enumerate_basis,
    paths_of_length,
)
from .scalar import Scalar
from .sos import expand_gram, expand_squares, gram_to_squares, verify_gram, verify_squares

__all__ = [
    "Element",
    "ExtensionObstructed",
    "InputError",
    "InternalInvariantError",
    "NotFlatError",
    "WindowError",
    "FlatExtension",
    "flat_extend_tip_maximal",
    "schur_complete",
    "Representation",
    "build_from_groebner",
    "build_representation",
    "check_relations",
    "compress_representation",
    "rep_kernel",
    "ReductionEvent",
    "RightGroebnerBasis",
    "kernel_groebner",
    "left_divides",
    "normal_form",
    "right_groebner",
    "total_reduce",
    "Matrix",
    "ldlh_psd",
    "nullspace",
    "psd_check",
    "rank",
    "FlatReport",
    "MomentMatrix",
    "TruncatedFunctional",
    "ZERO_PATH",
    "DoubleQuiver",
    "Path",
    "PathOrder",
    "Quiver",
    "build_double",
    "compose",
    "enumerate_basis",
    "paths_of_length",
    "Scalar",
    "expand_gram",
    "expand_squares",
    "gram_to_squares",
    "verify_gram",
    "verify_squares",
]
