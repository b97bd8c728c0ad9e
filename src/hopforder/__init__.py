"""Exact computations with Hopf algebra actions over Z and Z localized
at a prime: associated orders via Hermite normal form, free generators
of the ring of integers, induced (tensor) structures, and enumeration
of regular subgroups for small groups."""

from .action import (
    ActionBundle,
    ActionReport,
    ActionTable,
    FieldPresentation,
    NotInImageError,
    ValidationError,
    build_bundle,
    express_endomorphism,
    mult_matrix,
    rep_matrix,
    rep_matrix_basis,
    verify_action,
)
from .documents import (
    InputDocument,
    ParseError,
    dump_report,
    format_rational,
    load_document,
    parse_document,
    parse_rational,
)
from .freeness import (
    GeneratorCandidate,
    NonIntegralBetaError,
    candidate_box,
    generator_matrix,
    is_free_generator,
    search_free_generator,
)
from .groups import (
    DegreeTooLargeError,
    GroupData,
    GroupValidationError,
    NoDecompositionError,
    Permutation,
    RegularSubgroup,
    classify_type,
    complements_of,
    detect_induced,
    enumerate_regular_subgroups,
    iota,
    is_isomorphic,
    subgroups_of_order,
    translation_actions,
    with_complement,
)
from .induction import (
    InducedSetup,
    NotArithmeticallyDisjointError,
    are_arithmetically_disjoint,
    base_change_order,
    induce_action,
    permute_rows,
    product_field,
    tensor_order_lattice,
    tracy_singh_permutation,
    verify_induced_generator,
    verify_kronecker_theorem,
    verify_tensor_order,
)
from .linalg import (
    CoefficientRing,
    ColumnRankDeficientError,
    DimensionMismatchError,
    HnfResult,
    LatticeBasis,
    LinAlgError,
    Matrix,
    SingularError,
    ZeroMatrixError,
    determinant,
    det_inverse,
    hnf,
    kronecker,
    lattice_contains,
    lattice_equal,
    rank,
    solve,
    unvec,
    vec,
)
from .order import (
    OrderBasis,
    OrderReport,
    associated_order,
    order_membership,
    order_membership_by_lattice,
    verify_order,
)

__version__ = "0.1.0"
