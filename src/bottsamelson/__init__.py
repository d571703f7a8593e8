"""Exact cohomology-vanishing computations on Bott-Samelson varieties.

The package builds the Bott-tower fan attached to a generalized Cartan
matrix and a word in simple reflections, evaluates the closed-form
vanishing conditions for line bundles in the standard divisor basis, and
cross-checks everything against two brute-force cohomology oracles
(simplicial and Cech) on the toric degenerate fiber.

Everything is computed in exact integer arithmetic; no floating point is
used anywhere.
"""

from .bott import (
    BottData,
    Word,
    all_sign_vectors,
    alpha_path,
    alpha_reflect,
    big_c,
    build_bott_data,
    maximal_cone_rows,
    phi,
    signs,
    x_vector,
    x_vector_path,
)
from .cech import CechComplex, cech_complex, cech_table, cech_weight
from .errors import (
    BottSamelsonError,
    BoxTooLarge,
    DiagonalNotTwo,
    InconsistentData,
    IndexOutOfRange,
    NonSquare,
    NotAnInteger,
    NotInPicardBasis,
    NotStrictlyIncreasing,
    PositiveOffDiagonal,
    TooLarge,
    UnsupportedFamily,
    UnsupportedRank,
    ZeroAsymmetry,
)
from .analysis import (
    ProblemError,
    ProblemSpec,
    load_problem,
    parse_problem,
    report_json,
    run_analyze,
    run_oracle,
    run_scan,
    run_toric,
    run_weights,
)
from .linalg import det, rank, sparse_rank
from .rootsystem import (
    GeneralizedCartanMatrix,
    cartan_of_type,
    pairing,
    reflect,
    simple_root,
    validate_gcm,
)
from .simplicial import (
    SimplicialComplex,
    demazure_weight,
    reduced_cohomology,
    sigma_m,
)
from .toric import (
    CohomologyTable,
    ToricDivisor,
    WeightBox,
    WeightClassification,
    classify_weight,
    cohomology_table,
    demazure_table,
    weight_box,
)
from .vanishing import (
    ConditionProfile,
    VanishingCertificate,
    VanishingReport,
    admissible_etas,
    best_certificates,
    check_toric_vanishing,
    condition_profile,
    is_admissible,
    vanishing_report,
)

__version__ = "0.1.0"

__all__ = [
    "BottData",
    "BottSamelsonError",
    "BoxTooLarge",
    "CechComplex",
    "CohomologyTable",
    "ConditionProfile",
    "DiagonalNotTwo",
    "GeneralizedCartanMatrix",
    "InconsistentData",
    "IndexOutOfRange",
    "NonSquare",
    "NotAnInteger",
    "NotInPicardBasis",
    "NotStrictlyIncreasing",
    "PositiveOffDiagonal",
    "ProblemError",
    "ProblemSpec",
    "SimplicialComplex",
    "TooLarge",
    "ToricDivisor",
    "UnsupportedFamily",
    "UnsupportedRank",
    "VanishingCertificate",
    "VanishingReport",
    "WeightBox",
    "WeightClassification",
    "Word",
    "ZeroAsymmetry",
    "admissible_etas",
    "all_sign_vectors",
    "alpha_path",
    "alpha_reflect",
    "best_certificates",
    "big_c",
    "build_bott_data",
    "cartan_of_type",
    "cech_complex",
    "cech_table",
    "cech_weight",
    "check_toric_vanishing",
    "classify_weight",
    "cohomology_table",
    "condition_profile",
    "demazure_table",
    "demazure_weight",
    "det",
    "is_admissible",
    "load_problem",
    "maximal_cone_rows",
    "parse_problem",
    "pairing",
    "phi",
    "rank",
    "reduced_cohomology",
    "reflect",
    "report_json",
    "run_analyze",
    "run_oracle",
    "run_scan",
    "run_toric",
    "run_weights",
    "sigma_m",
    "signs",
    "simple_root",
    "sparse_rank",
    "validate_gcm",
    "vanishing_report",
    "weight_box",
    "x_vector",
    "x_vector_path",
]
