"""Low-rank autoregressive parameter recovery and sequence embeddings.

Fits one autoregressive weight matrix per sequence in a collection, ties the
sequences together through a nuclear-norm constraint on the stacked parameter
matrix, and reads per-sequence embeddings off the SVD of the recovered matrix.
"""

from lowrank_ar.model import (
    LinkFunction,
    ParameterMatrix,
    SequenceCollection,
    apply_link,
)
from lowrank_ar.measurement import (
    MeasurementSlice,
    SliceSet,
    adjoint,
    enumerate_slices,
    forward,
    sample_subwindow_slices,
)
from lowrank_ar.nuclear import (
    NuclearBallGeometry,
    capped_simplex_project,
    nuclear_norm,
    prox_nuc,
)
from lowrank_ar.field import EmpiricalField, FieldSpec, ls_loss
from lowrank_ar.solver import (
    SolverConfig,
    SolverError,
    SolverState,
    constrained_least_squares,
    least_squares_unconstrained,
    mirror_descent,
    mirror_prox_backtracking,
    solve,
)
from lowrank_ar.embedding import EmbeddingResult, approx_rank, factorize, pca_project
from lowrank_ar.synthetic import (
    GenClassSpec,
    gen_baseline,
    gen_benchmark,
    perturb,
    simulate_ar,
    standard_class_specs,
)
from lowrank_ar.encoders import (
    HuffmanCode,
    build_huffman,
    encode_nucleotides,
    encode_signal_with_diff,
    encode_symbolic,
)
from lowrank_ar.evalkit import (
    LabeledPartition,
    LambdaProblem,
    LambdaSearchResult,
    accuracy_and_macro_f1,
    ari,
    kmeans,
    knn_classify,
    lambda_search,
    nmi,
    reconstruction_error,
)

__version__ = "0.1.0"

__all__ = [
    "LinkFunction",
    "ParameterMatrix",
    "SequenceCollection",
    "apply_link",
    "MeasurementSlice",
    "SliceSet",
    "adjoint",
    "enumerate_slices",
    "forward",
    "sample_subwindow_slices",
    "NuclearBallGeometry",
    "capped_simplex_project",
    "nuclear_norm",
    "prox_nuc",
    "EmpiricalField",
    "FieldSpec",
    "ls_loss",
    "SolverConfig",
    "constrained_least_squares",
    "SolverError",
    "SolverState",
    "least_squares_unconstrained",
    "mirror_descent",
    "mirror_prox_backtracking",
    "solve",
    "EmbeddingResult",
    "approx_rank",
    "factorize",
    "pca_project",
    "GenClassSpec",
    "gen_baseline",
    "gen_benchmark",
    "perturb",
    "simulate_ar",
    "standard_class_specs",
    "HuffmanCode",
    "build_huffman",
    "encode_nucleotides",
    "encode_signal_with_diff",
    "encode_symbolic",
    "LabeledPartition",
    "LambdaProblem",
    "LambdaSearchResult",
    "accuracy_and_macro_f1",
    "ari",
    "kmeans",
    "knn_classify",
    "lambda_search",
    "nmi",
    "reconstruction_error",
    "__version__",
]
