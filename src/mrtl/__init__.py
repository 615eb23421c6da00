"""Transfer learning to multiple target domains by joint nonnegative
matrix tri-factorization."""

from .baselines import (
    LogRegModel,
    logreg_predict_proba,
    logreg_train,
    nmf_fit,
    nmf_predict_labels,
)
from .data import (
    CorpusFormatError,
    SynthSpec,
    accuracy,
    generate_synthetic,
    load_corpus,
    normalize_input,
    parse_corpus,
    serialize_corpus,
)
from .engine import (
    Hyperparams,
    InvalidConfigError,
    NumericalDivergenceError,
    ProblemData,
    SharedFactors,
    TargetFactors,
    TraceRecord,
    fit,
    init_factors,
    objective,
    predict,
)
from .linalg import SparseCorpus

__version__ = "0.1.0"

__all__ = [
    "CorpusFormatError",
    "Hyperparams",
    "InvalidConfigError",
    "LogRegModel",
    "NumericalDivergenceError",
    "ProblemData",
    "SharedFactors",
    "SparseCorpus",
    "SynthSpec",
    "TargetFactors",
    "TraceRecord",
    "accuracy",
    "fit",
    "generate_synthetic",
    "init_factors",
    "load_corpus",
    "logreg_predict_proba",
    "logreg_train",
    "nmf_fit",
    "nmf_predict_labels",
    "normalize_input",
    "objective",
    "parse_corpus",
    "predict",
    "serialize_corpus",
    "__version__",
]
