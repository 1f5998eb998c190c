"""Sparse topic-proportion inference over the simplex.

A conditional-gradient solver whose iterates touch one new topic per
step, the classical baselines it is usually compared against, a small EM
trainer, and evaluation helpers for the speed/sparsity/perplexity
trade-off.
"""

from .baselines import folding_in, vb_infer
from .core import (
    EPS_BETA,
    START_BARYCENTER,
    START_BEST_VERTEX,
    Corpus,
    Document,
    InferenceReport,
    SolverConfig,
    TopicMatrix,
    TopicProportion,
    Vocabulary,
    validate_topic_matrix,
)
from .corpus_io import (
    ModelFile,
    load_model,
    load_prior,
    load_uci_bow,
    save_model,
    save_uci_bow,
    save_vocab,
    write_eval_csv,
    write_likelihood_csv,
    write_proportions,
    write_theta,
)
from .errors import (
    CorpusBoundsError,
    CorpusFormatError,
    DomainViolationError,
    InfeasibleRegionError,
    InvalidArgumentError,
    InvalidConfigError,
    ModelFormatError,
    NonconcavePriorError,
    NumericFailureError,
    UnsupportedVersionError,
)
from .evaluation import (
    ALL_METHODS,
    METHOD_FOLDING,
    METHOD_FW,
    METHOD_VB,
    DocEval,
    EvalReport,
    MethodResult,
    compare_methods,
    evaluate_inference,
    tradeoff_sweep,
)
from .objectives import (
    FULL_SIMPLEX,
    INTERIOR_ONLY,
    CtmPrior,
    DirichletLogPenalty,
    GaussianLogPenalty,
    MlObjective,
    Objective,
    PenalizedObjective,
    ctm_caps,
    ctm_full_objective,
    lda_map_objective,
    ml_objective,
)
from .solver import (
    TraceRecord,
    capped_simplex_argmax,
    fw_solve,
    fw_solve_capped,
    line_search,
)
from .training import (
    SyntheticData,
    TrainConfig,
    generate_synthetic_corpus,
    train,
)

__version__ = "0.1.0"
