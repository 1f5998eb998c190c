"""Corpus-level EM training and synthetic corpus generation.

The E-step infers every document's proportions with the simplex solver;
the M-step reestimates topics from per-token responsibilities.  A small
guard keeps the corpus likelihood monotone: if a fresh solve lands below
the previous iteration's proportions (possible, since each solve restarts
from a vertex), the old proportions are kept for that document.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import Corpus, Document, SolverConfig, TopicMatrix, Vocabulary, converged
from .errors import InvalidArgumentError, InvalidConfigError
from .objectives import MlObjective
from .solver import fw_solve

M_STEP_RESPONSIBILITY = "responsibility"
M_STEP_HARD = "hard"


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Knobs for EM training.

    m_step selects between full per-token responsibilities and a hard
    variant that credits terms to topics proportionally to theta alone.
    The E-step is serial: threads accepts only 1.
    """

    topics: int
    em_iters: int = 50
    em_rel_tol: float = 1e-4
    inner: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    smoothing: float = 1e-10
    seed: int = 0
    m_step: str = M_STEP_RESPONSIBILITY
    threads: int = 1

    def __post_init__(self):
        if self.topics < 1:
            raise InvalidConfigError("need at least one topic")
        if self.em_iters < 1:
            raise InvalidConfigError("em_iters must be at least 1")
        if not (self.em_rel_tol > 0):
            raise InvalidConfigError("em_rel_tol must be positive")
        if not (self.smoothing > 0):
            raise InvalidConfigError("smoothing must be positive")
        if self.m_step not in (M_STEP_RESPONSIBILITY, M_STEP_HARD):
            raise InvalidConfigError(
                f"m_step must be '{M_STEP_RESPONSIBILITY}' or '{M_STEP_HARD}'"
            )
        if self.threads != 1:
            raise InvalidConfigError("threads must be 1; the E-step is serial")


def _e_step_range(documents, beta, config, previous):
    """Infer every document's proportions; returns the sufficient
    statistics and the per-document proportions."""
    k = beta.num_topics
    stats = np.zeros((k, beta.vocab_size))
    thetas = []
    for doc, prev in zip(documents, previous):
        objective = MlObjective(doc, beta)
        report, _ = fw_solve(objective, config=config.inner)
        theta = report.theta.dense(k)
        if prev is not None and objective.value(prev) > report.objective:
            theta = prev
        support = np.flatnonzero(theta)
        weights = theta[support]
        cols = beta.rows[np.ix_(support, doc.term_ids)]
        if config.m_step == M_STEP_HARD:
            contrib = weights[:, None] * doc.counts[None, :]
        else:
            mix = weights @ cols
            contrib = (weights[:, None] * cols) * (doc.counts / mix)[None, :]
        stats[np.ix_(support, doc.term_ids)] += contrib
        thetas.append(theta)
    return stats, thetas


def train(corpus: Corpus, config: TrainConfig):
    """Fit a topic matrix by EM.  Returns (TopicMatrix, likelihood trace);
    the trace holds the corpus log-likelihood after each M-step and is
    non-decreasing up to float tolerance."""
    documents = corpus.documents
    k = config.topics
    v = corpus.vocabulary.size
    rng = np.random.default_rng(config.seed)
    beta = TopicMatrix.normalized(rng.random((k, v)))

    previous = [None] * len(documents)
    trace = []
    for _ in range(config.em_iters):
        stats, previous = _e_step_range(documents, beta, config, previous)
        candidate = TopicMatrix.normalized(stats + config.smoothing)
        ll = 0.0
        for m, doc in enumerate(documents):
            ll += MlObjective(doc, candidate).value(previous[m])
        if trace and ll < trace[-1]:
            # The only way down is smoothing-floor noise; we are converged.
            break
        beta = candidate
        trace.append(ll)
        if len(trace) >= 2 and converged(trace[-2], trace[-1], config.em_rel_tol):
            break
    return beta, trace


@dataclasses.dataclass(frozen=True)
class SyntheticData:
    """A generated corpus together with the model that produced it."""

    corpus: Corpus
    topics: TopicMatrix
    proportions: np.ndarray


def generate_synthetic_corpus(
    num_topics: int,
    vocab_size: int,
    num_docs: int,
    doc_length: int,
    doc_alpha: float = 0.1,
    topic_concentration: float = 0.1,
    seed: int = 0,
) -> SyntheticData:
    """Sample topics from a symmetric Dirichlet over the vocabulary, one
    proportion vector per document from Dirichlet(doc_alpha), and counts
    from a multinomial of the mixture."""
    if num_topics < 1 or vocab_size < 1 or num_docs < 1:
        raise InvalidArgumentError("num_topics, vocab_size and num_docs must be positive")
    if doc_length < 1:
        raise InvalidArgumentError("doc_length must be at least 1 (no empty documents)")
    if not (doc_alpha > 0) or not (topic_concentration > 0):
        raise InvalidArgumentError("Dirichlet concentrations must be positive")
    rng = np.random.default_rng(seed)
    beta = TopicMatrix.normalized(
        rng.dirichlet(np.full(vocab_size, topic_concentration), size=num_topics)
    )
    proportions = rng.dirichlet(np.full(num_topics, doc_alpha), size=num_docs)
    docs = []
    for m in range(num_docs):
        mixture = proportions[m] @ beta.rows
        counts = rng.multinomial(doc_length, mixture / mixture.sum())
        ids = np.flatnonzero(counts)
        docs.append(Document(ids.astype(np.int64), counts[ids].astype(np.float64)))
    vocab = Vocabulary(tuple(f"w{j}" for j in range(vocab_size)))
    return SyntheticData(
        corpus=Corpus(vocab, tuple(docs)),
        topics=beta,
        proportions=proportions,
    )
