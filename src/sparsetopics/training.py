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

from .core import Corpus, Document, SolverConfig, TopicMatrix, Vocabulary, converged, sum_left_to_right
from .errors import InvalidArgumentError, InvalidConfigError
from .objectives import MlObjective
from .solver import fw_solve

# Added to every sufficient statistic before the M-step normalizes them.
SMOOTHING = 1e-10


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Knobs for EM training.

    The M-step always reestimates topics from per-token responsibilities,
    and the E-step is serial: m_step accepts only "responsibility" and
    threads only 1.  Both fields exist only because the benchmark's
    configuration passes them, and go when the benchmark is ported.
    """

    topics: int
    em_iters: int = 50
    em_rel_tol: float = 1e-4
    inner: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    seed: int = 0
    m_step: str = "responsibility"
    threads: int = 1

    def __post_init__(self):
        if self.topics < 1:
            raise InvalidConfigError("need at least one topic")
        if self.em_iters < 1:
            raise InvalidConfigError("em_iters must be at least 1")
        if not (0 < self.em_rel_tol < np.inf):
            raise InvalidConfigError("em_rel_tol must be finite and positive")
        if self.m_step != "responsibility":
            raise InvalidConfigError("m_step must be 'responsibility', the one M-step")
        if self.threads != 1:
            raise InvalidConfigError("threads must be 1; the E-step is serial")


def _e_step_range(documents, beta, config, previous):
    """Infer every document's proportions; returns the sufficient
    statistics and the per-document proportions.  previous holds, per
    document, None or the last EM step's proportions and their
    log-likelihood under beta; a fresh solve below it keeps them."""
    k = beta.num_topics
    stats = np.zeros((k, beta.vocab_size))
    thetas = []
    for doc, prev in zip(documents, previous):
        objective = MlObjective(doc, beta)
        report, _ = fw_solve(objective, config=config.inner)
        theta = report.theta.dense(k)
        if prev is not None and prev[1] > report.objective:
            theta = prev[0]
        support = np.flatnonzero(theta)
        weights = theta[support]
        cols = objective.term_columns[support]
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
        stats, thetas = _e_step_range(documents, beta, config, previous)
        candidate = TopicMatrix.normalized(stats + SMOOTHING)
        terms = [MlObjective(doc, candidate).value(theta) for doc, theta in zip(documents, thetas)]
        ll = sum_left_to_right(terms)
        if trace and ll < trace[-1]:
            # The only way down is smoothing-floor noise; we are converged.
            break
        beta = candidate
        previous = list(zip(thetas, terms))
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
    if not (0 < doc_alpha < np.inf) or not (0 < topic_concentration < np.inf):
        raise InvalidArgumentError("Dirichlet concentrations must be finite and positive")
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
