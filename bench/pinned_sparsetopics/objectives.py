"""Concave objectives over the topic simplex.

Three families share one interface: plain document log-likelihood, the
same likelihood with a Dirichlet log-prior (alpha >= 1 only), and the
log-normal penalty used for correlated-topic inference.  Values are
maximized; every objective reports whether it is defined on the whole
simplex or only on its interior.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import Document, TopicMatrix, validate_topic_matrix
from .errors import (
    DomainViolationError,
    InvalidArgumentError,
    NonconcavePriorError,
)

FULL_SIMPLEX = "full-simplex"
INTERIOR_ONLY = "interior-only"

# Floor applied inside logarithms of theta; gradients use theta as given.
LOG_CLAMP = 1e-12


def _check_interior(theta: np.ndarray, dim: int) -> None:
    if theta.shape != (dim,):
        raise InvalidArgumentError(f"expected a vector of length {dim}")
    if np.any(theta <= 0):
        raise DomainViolationError(
            "point has a zero or negative coordinate but the objective "
            "is defined only on the simplex interior"
        )


class Objective:
    """Interface: concave scalar function on the simplex with a gradient.

    line_restriction returns (g, dg), the function and derivative of
    a |-> f((1-a) * theta + a * s) for a sparse target point s; solvers use
    it for one-dimensional searches.  The default builds the chord point
    explicitly; subclasses override it when they can do better.
    """

    domain: str = FULL_SIMPLEX
    dim: int = 0

    def value(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def line_restriction(self, theta, s_ids, s_vals):
        base = np.asarray(theta, dtype=np.float64)
        direction = -base.copy()
        direction[s_ids] += s_vals

        def point(a: float) -> np.ndarray:
            x = (1.0 - a) * base
            x[s_ids] += a * s_vals
            return x

        def g(a: float) -> float:
            return self.value(point(a))

        def dg(a: float) -> float:
            return float(direction @ self.gradient(point(a)))

        return g, dg


class MlObjective(Objective):
    """Document log-likelihood f(theta) = sum_j d_j log(theta . beta_:j),
    restricted to the terms present in the document."""

    domain = FULL_SIMPLEX

    def __init__(self, document: Document, topics: TopicMatrix):
        problems = validate_topic_matrix(topics)
        if problems:
            raise InvalidArgumentError("invalid topic matrix: " + "; ".join(problems))
        if int(document.term_ids[-1]) >= topics.vocab_size:
            raise InvalidArgumentError(
                "document references a term outside the topic matrix vocabulary"
            )
        self.document = document
        self.topics = topics
        self.dim = topics.num_topics
        # Columns for the document's terms only; everything below runs on
        # this (K x nnz) slab.
        self.term_columns = np.ascontiguousarray(topics.rows[:, document.term_ids])
        self._counts = document.counts

    def value(self, theta: np.ndarray) -> float:
        p = np.asarray(theta, dtype=np.float64) @ self.term_columns
        return float(self._counts @ np.log(p))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        p = np.asarray(theta, dtype=np.float64) @ self.term_columns
        return self.term_columns @ (self._counts / p)

    def line_restriction(self, theta, s_ids, s_vals):
        p0 = np.asarray(theta, dtype=np.float64) @ self.term_columns
        ps = s_vals @ self.term_columns[s_ids, :]
        dp = ps - p0
        counts = self._counts

        def g(a: float) -> float:
            return float(counts @ np.log(p0 + a * dp))

        def dg(a: float) -> float:
            return float(counts @ (dp / (p0 + a * dp)))

        return g, dg


class DirichletLogPenalty(Objective):
    """h(theta) = sum_k (alpha_k - 1) log theta_k, alpha_k >= 1.

    With every alpha_k == 1 the penalty is identically zero and imposes no
    domain restriction; any alpha_k > 1 confines it to the interior.
    Smaller alphas would make the posterior nonconcave and are refused.
    """

    def __init__(self, alpha):
        a = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
        if a.ndim != 1 or a.size < 1:
            raise InvalidArgumentError("alpha must be a 1-d vector")
        if not np.all(np.isfinite(a)):
            raise InvalidArgumentError("alpha must be finite")
        if np.any(a < 1.0):
            raise NonconcavePriorError(
                "nonconcave-prior: alpha_k < 1 makes inference intractable; "
                "all concentration parameters must be >= 1"
            )
        self.alpha = a
        self.dim = a.size
        self._lam = a - 1.0
        self._active = bool(np.any(self._lam > 0))
        self.domain = INTERIOR_ONLY if self._active else FULL_SIMPLEX

    def value(self, theta: np.ndarray) -> float:
        if not self._active:
            return 0.0
        theta = np.asarray(theta, dtype=np.float64)
        _check_interior(theta, self.dim)
        return float(self._lam @ np.log(np.maximum(theta, LOG_CLAMP)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if not self._active:
            return np.zeros(self.dim)
        _check_interior(theta, self.dim)
        return self._lam / theta


@dataclasses.dataclass(frozen=True)
class CtmPrior:
    """Gaussian prior on log proportions: a symmetric positive-definite
    precision matrix, optionally with a mean vector."""

    precision: np.ndarray
    mean: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.precision, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise InvalidArgumentError("precision must be a square matrix")
        if not np.all(np.isfinite(p)):
            raise InvalidArgumentError("precision must be finite")
        if np.max(np.abs(p - p.T)) > 1e-9:
            raise InvalidArgumentError("precision matrix is not symmetric")
        p = 0.5 * (p + p.T)
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise InvalidArgumentError("precision matrix is not positive definite") from None
        p.setflags(write=False)
        object.__setattr__(self, "precision", p)
        if self.mean is not None:
            m = np.asarray(self.mean, dtype=np.float64)
            if m.shape != (p.shape[0],) or not np.all(np.isfinite(m)):
                raise InvalidArgumentError("mean must be a finite vector matching the precision")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "mean", m)

    @property
    def num_topics(self) -> int:
        return int(self.precision.shape[0])


class GaussianLogPenalty(Objective):
    """h(theta) = -1/2 (log theta - mu)^T P (log theta - mu); interior only."""

    domain = INTERIOR_ONLY

    def __init__(self, prior: CtmPrior):
        self.prior = prior
        self.dim = prior.num_topics

    def _centered_log(self, theta: np.ndarray, clamp: bool) -> np.ndarray:
        x = np.log(np.maximum(theta, LOG_CLAMP)) if clamp else np.log(theta)
        if self.prior.mean is not None:
            x = x - self.prior.mean
        return x

    def value(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=np.float64)
        _check_interior(theta, self.dim)
        x = self._centered_log(theta, clamp=True)
        return float(-0.5 * (x @ (self.prior.precision @ x)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        _check_interior(theta, self.dim)
        x = self._centered_log(theta, clamp=False)
        return -(self.prior.precision @ x) / theta


class PenalizedObjective(Objective):
    """base(theta) + weight * penalty(theta), weight >= 0."""

    def __init__(self, base: Objective, penalty: Objective, weight: float = 1.0):
        if not (weight >= 0):
            raise InvalidArgumentError("penalty weight must be nonnegative")
        if base.dim != penalty.dim:
            raise InvalidArgumentError("base and penalty dimensions differ")
        self.base = base
        self.penalty = penalty
        self.weight = float(weight)
        self.dim = base.dim
        self.domain = (
            INTERIOR_ONLY
            if INTERIOR_ONLY in (base.domain, penalty.domain)
            else FULL_SIMPLEX
        )

    def value(self, theta: np.ndarray) -> float:
        return self.base.value(theta) + self.weight * self.penalty.value(theta)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.base.gradient(theta) + self.weight * self.penalty.gradient(theta)

    def line_restriction(self, theta, s_ids, s_vals):
        g1, dg1 = self.base.line_restriction(theta, s_ids, s_vals)
        g2, dg2 = self.penalty.line_restriction(theta, s_ids, s_vals)
        w = self.weight

        def g(a: float) -> float:
            return g1(a) + w * g2(a)

        def dg(a: float) -> float:
            return dg1(a) + w * dg2(a)

        return g, dg


def ml_objective(document: Document, topics: TopicMatrix) -> MlObjective:
    """Plain document log-likelihood."""
    return MlObjective(document, topics)


def lda_map_objective(document: Document, topics: TopicMatrix, alpha) -> Objective:
    """Likelihood plus Dirichlet log-prior.  alpha may be a scalar or a
    length-K vector; every component must be >= 1."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim == 0:
        a = np.full(topics.num_topics, float(a))
    if a.shape != (topics.num_topics,):
        raise InvalidArgumentError("alpha length must match the number of topics")
    return PenalizedObjective(MlObjective(document, topics), DirichletLogPenalty(a))


def ctm_map_objective(document: Document, topics: TopicMatrix, prior: CtmPrior) -> Objective:
    """Likelihood plus zero-mean log-normal penalty (interior only).

    Priors carrying a mean vector belong to the capped formulation; see
    ctm_full_objective and ctm_caps.
    """
    if prior.mean is not None:
        raise InvalidArgumentError(
            "prior has a mean vector; use ctm_full_objective with fw_solve_capped"
        )
    _check_prior_dim(topics, prior)
    return PenalizedObjective(MlObjective(document, topics), GaussianLogPenalty(prior))


def ctm_full_objective(document: Document, topics: TopicMatrix, prior: CtmPrior) -> Objective:
    """Likelihood plus log-normal penalty with an arbitrary mean.  Solve it
    over the capped region from ctm_caps, where log theta - mu <= 0 keeps
    the penalty concave."""
    _check_prior_dim(topics, prior)
    return PenalizedObjective(MlObjective(document, topics), GaussianLogPenalty(prior))


def ctm_caps(prior: CtmPrior) -> np.ndarray:
    """Coordinate caps u_k = min(1, exp(mu_k)) for the capped formulation."""
    if prior.mean is None:
        return np.ones(prior.num_topics)
    return np.minimum(1.0, np.exp(prior.mean))


def ctm_penalty_hessian(theta: np.ndarray, prior: CtmPrior) -> np.ndarray:
    """Hessian of the log-normal penalty at an interior point:

        H = -D (P - diag(P x)) D,   D = diag(1/theta),  x = log theta - mu.
    """
    theta = np.asarray(theta, dtype=np.float64)
    _check_interior(theta, prior.num_topics)
    x = np.log(theta)
    if prior.mean is not None:
        x = x - prior.mean
    inv = 1.0 / theta
    inner = prior.precision - np.diag(prior.precision @ x)
    return -inner * np.outer(inv, inv)


def _check_prior_dim(topics: TopicMatrix, prior: CtmPrior) -> None:
    if prior.num_topics != topics.num_topics:
        raise InvalidArgumentError("prior dimension must match the number of topics")
