"""Concave objectives over the topic simplex.

Three families share one interface: plain document log-likelihood, the
same likelihood with a Dirichlet log-prior (alpha >= 1 only), and the
log-normal penalty used for correlated-topic inference (entrywise
non-negative precisions only).  Values are
maximized; every objective reports whether it is defined on the whole
simplex or only on its interior.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import Document, TopicMatrix
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
    if (theta <= 0).any():
        raise DomainViolationError(
            "point has a zero or negative coordinate but the objective "
            "is defined only on the simplex interior"
        )


def is_concave(objective) -> bool:
    """The objective's concavity flag; objects that do not set one are
    taken to be concave."""
    return getattr(objective, "concave", True)


def vertex_values(objective) -> np.ndarray:
    """The objective's values at the dim simplex vertices: its own
    vertex_values() when it has one, one value() call per vertex
    otherwise."""
    own = getattr(objective, "vertex_values", None)
    if own is not None:
        return own()
    values = np.empty(objective.dim)
    basis = np.zeros(objective.dim)
    for i in range(objective.dim):
        basis[i] = 1.0
        values[i] = objective.value(basis)
        basis[i] = 0.0
    return values


class Objective:
    """Interface: concave scalar function on the simplex with a gradient.

    An objective that cannot certify concavity sets the attribute
    concave = False, and fw_solve refuses it; read the flag with
    is_concave.  One certified only on a capped simplex {theta <= caps}
    sets the attribute caps, and fw_solve solves over that region.

    line_restriction returns (g, dg), the function and derivative of
    a |-> f((1-a) * theta + a * s) for a sparse target point s; the solver's
    line search uses dg.  The default builds the chord point explicitly;
    subclasses override it when they can do better.

    An objective may also offer vertex_values(), its values at all
    vertices at once; read them with vertex_values.
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
        problems = topics.problems
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
        # The last mixture p = theta . term_columns, keyed by theta's bytes
        # (the solver mutates theta in place, so its identity is no key).
        # One tuple, read once, so a key is never paired with another p.
        self._memo = (None, None)

    def _mixture(self, theta) -> np.ndarray:
        """theta . term_columns, formed only when theta differs bitwise
        from the last point asked for; read-only."""
        theta = np.asarray(theta, dtype=np.float64)
        key = theta.tobytes()
        memo_key, p = self._memo
        if key != memo_key:
            p = theta @ self.term_columns
            p.setflags(write=False)
            self._memo = (key, p)
        return p

    def value(self, theta: np.ndarray) -> float:
        return float(self._counts @ np.log(self._mixture(theta)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.term_columns @ (self._counts / self._mixture(theta))

    def vertex_values(self) -> np.ndarray:
        """value() at every vertex e_k, in one pass over the slab."""
        return np.log(self.term_columns) @ self._counts

    def line_restriction(self, theta, s_ids, s_vals):
        p0 = self._mixture(theta)
        ps = s_vals @ self.term_columns[s_ids, :]
        dp = ps - p0
        counts = self._counts

        def g(a: float) -> float:
            return float(counts @ np.log(p0 + a * dp))

        def dg(a: float) -> float:
            # ndarray.dot is cheaper than @ on this hot probe and gives the
            # same bits, except that on one term it keeps a -0.0 product
            # where @ adds it to +0.0; the + 0.0 does that addition.
            return float(counts.dot(dp / (p0 + a * dp))) + 0.0

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
    precision matrix, optionally with a mean vector.

    Any SPD precision is accepted here and by the penalty's value,
    gradient and Hessian, but fw_solve takes only certified priors:
    those whose precision is entrywise non-negative.  On the feasible
    region x = log theta - mu <= 0, so a non-negative P gives P x <= 0
    and the penalty Hessian -D (P - diag(P x)) D is negative definite.
    A negative entry P_ij lets theta_j -> 0 push (P x)_i to +infinity
    and the curvature positive, so such priors are refused.
    """

    precision: np.ndarray
    mean: np.ndarray | None = None
    certified: bool = dataclasses.field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "certified", bool(np.all(p >= 0.0)))
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
    """h(theta) = -1/2 (log theta - mu)^T P (log theta - mu); interior only.

    Concave, and so solvable, only for a certified prior (see CtmPrior),
    and then only on theta <= caps: ctm_caps(prior) when the prior has a
    mean, the whole simplex (caps None) when it has none.
    """

    domain = INTERIOR_ONLY

    def __init__(self, prior: CtmPrior):
        self.prior = prior
        self.dim = prior.num_topics
        self.concave = prior.certified
        self.caps = None if prior.mean is None else ctm_caps(prior)

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
    """base(theta) + weight * penalty(theta), weight >= 0; concave when
    both parts are."""

    def __init__(self, base: Objective, penalty: Objective, weight: float = 1.0):
        if not (weight >= 0):
            raise InvalidArgumentError("penalty weight must be nonnegative")
        if base.dim != penalty.dim:
            raise InvalidArgumentError("base and penalty dimensions differ")
        self.base = base
        self.penalty = penalty
        self.weight = float(weight)
        self.dim = base.dim
        self.concave = is_concave(base) and is_concave(penalty)
        # Certified concave where both parts are: under the tighter caps.
        caps = [getattr(part, "caps", None) for part in (base, penalty)]
        caps = [c for c in caps if c is not None]
        self.caps = np.min(caps, axis=0) if caps else None
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


def ctm_full_objective(document: Document, topics: TopicMatrix, prior: CtmPrior) -> Objective:
    """Likelihood plus log-normal penalty (interior only).

    The penalty is certified concave only where log theta - mu <= 0, so a
    prior with a mean makes the objective carry caps = ctm_caps(prior), and
    fw_solve solves over them; without a mean the region is the simplex.
    fw_solve refuses a precision with a negative entry.
    """
    _check_prior_dim(topics, prior)
    return PenalizedObjective(MlObjective(document, topics), GaussianLogPenalty(prior))


def ctm_caps(prior: CtmPrior) -> np.ndarray:
    """Coordinate caps u_k = min(1, exp(mu_k)), where log theta - mu <= 0;
    all ones without a mean."""
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
