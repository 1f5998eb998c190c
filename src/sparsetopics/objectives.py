"""Concave objectives over the topic simplex.

Three families share one interface: plain document log-likelihood, the
same likelihood with a Dirichlet log-prior (alpha >= 1 only), and the
log-normal penalty used for correlated-topic inference (entrywise
non-negative precisions only).  Both priors are a concave function of
log theta, interior only, with one value, gradient and chord
(LogPenalty); alpha = 1 is no prior, so lda-map is then the likelihood.
Values are maximized; every objective reports whether it is defined on
the whole simplex or only on its interior.
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

    line_restriction returns (g, dg) for a |-> f((1-a) * theta + a * s), s a
    sparse target point: its value g(a) and dg(a) = (slope, curvature), its
    first two derivatives, from which the solver's line search takes Newton
    steps.  The default builds the chord point explicitly and reports
    curvature 0.0, meaning unknown, so the search bisects; the likelihood,
    both priors and their sums override it with exact curvatures.  A dg
    may own scratch arrays, so one restriction's dg must not be called
    from two threads at once; each thread takes its own restriction.

    An objective may also offer vertex_values(), its values at all
    vertices at once, as the likelihood does; read them with vertex_values.
    The likelihood memoizes its mixture and a log-space penalty its point
    state (LogPenalty), each at the last point, keyed by the point's bytes.
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

        def dg(a: float) -> tuple[float, float]:
            return float(direction @ self.gradient(point(a))), 0.0

        return g, dg


class MlObjective(Objective):
    """Document log-likelihood f(theta) = sum_j d_j log(theta . beta_:j),
    restricted to the terms present in the document.

    Along a chord the mixture is p0 + a * dp; with v = sqrt(d) * dp / (p0
    + a * dp) the slope is sqrt(d) . v and the curvature -v . v.
    """

    domain = FULL_SIMPLEX

    def __init__(self, document: Document, topics: TopicMatrix):
        if int(document.term_ids[-1]) >= topics.vocab_size:
            raise InvalidArgumentError(
                "document references a term outside the topic matrix vocabulary"
            )
        self.dim = topics.num_topics
        # Columns for the document's terms only; everything below runs on
        # this (K x nnz) slab, gathered from the column-major rows.
        self.term_columns = topics.rows[:, document.term_ids]
        self._counts = document.counts
        self._sqrt_counts = np.sqrt(document.counts)
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
        if len(s_ids) == 1 and s_vals[0] == 1.0:
            # A vertex: 1.0 @ its one slab row is that row, bit for bit.
            ps = self.term_columns[s_ids[0]]
        else:
            ps = s_vals @ self.term_columns[s_ids, :]
        dp = ps - p0
        counts, sqrt_counts = self._counts, self._sqrt_counts
        scaled = sqrt_counts * dp
        v = np.empty_like(dp)

        def g(a: float) -> float:
            return float(counts @ np.log(p0 + a * dp))

        def dg(a: float) -> tuple[float, float]:
            # v = scaled / (p0 + a * dp), the mixture formed from the nearer
            # end of the chord: above 0.5 as ps - (1 - a) * dp, where 1 - a is
            # exact; at 0 v is scaled / p0, bit for bit.  A positional out
            # costs less than out=, and ndarray.dot less than @; the + 0.0
            # turns a lone -0.0 product into +0.0.
            if a == 0.0:
                np.divide(scaled, p0, v)
            elif a <= 0.5:
                np.divide(scaled, np.add(p0, np.multiply(dp, a, v), v), v)
            else:
                np.divide(scaled, np.subtract(ps, np.multiply(dp, 1.0 - a, v), v), v)
            return float(sqrt_counts.dot(v)) + 0.0, -float(v.dot(v))

        return g, dg


class LogPenalty(Objective):
    """h(theta) = phi(y) for a concave phi of y = log theta - mean (mean
    None: log theta); interior only.  A subclass gives phi(y, dphi(y)),
    dphi(y) and the form d2phi(u) = u . phi'' u, phi'' constant for both
    priors.  The gradient is dphi(y) / theta; along a chord with direction
    d, at the point x and with u = d / x, the slope is dphi(y) . u and the
    curvature d2phi(u) - dphi(y) . (u * u).  Like the likelihood's mixture,
    (y, dphi(y)) is memoized at the last theta for value, gradient, chord at 0.
    """

    domain = INTERIOR_ONLY
    mean = None
    _memo = (None, None)

    def _state(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, dphi(y)) at theta, formed only when theta's bytes change."""
        key, (memo_key, state) = theta.tobytes(), self._memo
        if key != memo_key:
            _check_interior(theta, self.dim)
            y = np.log(theta) if self.mean is None else np.log(theta) - self.mean
            self._memo = (key, state := (y, self._dphi(y)))
        return state

    def value(self, theta: np.ndarray) -> float:
        return self._phi(*self._state(np.asarray(theta, dtype=np.float64)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        return self._state(theta)[1] / theta

    def line_restriction(self, theta, s_ids, s_vals):
        # Scratch arrays, as dphi may return a stored array.  x is formed
        # from two products: base + a * direction would keep only about
        # eps / (1 - a) relative precision where the target is 0.
        base = np.asarray(theta, dtype=np.float64)
        target = np.zeros(self.dim)
        target[s_ids] = s_vals
        direction = target - base
        mean, dphi, d2phi, state = self.mean, self._dphi, self._d2phi, self._state
        x, y, u = np.empty(self.dim), np.empty(self.dim), np.empty(self.dim)

        def g(a: float) -> float:
            return self.value((1.0 - a) * base + a * target)

        def dg(a: float) -> tuple[float, float]:
            if a == 0.0:  # at base, whose memoized state refuses a face
                point, dphi_y = base, state(base)[1]
            else:
                np.multiply(base, 1.0 - a, x)
                np.multiply(target, a, y)
                np.add(x, y, x)
                if np.minimum.reduce(x) <= 0:
                    _check_interior(x, self.dim)
                np.log(x, y)
                if mean is not None:
                    np.subtract(y, mean, y)
                point, dphi_y = x, dphi(y)
            np.divide(direction, point, u)
            np.multiply(u, u, x)
            return float(dphi_y @ u), d2phi(u) - float(dphi_y @ x)

        return g, dg


class DirichletLogPenalty(LogPenalty):
    """h(theta) = lam . log theta with lam = alpha - 1, every alpha_k >= 1.

    Interior only for every alpha, all ones included (lda_map_objective
    returns the plain likelihood then).  Smaller alphas would make the
    posterior nonconcave and are refused.
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

    def _phi(self, y: np.ndarray, dphi_y: np.ndarray) -> float:
        return float(self._lam @ y)

    def _dphi(self, y: np.ndarray) -> np.ndarray:
        return self._lam

    def _d2phi(self, u: np.ndarray) -> float:
        return 0.0


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


class GaussianLogPenalty(LogPenalty):
    """h(theta) = -1/2 (log theta - mu)^T P (log theta - mu); interior only.

    Concave, and so solvable, only for a certified prior (see CtmPrior),
    and then only on theta <= caps: ctm_caps(prior) when the prior has a
    mean, the whole simplex (caps None) when it has none.
    """

    def __init__(self, prior: CtmPrior):
        self.prior = prior
        self.dim = prior.num_topics
        self.mean = prior.mean
        self.concave = prior.certified
        self.caps = None if prior.mean is None else ctm_caps(prior)
        # phi'' = -P; negating P is exact, so each hook has the bits of -(P ...)
        self._d2 = -prior.precision

    def _phi(self, y: np.ndarray, dphi_y: np.ndarray) -> float:
        return float(0.5 * (y @ dphi_y))

    def _dphi(self, y: np.ndarray) -> np.ndarray:
        return self._d2 @ y

    def _d2phi(self, u: np.ndarray) -> float:
        return float(u @ (self._d2 @ u))


class PenalizedObjective(Objective):
    """base(theta) + penalty(theta); concave when both parts are."""

    def __init__(self, base: Objective, penalty: Objective):
        if base.dim != penalty.dim:
            raise InvalidArgumentError("base and penalty dimensions differ")
        self.base = base
        self.penalty = penalty
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
        return self.base.value(theta) + self.penalty.value(theta)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.base.gradient(theta) + self.penalty.gradient(theta)

    def line_restriction(self, theta, s_ids, s_vals):
        g1, dg1 = self.base.line_restriction(theta, s_ids, s_vals)
        g2, dg2 = self.penalty.line_restriction(theta, s_ids, s_vals)

        def g(a: float) -> float:
            return g1(a) + g2(a)

        def dg(a: float) -> tuple[float, float]:
            (slope1, curvature1), (slope2, curvature2) = dg1(a), dg2(a)
            return slope1 + slope2, curvature1 + curvature2

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
    base, penalty = MlObjective(document, topics), DirichletLogPenalty(a)
    return base if np.all(a == 1.0) else PenalizedObjective(base, penalty)


def ctm_full_objective(document: Document, topics: TopicMatrix, prior: CtmPrior) -> Objective:
    """Likelihood plus log-normal penalty (interior only).

    The penalty is certified concave only where log theta - mu <= 0, so a
    prior with a mean makes the objective carry caps = ctm_caps(prior), and
    fw_solve solves over them; without a mean the region is the simplex.
    fw_solve refuses a precision with a negative entry.
    """
    if prior.num_topics != topics.num_topics:
        raise InvalidArgumentError("prior dimension must match the number of topics")
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
    x = GaussianLogPenalty(prior)._state(theta)[0]
    inv = 1.0 / theta
    inner = prior.precision - np.diag(prior.precision @ x)
    return -inner * np.outer(inv, inv)
