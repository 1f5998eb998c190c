"""Concave objectives over the topic simplex.

Three families share one interface: plain document log-likelihood, the
same likelihood with a Dirichlet log-prior (alpha >= 1 only), and the
log-normal penalty used for correlated-topic inference (entrywise
non-negative precisions only).  Both priors are a concave function of
log theta, interior only, with one value, gradient and chord
(LogPenalty); alpha = 1 is no prior, so lda-map is then the likelihood.
Values are maximized; every objective reports whether it is defined on
the whole simplex or only on its interior.  A step's products use
ndarray.dot, cheaper than @; a scalar one adds + 0.0, as dot keeps a lone
-0.0 product where @ sums from +0.0.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np

from .core import EPS_BETA, Document, TopicMatrix
from .errors import (
    DomainViolationError,
    InvalidArgumentError,
    NonconcavePriorError,
    NumericFailureError,
)

FULL_SIMPLEX = "full-simplex"
INTERIOR_ONLY = "interior-only"


def _check_interior(theta: np.ndarray, dim: int) -> None:
    if theta.shape != (dim,):
        raise InvalidArgumentError(f"expected a vector of length {dim}")
    if not np.minimum.reduce(theta) > 0:  # one reduction; NaN fails it too
        raise DomainViolationError(
            "point has a zero, negative or NaN coordinate but the objective "
            "is defined only on the simplex interior"
        )


def is_concave(objective) -> bool:
    """The objective's concavity flag; objects that do not set one are
    taken to be concave."""
    return getattr(objective, "concave", True)


# MlObjective.best_vertex screens vertex k with the float32 score
# s_k = sum_j w_j log beta_kj, w_j = c_j / max c in [0, 1]: n terms,
# W = sum w_j >= 1, u = 2^-24, and L = -log EPS_BETA >= |log beta| for a
# valid TopicMatrix.  Against the exact sum, term by term:
#  - beta rounded to float32 moves its log by at most 1.01 u;
#  - float32 log is within 4 ulp of the rounded log (numpy's accuracy
#    tests hold it there), so within 10 u |log beta|;
#  - w rounded to float32 after its float64 division, and the product, are
#    each off by at most 1.01 u relative, plus 2^-150 where they underflow;
# at most w u (12.03 L + 1.03) together.  A float32 sum of n terms of one
# sign, in any order, is off by at most (n - 1) u / (1 - n u) of their
# total, itself at most W L (1 + 13 u).  So for n u <= 1/16,
# |s_k - exact| <= E = u W ((n + 13) L + 2) / (1 - n u), the underflow terms
# being far below u <= u W.  value(e_k) in float64 (log within 1 ulp, an
# n-term dot) is within 2^-28 E of the exact sum.  A vertex scored below
# top - 2 u W ((n + 14) L + 2) / (1 - n u) thus has a value below the
# top-scored vertex's: it can neither tie nor beat it.  The screen takes
# W <= n, which spares a pass over the counts.
_SCREEN_U = 2.0**-24
_SCREEN_L = -math.log(EPS_BETA)
_ONE_BYTES = np.float64(1.0).tobytes()


def best_vertex(objective) -> int:
    """The lowest index k at which the objective's value at the vertex e_k
    is highest: its own best_vertex() when it has one, the argmax of one
    value() call per vertex otherwise.  Both refuse an objective that is
    NaN or infinite at a vertex with NumericFailureError."""
    own = getattr(objective, "best_vertex", None)
    return own() if own is not None else _value_argmax(objective)


def _value_argmax(objective) -> int:
    values = np.empty(objective.dim)
    basis = np.zeros(objective.dim)
    with np.errstate(over="ignore"):  # an overflow is refused below
        for i in range(objective.dim):
            basis[i] = 1.0
            values[i] = objective.value(basis)
            basis[i] = 0.0
    if not np.all(np.isfinite(values)):
        raise NumericFailureError("objective is NaN or infinite at a vertex")
    return int(np.argmax(values))


class Objective:
    """Interface: concave scalar function on the simplex with a gradient.

    An objective that cannot certify concavity sets the attribute
    concave = False, and fw_solve refuses it; read the flag with
    is_concave.  One certified only on a capped simplex {theta <= caps}
    sets the attribute caps, and fw_solve solves over that region.

    line_restriction returns (g, dg) for a |-> f((1-a) * theta + a * s), s a
    sparse target point: its value g(a, point) and dg(a) = (slope,
    curvature), its first two derivatives, from which the solver's line
    search takes Newton steps.  point, when given, is the chord point at a
    as the solver's step forms it: theta * (1 - a), then a * s
    added on s's support.  The default builds the chord point explicitly
    and reports curvature 0.0, meaning unknown, so the search bisects; the
    likelihood, both priors and their sums override it with exact
    curvatures.  A dg may own scratch arrays, so one restriction's dg must
    not be called from two threads at once; each thread takes its own
    restriction.

    An objective may also offer best_vertex(), the vertex where its value
    is highest, as the likelihood does; read it with best_vertex.
    The likelihood memoizes its mixture and a log-space penalty its point
    state (LogPenalty), each at the last point, keyed by the point's bytes;
    at a point a solver step reached, the mixture is g's (MlObjective).
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

        def chord_point(a: float) -> np.ndarray:
            x = (1.0 - a) * base
            x[s_ids] += a * s_vals
            return x

        def g(a: float, point: np.ndarray | None = None) -> float:
            return self.value(chord_point(a) if point is None else point)

        def dg(a: float) -> tuple[float, float]:
            return float(direction.dot(self.gradient(chord_point(a)))) + 0.0, 0.0

        return g, dg


class MlObjective(Objective):
    """Document log-likelihood f(theta) = sum_j d_j log(theta . beta_:j),
    restricted to the terms present in the document.

    Along a chord the mixture is p0 + a * dp; with v = sqrt(d) * dp / (p0
    + a * dp) the slope is sqrt(d) . v and the curvature -v . v.  g(a, point)
    memoizes the chord's mixture for point, so a point reached by a solver
    step holds it, within a few ulps of point . term_columns, unformed;
    fw_solve carries it from step to step instead (solve_steps).
    """

    domain = FULL_SIMPLEX
    # term_columns in row-major order, read-only, built by the first chord to
    # a fill of several rows (only capped fills), whose strided gather is slow.
    _slab_rows = None

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
        # The last mixture p at a point, keyed by the point's bytes (the
        # solver reuses its two point buffers, so identity is no key), one
        # tuple read once, so a key is never paired with another p.  Per
        # thread, as a chord's p differs from the product in its last bits.
        self._memo = threading.local()

    def _remember(self, key: bytes, p: np.ndarray) -> np.ndarray:
        """Makes p, read-only, the memo for the point whose bytes are key; a
        method, so a wrapper that forwards attribute reads writes it here."""
        p.setflags(write=False)
        self._memo.entry = (key, p)
        return p

    def _mixture(self, theta) -> np.ndarray:
        """The mixture at theta: the memo when theta's bytes match it, else
        theta . term_columns, formed and memoized; read-only."""
        theta = np.asarray(theta, dtype=np.float64)
        key = theta.tobytes()
        memo_key, p = getattr(self._memo, "entry", (None, None))
        if key != memo_key:
            p = self._remember(key, theta @ self.term_columns)  # at most once a solve
        return p

    def value(self, theta: np.ndarray) -> float:
        return float(self._counts.dot(np.log(self._mixture(theta)))) + 0.0

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.term_columns.dot(self._counts / self._mixture(theta))

    def best_vertex(self) -> int:
        """The lowest index k where value(e_k) is highest, found by a
        float32 screen of every vertex.  When the screen's error bound
        (above) leaves more than one vertex in reach of the top score, each
        of them is valued again as value() computes it.  Memoizes the
        winner's slab row, which has the bits of e_k . term_columns, as the
        mixture at e_k."""
        counts = self._counts
        n, c_max = counts.size, float(np.maximum.reduce(counts))
        m = n * _SCREEN_U
        if m > 1.0 / 16.0 or not math.isfinite(2.0 * _SCREEN_L * n * c_max):
            # Past the bound's range, or counts so large that a value (at
            # most L n max c in size) may overflow: the value loop decides.
            return _value_argmax(self)
        weights = (counts / c_max).astype(np.float32)
        scores = (np.log(self.term_columns, dtype=np.float32) @ weights).astype(np.float64)
        slack = 2.0 * _SCREEN_U * n * ((n + 14) * _SCREEN_L + 2.0) / (1.0 - m)
        best = int(scores.argmax())
        in_reach = scores >= scores[best] - slack
        if np.count_nonzero(in_reach) > 1:
            candidates = np.flatnonzero(in_reach)
            values = [float(counts.dot(np.log(np.array(self.term_columns[k])))) + 0.0 for k in candidates]
            best = int(candidates[np.argmax(values)])
        # The key is the bytes of e_best, as value(e_best) reads them.
        key = bytes(8 * best) + _ONE_BYTES + bytes(8 * (self.dim - best - 1))
        self._remember(key, np.array(self.term_columns[best]))
        return best

    def _chord(self, p0, s_ids, s_vals, v, keep):
        """(g, dg) along the chord from the mixture p0 toward the target s:
        g(a, point) hands keep(point, p) the mixture p it values, and dg
        writes v as scratch."""
        if len(s_ids) == 1 and s_vals[0] == 1.0:
            # A vertex: 1.0 times its one slab row is that row, bit for bit.
            ps = self.term_columns[s_ids[0]]
        else:
            rows = self._slab_rows  # threads that build it at once build equal copies
            if rows is None:
                rows = np.array(self.term_columns, order="C")
                rows.setflags(write=False)
                self._slab_rows = rows
            ps = s_vals.dot(rows.take(s_ids, axis=0))  # the bits of term_columns[s_ids, :]
        dp = ps - p0
        counts, sqrt_counts = self._counts, self._sqrt_counts
        scaled = sqrt_counts * dp

        def g(a: float, point: np.ndarray | None = None) -> float:
            # The mixture from the nearer end, as dg forms it.
            p = p0 + a * dp if a <= 0.5 else ps - (1.0 - a) * dp
            keep(point, p)
            return float(counts.dot(np.log(p))) + 0.0

        def dg(a: float) -> tuple[float, float]:
            # v = scaled / (p0 + a * dp), the mixture formed from the nearer
            # end of the chord: above 0.5 as ps - (1 - a) * dp, where 1 - a is
            # exact; at 0 v is scaled / p0, bit for bit.  A positional out beats out=.
            if a == 0.0:
                np.divide(scaled, p0, v)
            elif a <= 0.5:
                np.divide(scaled, np.add(p0, np.multiply(dp, a, v), v), v)
            else:
                np.divide(scaled, np.subtract(ps, np.multiply(dp, 1.0 - a, v), v), v)
            return float(sqrt_counts.dot(v)) + 0.0, -float(v.dot(v))

        return g, dg

    def _keep(self, point, p) -> None:
        if point is not None:
            self._remember(point.tobytes(), p)

    def line_restriction(self, theta, s_ids, s_vals):
        return self._chord(self._mixture(theta), s_ids, s_vals, np.empty(self._counts.size), self._keep)


class _Carried:
    """Steps that carry the point state their g formed last (the mixture,
    or a penalty's (y, dphi(y))) to the next gradient and chord, with no
    memo read or written.  It is the current point's only because a
    rolled-back step ends the solve.  finish() memoizes it for g's last
    point, as the objective's own g would have."""

    _point = None

    def _keep(self, point, state) -> None:
        self._point, self._state = point, state

    def finish(self) -> None:
        if self._point is not None:
            self._f._keep(self._point, self._state)


class _CarriedMl(_Carried):
    """fw_solve's steps on an MlObjective: one scratch vector serves the
    gradient and every probe."""

    def __init__(self, objective: MlObjective, theta: np.ndarray):
        self._f, self._state = objective, objective._mixture(theta)
        self._scratch = np.empty(objective._counts.size)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        f = self._f
        return f.term_columns.dot(np.divide(f._counts, self._state, self._scratch))

    def line_restriction(self, theta, s_ids, s_vals):
        return self._f._chord(self._state, s_ids, s_vals, self._scratch, self._keep)


class LogPenalty(Objective):
    """h(theta) = phi(y) for a concave phi of y = log theta - mean (mean
    None: log theta); interior only.  A subclass gives phi(y, dphi(y)),
    dphi(y) and the form d2phi(u) = u . phi'' u, phi'' constant for both
    priors.  The gradient is dphi(y) / theta; along a chord with direction
    d, at the point x and with u = d / x, the slope is dphi(y) . u and the
    curvature d2phi(u) - dphi(y) . (u * u).  Like the likelihood's mixture,
    (y, dphi(y)) is memoized at the last theta for value, gradient, chord at
    0; fw_solve carries it from step to step instead (solve_steps).
    """

    domain = INTERIOR_ONLY
    mean = None
    _memo = (None, None)

    def _point_state(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, dphi(y)) at theta, formed; a point off the interior is refused."""
        _check_interior(theta, self.dim)
        y = np.log(theta) if self.mean is None else np.log(theta) - self.mean
        return y, self._dphi(y)

    def _state(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, dphi(y)) at theta, formed only when theta's bytes change."""
        key, (memo_key, state) = theta.tobytes(), self._memo
        if key != memo_key:
            self._memo = (key, state := self._point_state(theta))
        return state

    def _keep(self, point, state) -> None:
        self._memo = (point.tobytes(), state)

    def value(self, theta: np.ndarray) -> float:
        return self._phi(*self._state(np.asarray(theta, dtype=np.float64)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        return self._state(theta)[1] / theta

    def _chord(self, base, state, s_ids, s_vals, scratch, keep):
        """(g, dg) along the chord from base toward the target s: state()
        is (y, dphi(y)) at base, read by the probe at 0 only; g(a, point)
        hands keep(point, state) the state it values.  The five vectors of
        scratch hold the target, the direction and dg's three."""
        # Scratch arrays, as dphi may return a stored array.  x is formed
        # from two products: base + a * direction would keep only about
        # eps / (1 - a) relative precision where the target is 0.
        target, direction, x, y, u = scratch
        target.fill(0.0)
        target[s_ids] = s_vals
        np.subtract(target, base, direction)
        mean, dphi, d2phi = self.mean, self._dphi, self._d2phi
        lowest = float(np.minimum.reduce(base))

        def g(a: float, point: np.ndarray | None = None) -> float:
            point = (1.0 - a) * base + a * target if point is None else point
            keep(point, point_state := self._point_state(point))
            return self._phi(*point_state)

        def dg(a: float) -> tuple[float, float]:
            if a == 0.0:  # at base, whose state refuses a face
                point, dphi_y = base, state()[1]
            else:
                np.multiply(base, 1.0 - a, x)
                np.multiply(target, a, y)
                np.add(x, y, x)
                if not lowest * (1.0 - a) > 0.0:  # else x >= that, as rounding is monotone
                    _check_interior(x, self.dim)
                np.log(x, y)
                if mean is not None:
                    np.subtract(y, mean, y)
                point, dphi_y = x, dphi(y)
            np.divide(direction, point, u)
            np.multiply(u, u, x)
            return float(dphi_y.dot(u)) + 0.0, d2phi(u) - float(dphi_y.dot(x))

        return g, dg

    def line_restriction(self, theta, s_ids, s_vals):
        base = np.asarray(theta, dtype=np.float64)
        scratch = tuple(np.empty(self.dim) for _ in range(5))
        return self._chord(base, lambda: self._state(base), s_ids, s_vals, scratch, self._keep)


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
        self.dim = a.size
        self._lam = a - 1.0

    def _phi(self, y: np.ndarray, dphi_y: np.ndarray) -> float:
        return float(self._lam.dot(y)) + 0.0

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
        return 0.5 * float(y.dot(dphi_y)) + 0.0

    def _dphi(self, y: np.ndarray) -> np.ndarray:
        return self._d2.dot(y)

    def _d2phi(self, u: np.ndarray) -> float:
        return float(u.dot(self._d2.dot(u))) + 0.0


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

        def g(a: float, point: np.ndarray | None = None) -> float:
            return g1(a, point) + g2(a, point)

        def dg(a: float) -> tuple[float, float]:
            (slope1, curvature1), (slope2, curvature2) = dg1(a), dg2(a)
            return slope1 + slope2, curvature1 + curvature2

        return g, dg


class _CarriedPenalty(_Carried):
    """fw_solve's steps on a Gaussian or Dirichlet log penalty: the chord
    writes into vectors owned for the solve."""

    def __init__(self, penalty: LogPenalty, theta: np.ndarray):
        self._f, self._state = penalty, penalty._state(theta)
        self._scratch = tuple(np.empty(penalty.dim) for _ in range(5))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._state[1] / theta

    def line_restriction(self, theta, s_ids, s_vals):
        state = self._state
        return self._f._chord(theta, lambda: state, s_ids, s_vals, self._scratch, self._keep)


class _CarriedSum:
    """fw_solve's steps on a likelihood plus a log penalty: the sum's own
    gradient and chord over both parts' carried steps."""

    gradient, line_restriction = PenalizedObjective.gradient, PenalizedObjective.line_restriction

    def __init__(self, objective: PenalizedObjective, theta: np.ndarray):
        self.base, self.penalty = _CarriedMl(objective.base, theta), _CarriedPenalty(objective.penalty, theta)

    def finish(self) -> None:
        self.base.finish()
        self.penalty.finish()


def solve_steps(objective, theta: np.ndarray):
    """What fw_solve steps on from theta: gradient and line_restriction,
    and finish() once the solve ends when it is not the objective itself.
    Only objectives whose classes are exactly those below get carried
    steps; a subclass or wrapper may override or intercept the methods."""
    if type(objective) is MlObjective:
        return _CarriedMl(objective, theta)
    if type(objective) is PenalizedObjective and type(objective.base) is MlObjective and (
        type(objective.penalty) in (GaussianLogPenalty, DirichletLogPenalty)
    ):
        return _CarriedSum(objective, theta)
    return objective


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
    return np.exp(np.minimum(prior.mean, 0.0))

