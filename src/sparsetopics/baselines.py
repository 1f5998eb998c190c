"""Reference inference methods used for comparisons: a per-document EM
fixed-point update (folding-in) and mean-field variational inference.

Both honor the same stopping knobs as the simplex solver (max_iters,
rel_tol) so timing and quality comparisons are apples to apples.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import Document, InferenceReport, SolverConfig, TopicMatrix, TopicProportion, converged
from .errors import InvalidArgumentError, NumericFailureError
from .objectives import MlObjective


def folding_in(
    document: Document,
    topics: TopicMatrix,
    config: SolverConfig | None = None,
):
    """EM fixed-point iteration for a single document's proportions.

    Starts at the barycenter and applies

        theta_k <- theta_k * sum_j d_j beta_kj / (theta . beta_:j) / |d|

    which never revives an exactly-zero coordinate.  Returns the report and
    the per-iteration log-likelihood trace (non-decreasing).  A NaN or
    infinite objective (an overflow) raises NumericFailureError, as in
    fw_solve.
    """
    config = config or SolverConfig()
    objective = MlObjective(document, topics)
    k = topics.num_topics
    length = document.length

    t0 = time.perf_counter()
    theta = np.full(k, 1.0 / k)
    # Steps at a point form its mixture once, for its value and gradient.
    steps = objective.steps(theta, -1)
    f_prev = steps.value(theta)
    if not math.isfinite(f_prev):
        raise NumericFailureError(f"objective is {f_prev} at the start point")
    trace = [f_prev]
    iterations = 0
    for step in range(1, config.max_iters + 1):
        theta_next = theta * steps.gradient(theta) / length
        steps_next = objective.steps(theta_next, -1)
        f_curr = steps_next.value(theta_next)
        if not math.isfinite(f_curr):
            raise NumericFailureError(f"objective is {f_curr}")
        if f_curr < f_prev:
            # EM is monotone; a float dip means we are at the fixed point.
            break
        theta, steps = theta_next, steps_next
        iterations = step
        trace.append(f_curr)
        done = converged(f_prev, f_curr, config.rel_tol)
        f_prev = f_curr
        if done:
            break
    report = InferenceReport(
        theta=TopicProportion.from_dense(theta / theta.sum()),
        iterations=iterations,
        objective=f_prev,
        seconds=time.perf_counter() - t0,
    )
    return report, trace


def vb_infer(
    document: Document,
    topics: TopicMatrix,
    alpha,
    config: SolverConfig | None = None,
):
    """Mean-field variational inference for one document.

    Alternates phi_jk proportional to beta_kj * exp(digamma(gamma_k)) with
    gamma_k = alpha_k + sum_j d_j phi_jk, starting from uniform phi, until
    the mean absolute relative change of gamma drops below rel_tol.  The
    point estimate is gamma normalized, so the support is always dense.

    Returns (InferenceReport, gamma), gamma being the final Dirichlet
    posterior parameters as a read-only array.  A NaN or infinite
    objective at the point estimate raises NumericFailureError.
    """
    # Imported here so that importing the package loads numpy only.
    from scipy.special import digamma

    config = config or SolverConfig()
    k = topics.num_topics
    a = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if a.size == 1:
        a = np.full(k, float(a[0]))
    if a.shape != (k,) or np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise InvalidArgumentError("alpha must be positive (scalar or length-K vector)")
    objective = MlObjective(document, topics)
    counts = document.counts
    log_cols = np.log(objective.term_columns)

    t0 = time.perf_counter()
    # Uniform phi gives the first gamma directly.
    gamma = a + document.length / k
    iterations = 1
    for step in range(2, config.max_iters + 1):
        scores = log_cols + digamma(gamma)[:, None]
        scores -= scores.max(axis=0)
        phi = np.exp(scores)
        phi /= phi.sum(axis=0)
        gamma_next = a + phi @ counts
        change = float(np.mean(np.abs(gamma_next - gamma) / gamma))
        gamma = gamma_next
        iterations = step
        if change < config.rel_tol:
            break
    theta = gamma / gamma.sum()
    value = objective.value(theta)
    if not math.isfinite(value):
        raise NumericFailureError(f"objective is {value}")
    report = InferenceReport(
        theta=TopicProportion.from_dense(theta),
        iterations=iterations,
        objective=value,
        seconds=time.perf_counter() - t0,
    )
    gamma.setflags(write=False)
    return report, gamma
