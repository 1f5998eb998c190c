"""Conditional-gradient solvers over the simplex and the capped simplex.

The uncapped solver moves toward a single vertex per step, so a run of
ell steps from a vertex start touches at most ell + 1 coordinates; that
is the whole sparsity story.  The capped variant only changes the inner
linear subproblem (a greedy fill against per-coordinate caps) and shares
every other instruction, which keeps its iterates bitwise identical to
the plain solver when all caps are one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np

from .core import (
    START_BARYCENTER,
    START_BEST_VERTEX,
    InferenceReport,
    SolverConfig,
    TopicProportion,
)
from .errors import (
    InfeasibleRegionError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericFailureError,
)
from .objectives import INTERIOR_ONLY, Objective

# Support entries below this are squashed to exact zero (full-simplex runs).
PRUNE_TOL = 1e-15

# Interior-only objectives never step all the way onto a face.
ALPHA_MARGIN = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One row of a solver trace; record 0 is the starting point with
    vertex = start index (or -1 for non-vertex starts) and alpha = 0."""

    iteration: int
    objective: float
    nnz: int
    vertex: int
    alpha: float


@dataclasses.dataclass(frozen=True)
class Trace:
    records: tuple[TraceRecord, ...]

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


def line_search(
    g: Callable[[float], float],
    dg: Callable[[float], float] | None = None,
    tol: float = 1e-10,
    max_steps: int = 60,
    upper: float = 1.0,
) -> float:
    """Maximize a concave scalar function on [0, upper].

    With a derivative, bisect on its sign (concavity makes it monotone
    nonincreasing); otherwise fall back to golden-section on values.  A NaN
    from either callable aborts the whole solve.
    """
    if not (0.0 < upper <= 1.0):
        raise InvalidArgumentError("upper must lie in (0, 1]")
    if dg is not None:
        d = dg(0.0)
        if math.isnan(d):
            raise NumericFailureError("NaN in line-search derivative")
        if d <= 0.0:
            return 0.0
        d = dg(upper)
        if math.isnan(d):
            raise NumericFailureError("NaN in line-search derivative")
        if d >= 0.0:
            return upper
        lo, hi = 0.0, upper
        for _ in range(max_steps):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            d = dg(mid)
            if math.isnan(d):
                raise NumericFailureError("NaN in line-search derivative")
            if d > 0.0:
                lo = mid
            elif d < 0.0:
                hi = mid
            else:
                return mid
        return 0.5 * (lo + hi)

    lo, hi = 0.0, upper
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    gc, gd = g(c), g(d)
    if math.isnan(gc) or math.isnan(gd):
        raise NumericFailureError("NaN in line-search objective")
    for _ in range(max_steps):
        if hi - lo <= tol:
            break
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INV_PHI * (hi - lo)
            gc = g(c)
            if math.isnan(gc):
                raise NumericFailureError("NaN in line-search objective")
        else:
            lo, c, gc = c, d, gd
            d = lo + _INV_PHI * (hi - lo)
            gd = g(d)
            if math.isnan(gd):
                raise NumericFailureError("NaN in line-search objective")
    return 0.5 * (lo + hi)


def _greedy_capped(scores: np.ndarray, caps: np.ndarray):
    """Maximize scores . s over {0 <= s <= caps, sum s = 1} by filling
    coordinates in descending score order (stable sort, so ties go to the
    lowest index).  Returns (ids, values, lead vertex)."""
    order = np.argsort(-scores, kind="stable")
    ids = []
    vals = []
    remaining = 1.0
    for k in order:
        cap = caps[k]
        if cap < remaining:
            take = float(cap)
            remaining -= take
        else:
            take = remaining
            remaining = 0.0
        ids.append(int(k))
        vals.append(take)
        if remaining == 0.0:
            break
    return np.array(ids, dtype=np.int64), np.array(vals), int(order[0])


def capped_simplex_argmax(scores: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Dense maximizer of a linear function over the capped simplex."""
    scores = np.asarray(scores, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    if scores.shape != caps.shape or scores.ndim != 1:
        raise InvalidArgumentError("scores and caps must be equal-length vectors")
    _validate_caps(caps)
    ids, vals, _ = _greedy_capped(scores, caps)
    out = np.zeros(scores.size)
    out[ids] = vals
    return out


def _validate_caps(caps: np.ndarray) -> None:
    if not np.all(np.isfinite(caps)) or np.any(caps <= 0) or np.any(caps > 1.0):
        raise InvalidArgumentError("caps must lie in (0, 1]")
    if caps.sum() < 1.0:
        raise InfeasibleRegionError(
            "caps sum to less than one; no feasible point exists"
        )


def _solve_loop(objective, theta, start_vertex, lp, config, prune, upper):
    f_prev = objective.value(theta)
    if math.isnan(f_prev):
        raise NumericFailureError("objective is NaN at the start point")
    records = [TraceRecord(0, f_prev, int(np.count_nonzero(theta)), start_vertex, 0.0)]
    iter_cap = config.max_iters
    if config.max_nnz is not None:
        iter_cap = min(iter_cap, config.max_nnz - 1)
    iterations = 0
    for step in range(1, iter_cap + 1):
        grad = objective.gradient(theta)
        if np.any(np.isnan(grad)):
            raise NumericFailureError("gradient is NaN")
        s_ids, s_vals, lead = lp(grad)
        g, dg = objective.line_restriction(theta, s_ids, s_vals)
        alpha = line_search(
            g,
            dg,
            tol=config.line_search_tol,
            max_steps=config.line_search_max_steps,
            upper=upper,
        )
        previous = theta.copy()
        theta *= 1.0 - alpha
        theta[s_ids] += alpha * s_vals
        if prune:
            small = (theta > 0.0) & (theta < PRUNE_TOL)
            if small.any():
                theta[small] = 0.0
                theta /= theta.sum()
        f_curr = objective.value(theta)
        if math.isnan(f_curr):
            raise NumericFailureError("objective is NaN")
        if f_curr < f_prev:
            # Float jitter produced a downhill step; keep the old point.
            theta = previous
            f_curr = f_prev
            alpha = 0.0
        iterations = step
        records.append(
            TraceRecord(step, f_curr, int(np.count_nonzero(theta)), lead, alpha)
        )
        denom = abs(f_prev)
        delta = abs(f_curr - f_prev)
        f_prev = f_curr
        if (delta < config.rel_tol * denom) or (denom < 1e-12 and delta < config.rel_tol):
            break
    return theta, f_prev, iterations, records


def _finish(theta, f_final, iterations, records, t0):
    theta = theta / theta.sum()
    point = TopicProportion.from_dense(theta)
    report = InferenceReport(
        theta=point,
        iterations=iterations,
        objective=f_final,
        seconds=time.perf_counter() - t0,
        nnz=point.nnz,
    )
    return report, Trace(tuple(records))


def fw_solve(
    objective: Objective,
    num_topics: int | None = None,
    config: SolverConfig | None = None,
):
    """Maximize a concave objective over the simplex.

    Returns (InferenceReport, Trace).  The best-vertex start picks the
    vertex with the highest objective value (ties to the lowest index);
    interior-only objectives require the barycenter start.
    """
    config = config or SolverConfig()
    k = objective.dim if num_topics is None else num_topics
    if k < 1:
        raise InvalidArgumentError("need at least one topic")
    if k != objective.dim:
        raise InvalidArgumentError(
            f"num_topics = {k} does not match the objective dimension {objective.dim}"
        )
    interior = objective.domain == INTERIOR_ONLY
    if interior and config.start != START_BARYCENTER:
        raise InvalidConfigError(
            "interior-only objectives cannot start from a vertex; "
            "use start='barycenter'"
        )
    t0 = time.perf_counter()
    if config.start == START_BEST_VERTEX:
        values = np.empty(k)
        basis = np.zeros(k)
        for i in range(k):
            basis[i] = 1.0
            values[i] = objective.value(basis)
            basis[i] = 0.0
        if np.any(np.isnan(values)):
            raise NumericFailureError("objective is NaN at a vertex")
        start_vertex = int(np.argmax(values))
        theta = np.zeros(k)
        theta[start_vertex] = 1.0
    else:
        start_vertex = -1
        theta = np.full(k, 1.0 / k)

    one = np.array([1.0])

    def lp(grad):
        lead = int(np.argmax(grad))
        return np.array([lead], dtype=np.int64), one, lead

    theta, f_final, iterations, records = _solve_loop(
        objective,
        theta,
        start_vertex,
        lp,
        config,
        prune=not interior,
        upper=1.0 if not interior else 1.0 - ALPHA_MARGIN,
    )
    return _finish(theta, f_final, iterations, records, t0)


def fw_solve_capped(
    objective: Objective,
    caps: np.ndarray,
    config: SolverConfig | None = None,
):
    """Maximize a concave objective over {theta in simplex : theta <= caps}.

    Starts from caps / sum(caps) regardless of config.start.  With caps of
    all ones this reproduces fw_solve from the barycenter exactly, step for
    step.
    """
    config = config or SolverConfig()
    caps = np.asarray(caps, dtype=np.float64)
    if caps.ndim != 1 or caps.size != objective.dim:
        raise InvalidArgumentError("caps length must match the objective dimension")
    _validate_caps(caps)
    interior = objective.domain == INTERIOR_ONLY
    t0 = time.perf_counter()
    theta = caps / caps.sum()

    def lp(grad):
        return _greedy_capped(grad, caps)

    theta, f_final, iterations, records = _solve_loop(
        objective,
        theta,
        -1,
        lp,
        config,
        prune=not interior,
        upper=1.0 if not interior else 1.0 - ALPHA_MARGIN,
    )
    return _finish(theta, f_final, iterations, records, t0)
