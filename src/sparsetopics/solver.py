"""The conditional-gradient (Frank-Wolfe) solver over the simplex and the
capped simplex.

Over the whole simplex each step moves toward a single vertex, so a run
of ell steps from a vertex start touches at most ell + 1 coordinates;
that is the whole sparsity story.  A capped region only changes the
linear subproblem (a greedy fill against per-coordinate caps) and the
start point, and shares every other instruction, which keeps its iterates
bitwise identical to the barycenter solve when all caps are one.

Each step costs one gradient, one linear subproblem and a one-dimensional
search: a Brent root search on the derivative of the objective along the
step, accurate to SolverConfig.line_search_tol.  The best-vertex start
scores all K vertices in one pass when the objective can (vertex_values).
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
    converged,
)
from .errors import (
    InfeasibleRegionError,
    InvalidArgumentError,
    InvalidConfigError,
    NonconcavePriorError,
    NumericFailureError,
)
from .objectives import INTERIOR_ONLY, Objective, is_concave, vertex_values

# Support entries below this are squashed to exact zero (full-simplex runs).
PRUNE_TOL = 1e-15

# Interior-only objectives never step all the way onto a face.
ALPHA_MARGIN = 1e-9

# Machine epsilon; the line search never asks for a bracket finer than
# rounding at its estimate.
_EPS = float(np.finfo(np.float64).eps)


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


def _probe(dg: Callable[[float], float], a: float) -> float:
    d = dg(a)
    if math.isnan(d):
        raise NumericFailureError("NaN in line-search derivative")
    return d


def line_search(
    dg: Callable[[float], float],
    *,
    tol: float = 1e-10,
    max_steps: int = 60,
    upper: float = 1.0,
) -> float:
    """Maximize a concave scalar function on [0, upper], given only its
    derivative dg, by finding where dg changes sign.

    Concavity makes dg nonincreasing: dg(0) <= 0 returns 0 and
    dg(upper) >= 0 returns upper.  Otherwise Brent's zeroin (Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 4) keeps a
    bracket [b, c] around the sign change and steps from b, the end with
    the smaller |dg|, by inverse quadratic or linear interpolation when
    that step stays well inside the bracket and shrinks fast enough, and
    by bisection when it does not.  It returns b once the bracket is
    narrower than tol (or than rounding at b), at a probe where dg is
    exactly 0, or after max_steps interior probes; dg is called at most
    max_steps + 2 times.  Where dg is flat at its root (a multiple root)
    interpolation converges only linearly and the step budget can run out
    first.  A NaN from dg aborts the whole solve.
    """
    if not (0.0 < upper <= 1.0):
        raise InvalidArgumentError("upper must lie in (0, 1]")
    fa = _probe(dg, 0.0)
    if fa <= 0.0:
        return 0.0
    fb = _probe(dg, upper)
    if fb >= 0.0:
        return upper
    # b: current estimate; c: the far end of the bracket; a: the previous b.
    # d is the last step and e the one before it.
    a, b, c, fc = 0.0, upper, 0.0, fa
    d = e = upper
    for _ in range(max_steps):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        min_step = 2.0 * _EPS * abs(b) + 0.5 * tol
        if abs(half) <= min_step:
            break
        if abs(e) >= min_step and abs(fa) > abs(fb):
            # Secant through a and b when a is the far end, inverse
            # quadratic through a, b and c otherwise.
            s = fb / fa
            if a == c:
                p = 2.0 * half * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Keep the step only if it lands inside the bracket and is under
            # half the step before last; otherwise bisect.
            if 2.0 * p < min(3.0 * half * q - abs(min_step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > min_step else math.copysign(min_step, half)
        fb = _probe(dg, b)
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


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


def _require_concave(objective) -> None:
    # The derivative root search and the convergence guarantee both rest on
    # concavity, so an uncertified objective is refused before it is
    # evaluated.
    if not is_concave(objective):
        raise NonconcavePriorError(
            "nonconcave-prior: the objective is not certified concave; a "
            "log-normal (CTM) precision matrix must have no negative entry"
        )


def _solve_loop(objective, theta, start_vertex, lp, config, interior, t0):
    """FW steps from theta; returns (InferenceReport, Trace)."""
    k = theta.size
    upper = 1.0 - ALPHA_MARGIN if interior else 1.0
    nnz = int(np.count_nonzero(theta))
    if config.max_nnz is not None and nnz > config.max_nnz:
        raise InvalidConfigError(
            f"max_nnz = {config.max_nnz} cannot cap a start point with {nnz} "
            "nonzeros; use a vertex start"
        )
    f_prev = objective.value(theta)
    if math.isnan(f_prev):
        raise NumericFailureError("objective is NaN at the start point")
    records = [TraceRecord(0, f_prev, nnz, start_vertex, 0.0)]
    iter_cap = config.max_iters
    if config.max_nnz is not None and config.max_nnz < k:
        # Dense starts were refused above; from a vertex each step adds at
        # most one coordinate.  With max_nnz >= K there is nothing to cap.
        iter_cap = min(iter_cap, config.max_nnz - nnz)
    iterations = 0
    for step in range(1, iter_cap + 1):
        grad = objective.gradient(theta)
        if np.isnan(grad).any():
            raise NumericFailureError("gradient is NaN")
        s_ids, s_vals, lead = lp(grad)
        _, dg = objective.line_restriction(theta, s_ids, s_vals)
        alpha = line_search(
            dg,
            tol=config.line_search_tol,
            max_steps=config.line_search_max_steps,
            upper=upper,
        )
        previous = theta.copy()
        nnz_prev = nnz
        theta *= 1.0 - alpha
        theta[s_ids] += alpha * s_vals
        nnz = int(np.count_nonzero(theta))
        if not interior:
            # theta >= 0, so an entry in (0, PRUNE_TOL) exists iff more
            # entries lie below PRUNE_TOL than are zero.
            below = int(np.count_nonzero(theta < PRUNE_TOL))
            if below > k - nnz:
                theta[theta < PRUNE_TOL] = 0.0
                theta /= theta.sum()
                nnz = k - below
        f_curr = objective.value(theta)
        if math.isnan(f_curr):
            raise NumericFailureError("objective is NaN")
        if f_curr < f_prev:
            # Float jitter produced a downhill step; keep the old point.
            theta = previous
            nnz = nnz_prev
            f_curr = f_prev
            alpha = 0.0
        iterations = step
        records.append(TraceRecord(step, f_curr, nnz, lead, alpha))
        done = converged(f_prev, f_curr, config.rel_tol)
        f_prev = f_curr
        if done:
            break
    point = TopicProportion.from_dense(theta / theta.sum())
    report = InferenceReport(
        theta=point,
        iterations=iterations,
        objective=f_prev,
        seconds=time.perf_counter() - t0,
        nnz=point.nnz,
    )
    return report, Trace(tuple(records))


def fw_solve(
    objective: Objective,
    config: SolverConfig | None = None,
    *,
    caps: np.ndarray | None = None,
):
    """Maximize a concave objective over the simplex or a capped simplex.

    Returns (InferenceReport, Trace).  The feasible region is
    {theta in simplex : theta <= caps}, where caps defaults to the
    objective's own certified caps (its caps attribute); without either it
    is the whole simplex.  On the whole simplex the linear step is the
    argmax vertex and the solve starts from config.start: the best vertex
    (highest objective value, ties to the lowest index) or the barycenter.
    On a capped region the linear step is a greedy fill against the caps
    and the solve starts from caps / sum(caps); with caps of all ones that
    reproduces the barycenter solve exactly, step for step.

    Interior-only objectives require start='barycenter' on either region.
    Objectives flagged nonconcave, and caps above the objective's certified
    caps, raise NonconcavePriorError.
    """
    _require_concave(objective)
    config = config or SolverConfig()
    k = objective.dim
    if k < 1:
        raise InvalidArgumentError("need at least one topic")
    certified = getattr(objective, "caps", None)
    if caps is None:
        caps = certified
    if caps is not None:
        caps = np.asarray(caps, dtype=np.float64)
        if caps.shape != (k,):
            raise InvalidArgumentError("caps length must match the objective dimension")
        _validate_caps(caps)
        if certified is not None and np.any(caps > certified):
            raise NonconcavePriorError(
                "nonconcave-prior: caps exceed the region where the objective "
                "is certified concave; solve within its own caps"
            )
    interior = objective.domain == INTERIOR_ONLY
    if interior and config.start != START_BARYCENTER:
        raise InvalidConfigError(
            "interior-only objectives cannot start from a vertex; "
            "use start='barycenter'"
        )
    t0 = time.perf_counter()
    start_vertex = -1
    if caps is not None:
        theta = caps / caps.sum()
    elif config.start == START_BEST_VERTEX:
        values = vertex_values(objective)
        if np.any(np.isnan(values)):
            raise NumericFailureError("objective is NaN at a vertex")
        start_vertex = int(np.argmax(values))
        theta = np.zeros(k)
        theta[start_vertex] = 1.0
    else:
        theta = np.full(k, 1.0 / k)
    one = np.array([1.0])

    def lp(grad):
        if caps is not None:
            return _greedy_capped(grad, caps)
        lead = int(np.argmax(grad))
        return np.array([lead], dtype=np.int64), one, lead

    return _solve_loop(objective, theta, start_vertex, lp, config, interior, t0)


def fw_solve_capped(objective: Objective, caps: np.ndarray, config: SolverConfig | None = None):
    """fw_solve over {theta <= caps}; kept under this name for old callers."""
    return fw_solve(objective, config, caps=caps)
