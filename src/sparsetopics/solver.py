"""The conditional-gradient (Frank-Wolfe) solver over the simplex and the
capped simplex.

Over the whole simplex each step moves toward a single vertex, so a run
of ell steps from a vertex start touches at most ell + 1 coordinates;
that is the whole sparsity story.  A capped region only changes the
linear subproblem (a greedy fill against per-coordinate caps) and the
start point, and shares every other instruction, which keeps its iterates
bitwise identical to the barycenter solve when all caps are one.

Each step costs one gradient, one linear subproblem and a one-dimensional
search: a Newton root search on the slope along the step that crosses a
pole of the slope in log distance and returns a Newton point unprobed once
the last two steps bound its error within line_search's default tol of
1e-10.  The best-vertex start comes from objectives.best_vertex.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

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
from .objectives import INTERIOR_ONLY, Objective, best_vertex, is_concave, solve_steps

# Interior-only objectives never step all the way onto a face.
ALPHA_MARGIN = 1e-9

# Machine epsilon; the line search never asks for a bracket finer than
# rounding at its estimate.
_EPS = float(np.finfo(np.float64).eps)

# A full-simplex step's vertex weight, built once: np.ones(1) per step is slow.
_VERTEX_WEIGHT = np.ones(1)
_VERTEX_WEIGHT.setflags(write=False)


class TraceRecord(NamedTuple):
    """One row of a solver trace; record 0 is the starting point with
    vertex = start index (or -1 for non-vertex starts) and alpha = 0."""

    iteration: int
    objective: float
    nnz: int
    vertex: int
    alpha: float


def line_search(
    dg: Callable[[float], tuple[float, float]],
    *,
    tol: float = 1e-10,
    max_steps: int = 60,
    upper: float = 1.0,
) -> float:
    """Maximize a concave scalar function on [0, upper], given dg(a) =
    (slope, curvature), by finding where the slope changes sign.

    Concavity makes the slope nonincreasing: a slope <= 0 at 0 returns 0,
    and one >= 0 at upper returns upper.  Otherwise Newton steps run from 0
    inside the sign bracket [lo, hi]: one that reaches upper probes it, and
    one that leaves the bracket, or a curvature that is not finite and
    negative (0.0 means unknown), bisects instead.  A step that rounds away
    (b + step == b) returns b, within an ulp of the root.  A step at least
    as long as the way back to 0 (or to upper) meets a pole of the slope
    just past that end, where Newton only doubles its distance per probe;
    the next probe is then the geometric midpoint of the distances to
    that end when it lies beyond the Newton point.  A Newton point is
    returned unprobed when it follows a Newton step the same way at least as
    long (next to a pole of the slope, short steps come far from the root,
    and they grow or turn back) and, with rho = step / last, |step| min(1,
    rho^2 / (1 - rho)) is within 0.5 * tol (or rounding): its error is then
    about |step| rho^2 near a simple root, and at most tol at a triple root
    (rho = 2/3).  A probe where the slope is exactly 0 is returned, and so
    is the next estimate once the bracket is within tol or max_steps probes
    past 0 are spent.  A result within 0.5 * tol of 0 gains nothing and is
    exactly 0.0.  A NaN or infinite slope (an overflow) aborts the solve.
    """
    if not (0.0 < upper <= 1.0):
        raise InvalidArgumentError("upper must lie in (0, 1]")
    b = lo = 0.0
    hi = upper
    open_top = True  # hi is upper, whose slope is not known yet
    last = math.inf  # the Newton step that reached b; inf after other probes
    for probes_left in range(max_steps, -1, -1):
        d, c = dg(b)
        if not math.isfinite(d):
            raise NumericFailureError(f"line-search derivative is {d}")
        if d > 0.0:
            if b == upper:
                return upper
            lo = b
        elif d < 0.0 and b > 0.0:
            hi, open_top = b, False
        else:
            break
        step = -d / c if -math.inf < c < 0.0 else math.copysign(math.inf, d)
        if b + step == b:
            break
        b += step
        if lo < b < hi:
            far = b  # past a pole behind the last probe: the geometric midpoint
            if step >= lo > 0.0:  # stepping up from lo
                far = math.sqrt(lo * hi)
            elif step <= hi - upper:  # stepping down from hi
                far = upper - math.sqrt((upper - hi) * (upper - lo))
            if (far - b) * step > 0.0 and lo < far < hi:
                b, last = far, math.inf
            elif 0.0 < (rho := step / last) <= 1.0 and abs(step) * rho * rho <= (
                max(1.0 - rho, rho * rho) * (0.5 * tol + 2.0 * _EPS * b)
            ):
                break
            else:
                last = step
        elif b >= hi and open_top:
            b, last = upper, math.inf
        else:
            b, last = 0.5 * (lo + hi), math.inf
        if not probes_left or hi - lo <= tol + 4.0 * _EPS * hi:
            break
    return b if b > 0.5 * tol else 0.0


def _greedy_capped(scores: np.ndarray, caps: np.ndarray):
    """Maximize scores . s over {0 <= s <= caps, sum s = 1} by filling
    coordinates in descending score order (stable sort, so ties go to the
    lowest index).  Returns (ids, values)."""
    order = (-scores).argsort(kind="stable")
    ordered = caps[order].tolist()
    remaining = 1.0  # 1 - ordered[0] - ... - ordered[n-1], subtracted left to right
    for n, cap in enumerate(ordered):
        if not cap < remaining:
            # The first cap that does not fit under what is left takes the rest.
            ordered[n] = remaining
            return order[: n + 1], np.array(ordered[: n + 1])
        remaining -= cap
    return order, np.array(ordered)


def capped_simplex_argmax(scores: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Dense maximizer of a linear function over the capped simplex."""
    scores = np.asarray(scores, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    if scores.shape != caps.shape or scores.ndim != 1:
        raise InvalidArgumentError("scores and caps must be equal-length vectors")
    _validate_caps(caps)
    ids, vals = _greedy_capped(scores, caps)
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


def fw_solve(
    objective: Objective,
    config: SolverConfig | None = None,
    *,
    caps: np.ndarray | None = None,
):
    """Maximize a concave objective over the simplex or a capped simplex.

    Returns (InferenceReport, records), records a tuple of TraceRecord:
    the start point, then one per iteration.  The feasible region is
    {theta in simplex : theta <= caps}, where caps defaults to the
    objective's own certified caps (its caps attribute); without either it
    is the whole simplex.  On the whole simplex the linear step is the
    argmax vertex; on a capped region it is a greedy fill against the caps.

    The start is config.start when set, else derived: a capped region
    starts from caps / sum(caps) (with caps of all ones that reproduces the
    barycenter solve exactly, step for step), an interior-only objective
    from the barycenter, and any other objective from the best vertex
    (highest objective value, ties to the lowest index).  On a capped
    region start='barycenter' means caps / sum(caps); start='best-vertex'
    raises InvalidConfigError there, as on an interior-only objective.
    Objectives flagged nonconcave, and caps above the objective's
    certified caps, raise NonconcavePriorError.
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
    if config.start == START_BEST_VERTEX and (interior or caps is not None):
        raise InvalidConfigError(
            "interior-only objectives and capped regions cannot start from "
            "a vertex; use start='barycenter'"
        )
    t0 = time.perf_counter()
    start_vertex = -1
    if caps is not None:
        theta = caps / caps.sum()
    elif interior or config.start == START_BARYCENTER:
        theta = np.full(k, 1.0 / k)
    else:
        start_vertex = best_vertex(objective)
        theta = np.zeros(k)
        theta[start_vertex] = 1.0

    upper = 1.0 - ALPHA_MARGIN if interior else 1.0
    vertex_ids = np.arange(k).reshape(k, 1)  # row i is [i], a step's s_ids
    spare = np.empty(k)  # a step forms its point here; theta only if kept
    nnz = int(np.count_nonzero(theta))
    if config.max_nnz is not None and nnz > config.max_nnz:
        raise InvalidConfigError(
            f"max_nnz = {config.max_nnz} cannot cap a start point with {nnz} "
            "nonzeros; only the best-vertex start of an uncapped, "
            "full-simplex objective can be capped"
        )
    steps = solve_steps(objective, theta, start_vertex)
    f_prev = steps.value(theta)
    if not math.isfinite(f_prev):
        raise NumericFailureError(f"objective is {f_prev} at the start point")
    records = [TraceRecord(0, f_prev, nnz, start_vertex, 0.0)]
    iter_cap = config.max_iters
    if config.max_nnz is not None and config.max_nnz < k:
        # Dense starts were refused above; from a vertex each step adds at
        # most one coordinate.  With max_nnz >= K there is nothing to cap.
        iter_cap = min(iter_cap, config.max_nnz - nnz)
    iterations = 0
    for step in range(1, iter_cap + 1):
        grad = steps.gradient(theta)
        # An infinite gradient entry only picks the target; an overflow that
        # matters reaches the line-search derivative or the objective.
        # argmax returns the first NaN when there is one, and else the index
        # a capped fill takes first.
        lead = int(grad.argmax())
        if math.isnan(grad[lead]):
            raise NumericFailureError("gradient is NaN")
        if caps is None:
            s_ids, s_vals = vertex_ids[lead], _VERTEX_WEIGHT
        else:
            s_ids, s_vals = _greedy_capped(grad, caps)
        g, dg = steps.line_restriction(theta, s_ids, s_vals)
        alpha = line_search(dg, upper=upper)
        iterations = step
        if alpha == 0.0:
            # A zero step keeps theta, which g values at f_prev (the chord
            # starts from the state that reached theta), and equal values
            # have converged: the step's record, with no point formed.
            records.append(TraceRecord(step, f_prev, nnz, lead, 0.0))
            break
        np.multiply(theta, 1.0 - alpha, spare)
        if caps is None:
            spare[lead] += alpha
        else:
            spare[s_ids] += alpha * s_vals
        f_curr = g(alpha, spare)  # spare is the chord point at alpha
        if not math.isfinite(f_curr):
            raise NumericFailureError(f"objective is {f_curr}")
        if f_curr < f_prev:
            # Float jitter produced a downhill step; keep the old point.  Equal
            # values have converged, so this ends the solve (carried steps
            # rely on that).
            f_curr = f_prev
            alpha = 0.0
        else:
            theta, spare = spare, theta
            nnz = int(np.count_nonzero(theta))
        records.append(TraceRecord(step, f_curr, nnz, lead, alpha))
        done = converged(f_prev, f_curr, config.rel_tol)
        f_prev = f_curr
        if done:
            break
    ids = theta.nonzero()[0]  # over the full sum: the bits of theta / theta.sum()
    report = InferenceReport(
        theta=TopicProportion._adopt(ids, theta[ids] / theta.sum()),
        iterations=iterations,
        objective=f_prev,
        seconds=time.perf_counter() - t0,
    )
    return report, tuple(records)


def fw_solve_capped(objective: Objective, caps: np.ndarray, config: SolverConfig | None = None):
    """fw_solve over {theta <= caps}; kept under this name for old callers."""
    return fw_solve(objective, config, caps=caps)
