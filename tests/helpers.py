"""Independent oracles used by the tests: finite differences, exhaustive
and zoomed grid search over the simplex, a brute-force capped LP, the
capped linear step as a loop, a bisection line search, the
likelihood with its chord in the plain six-pass form, the dense default
chord and the log-normal penalty's Hessian; the objective values of a
solver trace; two wrappers that forward an objective's attributes, its
steps included, as the benchmark's tracing wrapper does, one that solves
an objective through its methods, with no steps, and a base for wrappers
that intercept a solve's calls on an objective's steps; a bitwise
comparison of two traces.

Nothing in here calls the solvers under test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sparsetopics import CtmPrior, Document, TopicMatrix
from sparsetopics.objectives import MlObjective, Objective, PenalizedObjective, solve_steps


def finite_diff_gradient(f, x, h=1e-6):
    """Central differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def finite_diff_hessian(grad_fn, x, h=1e-6):
    """Central differences of a gradient function; returns a K x K matrix."""
    x = np.asarray(x, dtype=np.float64)
    k = x.size
    hess = np.zeros((k, k))
    for i in range(k):
        step = np.zeros_like(x)
        step[i] = h
        hess[:, i] = (grad_fn(x + step) - grad_fn(x - step)) / (2.0 * h)
    return hess


@lru_cache(maxsize=None)
def _compositions(units: int, k: int) -> np.ndarray:
    """All length-k integer vectors with nonnegative entries summing to
    `units`, as an (N, k) array."""
    if k == 1:
        return np.array([[units]], dtype=np.int64)
    if k == 2:
        a = np.arange(units + 1, dtype=np.int64)
        return np.stack([a, units - a], axis=1)
    blocks = []
    for c in range(units + 1):
        sub = _compositions(units - c, k - 1)
        first = np.full((sub.shape[0], 1), c, dtype=np.int64)
        blocks.append(np.hstack([first, sub]))
    return np.vstack(blocks)


def _best_on_points(value_many, points: np.ndarray):
    """points: (N, K) simplex points; value_many maps a block to values."""
    best_val = -np.inf
    best_point = None
    for lo in range(0, points.shape[0], 200_000):
        block = points[lo : lo + 200_000]
        vals = value_many(block)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_point = block[i]
    return best_val, best_point


def _bounded_compositions(total, lows, highs):
    k = len(lows)
    if k == 1:
        if lows[0] <= total <= highs[0]:
            return np.array([[total]], dtype=np.int64)
        return np.empty((0, 1), dtype=np.int64)
    lo_rest = sum(lows[1:])
    hi_rest = sum(highs[1:])
    blocks = []
    start = max(lows[0], total - hi_rest)
    stop = min(highs[0], total - lo_rest)
    for c in range(start, stop + 1):
        sub = _bounded_compositions(total - c, lows[1:], highs[1:])
        if sub.shape[0]:
            first = np.full((sub.shape[0], 1), c, dtype=np.int64)
            blocks.append(np.hstack([first, sub]))
    if not blocks:
        return np.empty((0, k), dtype=np.int64)
    return np.vstack(blocks)


def grid_search_max(value_many, k: int, fine_units: int = 1000, force_stages: bool = False):
    """Best value of a concave function over the simplex grid with spacing
    1/fine_units.

    Dimensions up to three are searched exhaustively.  Higher dimensions
    use a coarse exhaustive pass followed by window refinements around the
    incumbent (valid because a concave function has a single basin); the
    result is a genuine feasible point's value, so it never overstates the
    maximum.  force_stages runs the staged path even in low dimensions so
    it can be validated against the exhaustive one.
    """
    if k <= 3 and not force_stages:
        points = _compositions(fine_units, k).astype(np.float64) / fine_units
        return _best_on_points(value_many, points)

    stages = [(50, None), (250, 10), (1000, 8)]
    center = None
    best_val, best_point = -np.inf, None
    for units, radius in stages:
        if center is None:
            grid = _compositions(units, k)
        else:
            lows = tuple(max(0, c - radius) for c in center)
            highs = tuple(min(units, c + radius) for c in center)
            grid = _bounded_compositions(units, lows, highs)
        val, point = _best_on_points(value_many, grid.astype(np.float64) / units)
        if val > best_val:
            best_val, best_point = val, point
        incumbent = np.rint(point * units).astype(int)
        scale = {50: 5, 250: 4, 1000: 1}[units]
        center = tuple(int(c) * scale for c in incumbent)
    return best_val, best_point


def ml_value_many(doc: Document, topics: TopicMatrix):
    """Vectorized document log-likelihood over a block of simplex points."""
    cols = topics.rows[:, doc.term_ids]
    counts = doc.counts

    def value(points: np.ndarray) -> np.ndarray:
        return np.log(points @ cols) @ counts

    return value


def brute_force_capped_lp(scores: np.ndarray, caps: np.ndarray) -> float:
    """Exact LP maximum over {0 <= s <= caps, sum s = 1} by enumerating
    polytope vertices: a saturated subset plus at most one fractional
    coordinate."""
    k = scores.size
    best = -np.inf
    for mask in range(1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        used = sum(caps[i] for i in members)
        if used > 1.0 + 1e-12:
            continue
        base = sum(scores[i] * caps[i] for i in members)
        rem = 1.0 - used
        if rem <= 1e-12:
            best = max(best, base)
            continue
        for j in range(k):
            if not (mask >> j & 1) and caps[j] >= rem - 1e-12:
                best = max(best, base + scores[j] * rem)
    return best


def greedy_capped_loop(scores: np.ndarray, caps: np.ndarray):
    """The capped linear step as a loop: fill coordinates in descending
    score order (stable, ties to the lowest index) to their caps until the
    unit mass is spent.  Returns (ids, values, lead vertex)."""
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


def greedy_capped_vectorized(scores: np.ndarray, caps: np.ndarray):
    """The capped linear step as whole-array numpy calls, the solver's own
    before its fill became a loop: the same (ids, values), bit for bit."""
    order = (-scores).argsort(kind="stable")
    ordered = caps[order]
    # remaining[i] = 1 - ordered[0] - ... - ordered[i-1], subtracted left
    # to right.
    remaining = np.empty(ordered.size)
    remaining[0] = 1.0
    remaining[1:] = ordered[:-1]
    np.subtract.accumulate(remaining, out=remaining)
    # Coordinates fill to their caps up to the first whose cap does not fit
    # under what is left; that one takes the rest.  fits[i] holds at its
    # argmin i only when every cap fits.
    fits = ordered < remaining
    n = ordered.size if fits[i := int(fits.argmin())] else i + 1
    return order[:n], np.minimum(ordered[:n], remaining[:n])


def bisection_line_search(dg, *, tol=1e-10, max_steps=60, upper=1.0):
    """Sign bisection of a nonincreasing slope on [0, upper], with the
    solver's line_search signature and defaults: dg(a) is (slope,
    curvature) and only the slope is read.  The endpoint shortcuts, then
    halve the bracket until it is narrower than tol and return its
    midpoint."""
    slope = lambda a: dg(a)[0]
    if slope(0.0) <= 0.0:
        return 0.0
    if slope(upper) >= 0.0:
        return upper
    lo, hi = 0.0, upper
    for _ in range(max_steps):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        d = slope(mid)
        if d > 0.0:
            lo = mid
        elif d < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def objectives(trace) -> np.ndarray:
    """The objective of each record of a solver trace, in order."""
    return np.array([r.objective for r in trace])


def assert_same_records(a, b) -> None:
    """Two solver traces, record for record, to the bits: repr tells -0.0
    from 0.0 and each NaN from a number.  A mismatch names the first
    differing record and both values, so pytest never diffs long reprs."""
    for i, (x, y) in enumerate(zip(a, b)):
        if repr(x) != repr(y):
            raise AssertionError(f"record {i} differs: {x!r} != {y!r}")
    if len(a) != len(b):
        raise AssertionError(f"{len(a)} records != {len(b)} records")


def replay_trace(k: int, trace) -> list:
    """The points of a plain (uncapped) solve, replayed from its trace: the
    start (its vertex, or the barycenter), then each step."""
    theta = np.full(k, 1.0 / k)
    if trace[0].vertex >= 0:
        theta = np.zeros(k)
        theta[trace[0].vertex] = 1.0
    points = [theta.copy()]
    for record in trace[1:]:
        theta *= 1.0 - record.alpha
        theta[record.vertex] += record.alpha
        points.append(theta.copy())
    return points


def random_ml_instance(rng, k: int, v: int):
    """A random topic matrix and a random document over it."""
    topics = TopicMatrix.normalized(rng.random((k, v)))
    n = int(rng.integers(2, v + 1))
    ids = np.sort(rng.choice(v, size=n, replace=False)).astype(np.int64)
    counts = rng.integers(1, 10, size=n).astype(np.float64)
    return topics, Document(ids, counts)


def interior_point(rng, k: int) -> np.ndarray:
    """A random simplex point bounded away from the boundary."""
    theta = rng.dirichlet(np.ones(k))
    return 0.9 * theta + 0.1 / k


class HookedSlab(np.ndarray):
    """A term-column slab that calls its hook() before every product
    theta . slab formed with it (slices of it have no hook)."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        hook = getattr(self, "hook", None)
        if hook is not None and ufunc is np.matmul and inputs[1] is self and np.ndim(inputs[0]) == 1:
            hook()
        plain = [x.view(np.ndarray) if isinstance(x, HookedSlab) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def hooked(f, hook):
    f.term_columns = f.term_columns.view(HookedSlab)
    f.term_columns.hook = hook
    return f


class Forwarding:
    """Forwards every attribute read to an objective, steps included, so
    fw_solve solves on the wrapped objective's own steps."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Delegating(Objective):
    """Runs each method as the wrapped object's class function on this
    wrapper and forwards attribute reads, as the benchmark's tracing
    wrapper does; a penalized objective's parts are wrapped too.  Objective
    defines no steps, so the read of steps is forwarded too, and fw_solve
    solves on the wrapped objective's own steps; line_restriction serves
    a wrapped object without steps."""

    def __init__(self, inner):
        self._inner, self._cls = inner, type(inner)
        self.dim, self.domain = inner.dim, inner.domain
        if isinstance(inner, PenalizedObjective):
            self.base, self.penalty = Delegating(inner.base), Delegating(inner.penalty)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def value(self, theta):
        return self._cls.value(self, theta)

    def gradient(self, theta):
        return self._cls.gradient(self, theta)

    def line_restriction(self, theta, s_ids, s_vals):
        return self._cls.line_restriction(self, theta, s_ids, s_vals)


class Stateless:
    """An objective with no steps: its value, gradient and chord each come
    from the objective's steps(theta, -1) at the theta they are called
    on, which form the point state afresh, and every other attribute read
    is forwarded.  fw_solve solves it through these methods, as any object
    without steps."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name == "steps":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def value(self, theta):
        return self.inner.steps(theta, -1).value(theta)

    def gradient(self, theta):
        return self.inner.steps(theta, -1).gradient(theta)

    def line_restriction(self, theta, s_ids, s_vals):
        return self.inner.steps(theta, -1).line_restriction(theta, s_ids, s_vals)


class Intercepting:
    """Base of a test wrapper that intercepts some of an objective's
    value, gradient and line_restriction, calling them on self.inner, and
    forwards every other attribute read to it.  Its steps() is a copy of
    the wrapper whose inner is the objective's own steps (the objective
    itself when it has none), so each call of a carried solve passes
    through the interceptions.  The copy starts with the wrapper's
    attributes: lists are shared, and numbers it rebinds are its own."""

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def steps(self, theta, vertex):
        on_steps = object.__new__(type(self))
        on_steps.__dict__.update(self.__dict__, inner=solve_steps(self.inner, theta, vertex))
        return on_steps


def dense_chord(f, theta, s_ids, s_vals):
    """(g, dg) of f along the chord from theta to the sparse target s, from
    f's value and gradient at the chord point, formed densely: theta *
    (1 - a), then a * s added on s's support.  g(a) forms that point when
    it is not handed one; dg reports curvature 0.0, unknown."""
    base = np.asarray(theta, dtype=np.float64)
    direction = -base.copy()
    direction[s_ids] += s_vals

    def chord_point(a: float) -> np.ndarray:
        x = (1.0 - a) * base
        x[s_ids] += a * s_vals
        return x

    def g(a: float, point: np.ndarray | None = None) -> float:
        return f.value(chord_point(a) if point is None else point)

    def dg(a: float) -> tuple[float, float]:
        return float(direction.dot(f.gradient(chord_point(a)))) + 0.0, 0.0

    return g, dg


def random_prior(rng, k, with_mean):
    """A CtmPrior with a random non-negative SPD precision, and a random
    mean when with_mean."""
    a = rng.random((k, k))
    return CtmPrior(a @ a.T + np.eye(k), mean=rng.normal(size=k) if with_mean else None)


class PlainChordMl(Stateless):
    """The likelihood with its chord in the plain form, six passes a probe:
    w = dp / (p0 + a * dp), slope counts . w and curvature -counts . w**2.
    A reference for the rearranged chord of the likelihood's steps; it has
    no steps, so fw_solve calls its methods."""

    def __init__(self, document, topics):
        super().__init__(MlObjective(document, topics))

    def line_restriction(self, theta, s_ids, s_vals):
        g, _ = super().line_restriction(theta, s_ids, s_vals)
        p0 = theta @ self.term_columns
        dp = s_vals @ self.term_columns[s_ids, :] - p0
        counts = self._counts
        w = np.empty_like(dp)

        def dg(a: float) -> tuple[float, float]:
            np.multiply(dp, a, w)
            np.add(p0, w, w)
            np.divide(dp, w, w)
            slope = float(counts.dot(w)) + 0.0
            np.multiply(w, w, w)
            return slope, -float(counts.dot(w))

        return g, dg


def ctm_penalty_hessian(theta: np.ndarray, prior) -> np.ndarray:
    """Hessian of the log-normal penalty of a CtmPrior at an interior point:

        H = -D (P - diag(P x)) D,   D = diag(1/theta),  x = log theta - mu.
    """
    theta = np.asarray(theta, dtype=np.float64)
    x = np.log(theta) if prior.mean is None else np.log(theta) - prior.mean
    inv = 1.0 / theta
    inner = prior.precision - np.diag(prior.precision @ x)
    return -inner * np.outer(inv, inv)
