"""Independent oracles used by the tests: finite differences, exhaustive
and zoomed grid search over the simplex, a brute-force capped LP and a
bisection line search.

Nothing in here calls the solvers under test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sparsetopics import Document, TopicMatrix


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


def bisection_line_search(dg, *, tol, max_steps, upper):
    """Sign bisection of a nonincreasing derivative on [0, upper], with the
    solver's line_search signature: the endpoint shortcuts, then halve the
    bracket until it is narrower than tol and return its midpoint."""
    if dg(0.0) <= 0.0:
        return 0.0
    if dg(upper) >= 0.0:
        return upper
    lo, hi = 0.0, upper
    for _ in range(max_steps):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        d = dg(mid)
        if d > 0.0:
            lo = mid
        elif d < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


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
