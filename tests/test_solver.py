import functools
import math

import numpy as np
import pytest

from sparsetopics import (
    CtmPrior,
    Document,
    InfeasibleRegionError,
    InvalidArgumentError,
    InvalidConfigError,
    MlObjective,
    NonconcavePriorError,
    NumericFailureError,
    SolverConfig,
    TopicMatrix,
    TraceRecord,
    capped_simplex_argmax,
    ctm_caps,
    ctm_full_objective,
    fw_solve,
    fw_solve_capped,
    generate_synthetic_corpus,
    lda_map_objective,
    line_search,
    ml_objective,
)

import sparsetopics.solver as solver_module
from sparsetopics.objectives import best_vertex

from helpers import (
    PlainChordMl,
    bisection_line_search,
    brute_force_capped_lp,
    greedy_capped_loop,
    greedy_capped_vectorized,
    objectives,
    random_ml_instance,
    replay_trace,
)


def quadratic_dg(peak):
    """Slope and curvature of -(a - peak)^2."""
    return lambda a: (-2.0 * (a - peak), -2.0)


def quartic_dg(peak):
    """Slope and curvature of -(a - peak)^2 / 2 - (a - peak)^4: concave
    with a simple, nonlinear root, so no Newton step lands on it exactly."""
    return lambda a: (-(a - peak) - 4.0 * (a - peak) ** 3, -1.0 - 12.0 * (a - peak) ** 2)


def search(dg, root, tol=1e-10, max_steps=60, upper=1.0):
    """line_search with the checks every case shares: alpha within tol of
    the sign change and at most max_steps + 2 derivative calls."""
    calls = []

    def counted(a):
        calls.append(a)
        return dg(a)

    alpha = line_search(counted, tol=tol, max_steps=max_steps, upper=upper)
    assert abs(alpha - root) <= tol
    assert len(calls) <= max_steps + 2
    return alpha, calls


def pole_dg(pole, root):
    """slope(a) = 1 / (a - pole) - 1 / (root - pole): decreasing on either
    side of the pole, zero at root; with its curvature."""
    shift = 1.0 / (root - pole)
    return lambda a: (1.0 / (a - pole) - shift, -1.0 / (a - pole) ** 2)


def with_curvature(dg, curvature):
    """dg's slope with a fixed curvature in place of its own."""
    return lambda a: (dg(a)[0], curvature)


# A curvature that is not finite and negative: unknown (the Objective
# default), wrong in sign, NaN or infinite.  Each makes the search bisect.
NOT_NEWTON = [0.0, 1.0, math.nan, math.inf, -math.inf]


class TestLineSearch:
    def test_interior_peak_with_derivative(self):
        dg = quadratic_dg(0.3)
        assert line_search(dg) == pytest.approx(0.3, abs=1e-9)

    def test_interior_peak_nonlinear_derivative(self):
        alpha, _ = search(quartic_dg(0.3), 0.3)
        assert alpha == pytest.approx(0.3, abs=1e-9)

    def test_peak_below_zero_clamps(self):
        dg = quadratic_dg(-0.5)
        assert line_search(dg) == 0.0
        alpha, calls = search(quartic_dg(-0.5), 0.0)
        assert alpha == pytest.approx(0.0, abs=1e-9)
        assert calls == [0.0]

    def test_peak_above_upper_clamps(self):
        dg = quadratic_dg(1.5)
        assert line_search(dg) == 1.0
        alpha, calls = search(quartic_dg(1.5), 1.0)
        assert alpha == 1.0
        assert calls[0] == 0.0 and calls[-1] == 1.0

    def test_custom_upper(self):
        dg = quadratic_dg(0.9)
        assert line_search(dg, upper=0.4) == 0.4
        assert line_search(dg, upper=0.95) == pytest.approx(0.9, abs=1e-9)

    def test_rejects_bad_upper(self):
        dg = quadratic_dg(0.5)
        with pytest.raises(InvalidArgumentError):
            line_search(dg, upper=0.0)
        with pytest.raises(InvalidArgumentError):
            line_search(dg, upper=1.5)

    def test_nan_derivative_raises(self):
        with pytest.raises(NumericFailureError):
            line_search(lambda a: (float("nan"), -1.0))

    def test_nan_at_interior_probe_raises(self):
        # Finite with a sign change at both ends, NaN everywhere between.
        dg = lambda a: (1.0 - 2.0 * a if a in (0.0, 1.0) else float("nan"), -2.0)
        with pytest.raises(NumericFailureError):
            line_search(dg)

    @pytest.mark.parametrize("root", [1e-7, 1e-3, 0.5, 0.999])
    def test_pole_just_below_zero(self, root):
        dg = pole_dg(-1e-12, root)
        assert dg(0.0)[0] > 1e9
        _, calls = search(dg, root)
        # a long first step crosses the pole in log distance instead of
        # doubling its distance to it on every probe
        assert len(calls) <= 30

    @pytest.mark.parametrize("root", [1e-7, 1e-3, 0.5, 0.9, 0.999])
    def test_pole_just_above_upper(self, root):
        dg = pole_dg(1.0 + 1e-12, root)
        # |slope| spans at least nine orders of magnitude over [0, 1].
        assert -dg(1.0)[0] >= 1e9 * dg(0.0)[0] > 0.0
        _, calls = search(dg, root)
        assert len(calls) <= 30

    def test_rounding_residue_at_the_root_ends_the_search(self):
        # The slope computed at the float nearest the root is a positive
        # rounding residue: its Newton step is below half an ulp, so the
        # root is within one ulp and nothing is left to search.
        root = 0.2434
        dg = lambda a: (7.2e-16 if a == root else -56.0 * (a - root), -56.0)
        assert root + 7.2e-16 / 56.0 == root
        alpha, calls = search(dg, root)
        assert alpha == root
        assert len(calls) <= 8 and 1.0 not in calls

    @pytest.mark.parametrize("root, k", [(0.01, 100.0), (0.3, 1.0), (0.7, 5.0)])
    def test_triple_root_lands_within_tol(self, root, k):
        # Newton converges only linearly at a triple root, each step 2/3 of
        # the last, so what is left after a step is twice that step.  A
        # stop that trusts quadratic convergence, |step| rho^2 <= 0.5 tol,
        # lands about 2e-10 off at root 0.3.
        search(lambda a: (-k * (a - root) ** 3, -3.0 * k * (a - root) ** 2), root)

    def test_upper_just_below_one(self):
        upper = 1.0 - 1e-9
        search(quadratic_dg(0.9), 0.9, upper=upper)
        alpha, _ = search(quadratic_dg(1.0), upper, upper=upper)
        assert alpha == upper

    def test_linear_derivative(self):
        alpha, calls = search(lambda a: (0.7 - a, -1.0), 0.7)
        # A Newton step is exact for a linear slope.
        assert len(calls) <= 5

    def test_exact_zero_at_a_probe_returns_it(self):
        alpha, calls = search(lambda a: (0.5 - a, -1.0), 0.5)
        assert alpha == 0.5
        assert calls == [0.0, 0.5]

    def test_step_budget_is_respected(self):
        # A triple root: Newton converges only linearly there, so small
        # budgets run out before a step is within tol.
        flat = lambda a: (-((a - 0.3) ** 3), -3.0 * (a - 0.3) ** 2)
        for steps in (1, 2, 5, 20):
            for dg in (flat, with_curvature(flat, 0.0)):
                _, calls = search(dg, 0.3, tol=0.5, max_steps=steps)
                assert len(calls) <= steps + 1

    @pytest.mark.parametrize("curvature", NOT_NEWTON)
    def test_curvature_that_is_not_finite_and_negative_bisects(self, curvature):
        for dg, root in [
            (quartic_dg(0.3), 0.3),
            (pole_dg(-1e-12, 1e-3), 1e-3),
            (pole_dg(1.0 + 1e-12, 0.999), 0.999),
        ]:
            search(with_curvature(dg, curvature), root)
        # the endpoint rules hold as with a curvature
        assert line_search(with_curvature(quadratic_dg(1.5), curvature)) == 1.0
        assert line_search(with_curvature(quadratic_dg(0.9), curvature), upper=0.4) == 0.4
        assert line_search(with_curvature(quadratic_dg(-0.5), curvature)) == 0.0
        # and a NaN or infinite slope still raises
        with pytest.raises(NumericFailureError):
            line_search(lambda a: (1.0 if a == 0.0 else math.inf, curvature))

    @pytest.mark.parametrize("curvature", [None] + NOT_NEWTON)
    @pytest.mark.parametrize("root", [0.0, 1e-300, 1e-17, 1e-13, 4e-11])
    def test_root_at_zero_within_tolerance_returns_exactly_zero(self, root, curvature):
        # Stepping a distance of at most 0.5 * tol gains nothing, so the
        # search does not step at all.
        dg = quartic_dg(root)
        if curvature is not None:
            dg = with_curvature(dg, curvature)
        alpha, _ = search(dg, root)
        assert alpha == 0.0 and math.copysign(1.0, alpha) == 1.0

    def test_root_just_beyond_half_tolerance_is_stepped_to(self):
        alpha, _ = search(quartic_dg(6e-11), 6e-11)
        assert alpha > 0.0


BARYCENTER = SolverConfig(start="barycenter")


def separable_instance():
    """Topics with disjoint support; the optimum is theta_1 = 0.8125."""
    topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
    doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
    return ml_objective(doc, topics)


class TestFwSolve:
    def test_reaches_analytic_optimum(self):
        report, trace = fw_solve(separable_instance())
        theta = report.theta.dense(2)
        assert theta[0] == pytest.approx(0.8125, abs=1e-6)
        assert theta[1] == pytest.approx(0.1875, abs=1e-6)

    def test_start_vertex_is_best(self):
        # f(e_1) = 3 ln .9 + ln .1 beats f(e_2) = 3 ln .1 + ln .9
        _, trace = fw_solve(separable_instance())
        assert trace[0].iteration == 0
        assert trace[0].vertex == 0
        assert trace[0].alpha == 0.0
        assert trace[0].objective == pytest.approx(-2.6186666399675245, abs=1e-12)

    def test_start_vertex_ties_to_lowest_index(self):
        topics = TopicMatrix.normalized(np.ones((3, 4)))
        doc = Document(np.array([0, 2]), np.array([2.0, 1.0]))
        _, trace = fw_solve(ml_objective(doc, topics))
        assert trace[0].vertex == 0

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 6)), v=10)
            _, trace = fw_solve(ml_objective(doc, topics))
            assert np.all(np.diff(objectives(trace)) >= 0.0)

    def test_nnz_bounded_by_iterations(self):
        rng = np.random.default_rng(13)
        for cap in (1, 2, 3, 5, 8):
            topics, doc = random_ml_instance(rng, k=10, v=30)
            config = SolverConfig(max_iters=cap, rel_tol=1e-15)
            report, trace = fw_solve(ml_objective(doc, topics), config=config)
            assert report.iterations <= cap
            assert report.nnz <= report.iterations + 1
            for record in trace:
                assert record.nnz <= record.iteration + 1

    def test_max_nnz_budget(self):
        rng = np.random.default_rng(17)
        topics, doc = random_ml_instance(rng, k=12, v=40)
        for budget in (1, 2, 4):
            config = SolverConfig(max_nnz=budget, rel_tol=1e-15)
            report, _ = fw_solve(ml_objective(doc, topics), config=config)
            assert report.nnz <= budget
            assert report.iterations <= budget - 1

    def test_max_nnz_one_stays_on_vertex(self):
        report, trace = fw_solve(separable_instance(), config=SolverConfig(max_nnz=1))
        assert report.iterations == 0
        assert report.nnz == 1
        assert len(trace) == 1

    def test_max_nnz_refuses_barycenter_start(self):
        rng = np.random.default_rng(29)
        topics, doc = random_ml_instance(rng, k=6, v=20)
        config = SolverConfig(max_nnz=2, start="barycenter")
        with pytest.raises(InvalidConfigError, match="max_nnz"):
            fw_solve(RefusingObjective(ml_objective(doc, topics)), config=config)

    def test_max_nnz_of_k_caps_nothing(self):
        # the support cannot outgrow K, so max_nnz = K leaves the solve as is
        rng = np.random.default_rng(7)
        topics, doc = random_ml_instance(rng, k=6, v=20)
        for start in ("barycenter", "best-vertex"):
            free = SolverConfig(start=start, rel_tol=1e-15)
            capped = SolverConfig(start=start, rel_tol=1e-15, max_nnz=6)
            a, a_trace = fw_solve(ml_objective(doc, topics), config=free)
            b, b_trace = fw_solve(ml_objective(doc, topics), config=capped)
            assert a.iterations > 5
            assert a.iterations == b.iterations
            assert a.theta.weights.tobytes() == b.theta.weights.tobytes()
            assert a_trace == b_trace

    def test_longer_run_extends_shorter_bitwise(self):
        rng = np.random.default_rng(19)
        topics, doc = random_ml_instance(rng, k=6, v=25)
        f = ml_objective(doc, topics)
        short_cfg = SolverConfig(max_iters=10, rel_tol=1e-15)
        long_cfg = SolverConfig(max_iters=100, rel_tol=1e-15)
        _, short = fw_solve(f, config=short_cfg)
        _, long = fw_solve(f, config=long_cfg)
        assert len(long) > len(short)
        for a, b in zip(short, long):
            assert a == b

    def test_same_config_is_deterministic(self):
        r1, t1 = fw_solve(separable_instance())
        r2, t2 = fw_solve(separable_instance())
        assert np.array_equal(r1.theta.dense(2), r2.theta.dense(2))
        assert tuple(t1) == tuple(t2)

    def test_barycenter_start(self):
        config = SolverConfig(start="barycenter")
        report, trace = fw_solve(separable_instance(), config=config)
        assert trace[0].vertex == -1
        assert trace[0].nnz == 2
        assert report.theta.dense(2)[0] == pytest.approx(0.8125, abs=1e-6)

    def test_interior_objective_requires_barycenter(self):
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        f = lda_map_objective(doc, topics, alpha=2.0)
        with pytest.raises(InvalidConfigError):
            fw_solve(f, SolverConfig(start="best-vertex"))
        report, _ = fw_solve(f, config=SolverConfig(start="barycenter"))
        assert np.all(report.theta.dense(2) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="caps length"):
            fw_solve(separable_instance(), caps=np.ones(3))

        class Empty:
            domain = "full-simplex"
            dim = 0

        with pytest.raises(InvalidArgumentError, match="at least one topic"):
            fw_solve(RefusingObjective(Empty()))

    def test_single_topic(self):
        topics = TopicMatrix.normalized(np.ones((1, 4)))
        doc = Document(np.array([1, 3]), np.array([2.0, 2.0]))
        report, _ = fw_solve(ml_objective(doc, topics))
        assert report.theta.dense(1).tolist() == [1.0]
        assert report.nnz == 1

    def test_nan_objective_aborts(self):
        class Broken:
            domain = "full-simplex"
            dim = 2

            def value(self, theta):
                return float("nan")

            def gradient(self, theta):
                return np.zeros(2)

            def line_restriction(self, theta, ids, vals):
                return (lambda a: float("nan")), None

        with pytest.raises(NumericFailureError):
            fw_solve(Broken())

    def test_lda_map_pulls_interior(self):
        # a strong prior keeps every coordinate away from zero
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0]), np.array([1.0]))
        f = lda_map_objective(doc, topics, alpha=10.0)
        report, _ = fw_solve(f, config=SolverConfig(start="barycenter"))
        theta = report.theta.dense(2)
        assert theta.min() > 0.1

    @pytest.mark.parametrize("scale", [1e-20, 1e-100, 1e-300])
    def test_tiny_counts_solve_as_at_unit_scale(self, scale):
        # scaling every count scales the objective and leaves its argmax
        # alone, so the stop rule must not end the tiny solve early
        data = generate_synthetic_corpus(6, 40, 30, 8, seed=2)
        for doc in data.corpus.documents:
            unit = fw_solve(ml_objective(doc, data.topics))[0]
            tiny = fw_solve(ml_objective(Document(doc.term_ids, doc.counts * scale), data.topics))[0]
            np.testing.assert_allclose(tiny.theta.dense(6), unit.theta.dense(6), rtol=0, atol=1e-12)


class TestVertexStart:
    def test_ml_best_vertex_is_the_value_loops_argmax(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            k = int(rng.integers(1, 40))
            topics, doc = random_ml_instance(rng, k=k, v=int(rng.integers(2, 60)))
            f = ml_objective(doc, topics)
            loop = [f.value(np.eye(k)[i]) for i in range(k)]
            assert f.best_vertex() == int(np.argmax(loop))

    def test_objectives_without_the_method_use_the_loop(self):
        topics, doc = random_ml_instance(np.random.default_rng(78), k=6, v=20)
        f = WithoutBestVertex(ml_objective(doc, topics))
        assert not hasattr(f, "best_vertex")
        loop = [f.value(np.eye(6)[i]) for i in range(6)]
        assert best_vertex(f) == int(np.argmax(loop))
        _, trace = fw_solve(f)
        assert trace[0].vertex == int(np.argmax(loop))

    def test_a_vertex_row_is_its_one_hot_product_bit_for_bit(self):
        # 1.0 * beta + 0.0 * ... is beta in any summation order, so the row
        # best_vertex memoizes is the mixture value() would form at e_k
        rng = np.random.default_rng(79)
        for k in (1, 7, 100, 1000):
            topics, doc = random_ml_instance(rng, k=k, v=300)
            f = ml_objective(doc, topics)
            for i in range(k):
                vertex = np.zeros(k)
                vertex[i] = 1.0
                assert (vertex @ f.term_columns).tobytes() == f.term_columns[i].tobytes()

    @pytest.mark.parametrize("scale", [1e307, 1e308, 1.5e308])
    def test_a_value_that_overflows_at_any_vertex_is_refused(self, scale):
        # vertex 0 holds 1e-10 on both terms, so its value sums past the
        # largest float; vertex 1 stays finite.  Refused as the value loop
        # meets an infinite value, before any step.
        topics = TopicMatrix(np.array([[1e-10, 1e-10, 1.0 - 2e-10], [0.5, 0.5 - 1e-10, 1e-10]]))
        doc = Document(np.array([0, 1]), np.array([scale, scale / 8.0]))
        with np.errstate(over="ignore"):
            loop = [ml_objective(doc, topics).value(np.eye(2)[i]) for i in range(2)]
        assert not math.isfinite(loop[0]) and math.isfinite(loop[1])
        with pytest.raises(NumericFailureError, match="objective is NaN or infinite at a vertex"):
            fw_solve(ml_objective(doc, topics))
        with pytest.raises(NumericFailureError, match="objective is NaN or infinite at a vertex"):
            best_vertex(WithoutBestVertex(ml_objective(doc, topics)))

    @pytest.mark.parametrize("exponent", range(295, 309))
    def test_refused_exactly_where_a_vertex_value_overflows(self, exponent):
        # large counts near the overflow of the vertex sums: refused when,
        # and only when, the value loop meets a non-finite value, which at
        # these scales is also where the one-pass vertex sums overflow
        rng = np.random.default_rng(exponent)
        topics, doc = random_ml_instance(rng, k=20, v=40)
        doc = Document(doc.term_ids, doc.counts / doc.counts.sum() * 10.0**exponent)
        f = ml_objective(doc, topics)
        with np.errstate(over="ignore"):
            loop = np.array([f.value(np.eye(20)[i]) for i in range(20)])
            one_pass = np.log(f.term_columns) @ doc.counts
        assert np.all(np.isfinite(loop)) == np.all(np.isfinite(one_pass))
        if np.all(np.isfinite(loop)):
            assert ml_objective(doc, topics).best_vertex() == int(np.argmax(loop))
        else:
            with pytest.raises(NumericFailureError, match="at a vertex"):
                ml_objective(doc, topics).best_vertex()

    def test_a_test_double_nan_at_a_vertex_is_refused(self):
        topics, doc = random_ml_instance(np.random.default_rng(81), k=4, v=10)
        f = WithoutBestVertex(ml_objective(doc, topics))
        value = f.value
        f.value = lambda theta: math.nan if theta[2] == 1.0 else value(theta)
        with pytest.raises(NumericFailureError, match="objective is NaN or infinite at a vertex"):
            fw_solve(f)


class WithoutBestVertex:
    """The likelihood's value, gradient and chord, but no best_vertex()."""

    def __init__(self, inner):
        self.dim, self.domain, self.value = inner.dim, inner.domain, inner.value
        self.gradient, self.line_restriction = inner.gradient, inner.line_restriction


class RefusingObjective:
    """Delegates to an objective but fails the test if it is evaluated."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name in ("value", "gradient", "line_restriction", "best_vertex"):
            pytest.fail(f"{name} called")
        return getattr(self.inner, name)


class TestTraceRecords:
    def test_records_track_the_support(self):
        rng = np.random.default_rng(31)
        topics, doc = random_ml_instance(rng, k=6, v=25)
        report, trace = fw_solve(ml_objective(doc, topics), config=SolverConfig(rel_tol=1e-12))
        assert len(trace) == report.iterations + 1
        assert [r.iteration for r in trace] == list(range(len(trace)))
        assert trace[-1].objective == report.objective
        assert trace[-1].nnz == report.nnz
        assert trace[0].vertex >= 0
        assert all(type(r.nnz) is int and type(r.objective) is float for r in trace)

    @pytest.mark.parametrize("caps", [None, np.full(6, 0.5)])
    def test_solve_returns_a_plain_tuple_of_records(self, caps):
        rng = np.random.default_rng(31)
        topics, doc = random_ml_instance(rng, k=6, v=25)
        trace = fw_solve(ml_objective(doc, topics), caps=caps)[1]
        assert type(trace) is tuple and len(trace) > 1
        assert all(type(r) is TraceRecord for r in trace)


class ScriptedObjective:
    """Linear value theta . (0, 1, ..., K-1) from vertex 0; step t moves
    toward vertex t, and its line-search derivative vanishes at
    roots[t - 1].  Records every point the solver evaluates."""

    domain = "full-simplex"

    def __init__(self, k, roots):
        self.dim = k
        self.roots = roots
        self.points = []
        self.steps = 0

    def best_vertex(self):
        return 0

    def value(self, theta):
        self.points.append(theta.copy())
        return float(theta @ np.arange(self.dim, dtype=np.float64))

    def gradient(self, theta):
        self.steps += 1
        grad = np.zeros(self.dim)
        grad[self.steps] = 1.0
        return grad

    def line_restriction(self, theta, s_ids, s_vals):
        root = self.roots[self.steps - 1]
        return (lambda a, point: self.value(point)), lambda a: (root - a, -1.0)


class TestSteppedPoint:
    """After each step theta is exactly the stepped point (1 - alpha) theta
    + alpha e_s, valued through its chord: a weight left below 1e-15 stays,
    and nnz counts it."""

    def solve(self, k, roots):
        f = ScriptedObjective(k, roots)
        config = SolverConfig(max_iters=len(roots), rel_tol=1e-300)
        # a line search that lands on each scripted root to the last bit
        exact = functools.partial(solver_module.line_search, tol=1e-300)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "line_search", exact)
            _, trace = fw_solve(f, config=config)
        assert len(trace) == len(roots) + 1
        assert [p.tobytes() for p in f.points] == [p.tobytes() for p in replay_trace(k, trace)]
        assert [r.nnz for r in trace] == [int(np.count_nonzero(p)) for p in f.points]
        return f.points, trace

    def test_theta_is_exactly_the_stepped_point(self):
        alpha = 1.0 - 5e-16
        points, trace = self.solve(4, [alpha])
        assert points[1].tolist() == [1.0 - alpha, alpha, 0.0, 0.0]
        assert 0.0 < points[1][0] < 1e-15
        assert trace[1].nnz == 2
        rng = np.random.default_rng(41)
        drifted = 0
        for _ in range(20):
            points, _ = self.solve(12, list(rng.uniform(0.05, 0.6, size=11)))
            drifted += sum(p.sum() != 1.0 for p in points)
        # the sums drift, so a renormalization would show in the bits
        assert drifted > 0


class PointRecorder:
    """Delegates to an objective and records the bytes of every point it
    is valued at, by value or by a chord's g: the start, then the point
    after each step."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value(self, theta):
        self.points.append(theta.tobytes())
        return self.inner.value(theta)

    def line_restriction(self, theta, s_ids, s_vals):
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)

        def recorded(a, point):
            self.points.append(point.tobytes())
            return g(a, point)

        return recorded, dg


class ResidueAtStepTwo:
    """Delegates to an objective, but scripts the chord of the second
    step: its slope vanishes at 0 except for a positive rounding residue
    read at 0 itself."""

    def __init__(self, inner):
        self.inner = inner
        self.chords = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def line_restriction(self, theta, s_ids, s_vals):
        self.chords += 1
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)
        if self.chords == 2:
            return g, lambda a: (7.2e-16 if a == 0.0 else -56.0 * a, -56.0)
        return g, dg


class TestZeroGainStep:
    def test_a_step_within_tolerance_of_zero_leaves_theta_bitwise(self, monkeypatch):
        # Step 1 runs the likelihood's own chord; along step 2's direction
        # the slope at 0 is positive only by rounding, and its root lies
        # within 0.5 * tol of 0.
        rng = np.random.default_rng(21)
        topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 5)), v=8)
        slopes, returned = [], []

        def recording(dg, **kwargs):
            slopes.append(dg(0.0)[0])
            returned.append(line_search(dg, **kwargs))
            return returned[-1]

        monkeypatch.setattr(solver_module, "line_search", recording)
        f = PointRecorder(ResidueAtStepTwo(ml_objective(doc, topics)))
        report, trace = fw_solve(f, SolverConfig(rel_tol=1e-300, max_iters=30))
        assert slopes[1] > 0.0
        assert returned[1] == 0.0 and trace[2].alpha == 0.0
        assert f.points[2] == f.points[1]
        assert trace[2].objective == trace[1].objective
        assert report.iterations == 2


class ChordRecorder:
    """Delegates to an objective and records each chord's theta, target
    and the (a, point) its g is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.steps = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def line_restriction(self, theta, s_ids, s_vals):
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)
        base = theta.copy()

        def recorded(a, point):
            self.steps.append((base, s_ids.copy(), s_vals.copy(), a, point.copy()))
            return g(a, point)

        return recorded, dg


class TestChordCarry:
    @pytest.mark.parametrize("a", [1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("n, cap", [(1, None), (2, 0.6), (5, 0.22)])
    def test_the_step_hands_g_the_chord_point(self, monkeypatch, a, n, cap):
        # A vertex target, or a greedy fill of n coordinates under equal
        # caps; the chord point written as the log-space prior's chord
        # forms it, (1 - a) * theta + a * target.
        topics, doc = random_ml_instance(np.random.default_rng(131), k=10, v=40)
        f = ChordRecorder(ml_objective(doc, topics))
        monkeypatch.setattr(solver_module, "line_search", lambda dg, **kwargs: a)
        caps = None if cap is None else np.full(10, cap)
        _, trace = fw_solve(f, SolverConfig(max_iters=1, start="barycenter"), caps=caps)
        [(base, s_ids, s_vals, got, point)] = f.steps
        target = np.zeros(10)
        target[s_ids] = s_vals
        assert got == a and s_ids.size == n
        assert point.tobytes() == ((1.0 - a) * base + a * target).tobytes()
        # and the likelihood memoizes a mixture for it, within rounding
        key, p = f.inner._memo.entry
        assert key == point.tobytes()
        np.testing.assert_allclose(p, point @ f.inner.term_columns, rtol=8 * np.finfo(float).eps, atol=0)


class BlindObjective:
    """Delegates to an objective but reports a fixed curvature on its
    chords in place of their own."""

    def __init__(self, inner, curvature):
        self.inner = inner
        self.curvature = curvature

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def line_restriction(self, theta, s_ids, s_vals):
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)
        return g, lambda a: (dg(a)[0], self.curvature)


class CountingObjective:
    """Delegates to an objective and counts calls of the line-search
    derivatives it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.dg_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def line_restriction(self, theta, s_ids, s_vals):
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)

        def counted(a):
            self.dg_calls += 1
            return dg(a)

        return g, counted


class TestLineSearchCost:
    """Derivative calls per FW step, and final objectives against the same
    solves run with a bisection line search.  Counts only; no timing."""

    def instances(self):
        rng = np.random.default_rng(909)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            topics, doc = random_ml_instance(rng, k=k, v=60)
            yield ml_objective(doc, topics)
        data = generate_synthetic_corpus(
            num_topics=40, vocab_size=300, num_docs=20, doc_length=200,
            doc_alpha=0.05, topic_concentration=0.2, seed=9,
        )
        for doc in data.corpus.documents:
            yield ml_objective(doc, data.topics)

    def capped_ctm(self):
        k = 12
        rng = np.random.default_rng(910)
        topics, doc = random_ml_instance(rng, k=k, v=40)
        a = rng.random((k, k))
        prior = CtmPrior(a @ a.T + k * np.eye(k), mean=np.log(np.full(k, 0.3)))
        assert prior.certified
        return ctm_full_objective(doc, topics, prior), ctm_caps(prior)

    def test_derivative_calls_per_step(self):
        dg_calls = iterations = 0
        for f in self.instances():
            counting = CountingObjective(f)
            report, _ = fw_solve(counting)
            dg_calls += counting.dg_calls
            iterations += report.iterations
        f, caps = self.capped_ctm()
        counting = CountingObjective(f)
        report, _ = fw_solve(counting, BARYCENTER, caps=caps)
        dg_calls += counting.dg_calls
        iterations += report.iterations
        assert iterations > 100
        assert dg_calls / iterations <= 3.6

    def test_chords_toward_an_entering_vertex(self, monkeypatch):
        # A topic entering the support explains some of the document's
        # terms far better than the current mix, so the chord's slope has
        # a pole just below 0, which the search crosses in log distance.
        data = generate_synthetic_corpus(
            num_topics=10, vocab_size=200, num_docs=20, doc_length=300,
            doc_alpha=1.0, topic_concentration=0.05, seed=9,
        )
        probes = []

        def counting(dg, **kwargs):
            calls = []
            probes.append(calls)
            return line_search(lambda a: calls.append(a) or dg(a), **kwargs)

        monkeypatch.setattr(solver_module, "line_search", counting)
        entering = []
        for doc in data.corpus.documents:
            first = len(probes)
            _, trace = fw_solve(ml_objective(doc, data.topics))
            for i in range(1, len(trace)):
                if trace[i].nnz > trace[i - 1].nnz:
                    entering.append(len(probes[first + i - 1]))
        assert len(entering) >= 20
        assert max(entering) <= 14

    def test_objectives_match_bisection(self, monkeypatch):
        solves = [(f, None) for f in self.instances()] + [self.capped_ctm()]

        def run(f, caps):
            if caps is None:
                return fw_solve(f)[0].objective
            return fw_solve(f, BARYCENTER, caps=caps)[0].objective

        newton = [run(f, caps) for f, caps in solves]
        monkeypatch.setattr(solver_module, "line_search", bisection_line_search)
        oracle = [run(f, caps) for f, caps in solves]
        np.testing.assert_allclose(newton, oracle, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("curvature", [0.0, math.nan, math.inf])
    def test_objectives_without_a_usable_curvature_solve_alike(self, curvature):
        # the search bisects them, as it does the Objective default's chord
        solves = [(f, None) for f in self.instances()] + [self.capped_ctm()]
        for f, caps in solves:
            config = SolverConfig() if caps is None else BARYCENTER
            newton = fw_solve(f, config, caps=caps)[0].objective
            blind = fw_solve(BlindObjective(f, curvature), config, caps=caps)[0].objective
            assert blind == pytest.approx(newton, rel=1e-9, abs=0.0)


class TestChordDrift:
    """The likelihood's chord in its sqrt(counts)-scaled form solves as the
    plain six-pass chord does: the same steps and supports, the same
    objective to rounding."""

    data = generate_synthetic_corpus(
        num_topics=15, vocab_size=300, num_docs=12, doc_length=200,
        doc_alpha=0.2, topic_concentration=0.1, seed=17,
    )

    @pytest.mark.parametrize("setting", ["best-vertex", "barycenter", "max-nnz", "caps-of-one"])
    def test_solves_match_the_plain_chord(self, setting):
        config = {
            "best-vertex": SolverConfig(start="best-vertex"),
            "barycenter": SolverConfig(start="barycenter"),
            "max-nnz": SolverConfig(max_nnz=6),
            "caps-of-one": SolverConfig(),
        }[setting]
        caps = np.ones(self.data.topics.num_topics) if setting == "caps-of-one" else None
        steps = 0
        for doc in self.data.corpus.documents:
            report, trace = fw_solve(ml_objective(doc, self.data.topics), config, caps=caps)
            plain, plain_trace = fw_solve(PlainChordMl(doc, self.data.topics), config, caps=caps)
            assert report.iterations == plain.iterations
            assert [(r.nnz, r.vertex) for r in trace] == [(r.nnz, r.vertex) for r in plain_trace]
            assert report.objective == pytest.approx(plain.objective, rel=1e-12, abs=0.0)
            steps += report.iterations
        assert steps >= 2 * len(self.data.corpus.documents)

    def test_probe_at_zero_is_the_general_expression(self):
        rng = np.random.default_rng(19)
        topics = self.data.topics
        for doc in self.data.corpus.documents:
            f = ml_objective(doc, topics)
            theta = rng.dirichlet(np.ones(f.dim))
            for n in (1, 3):
                s_ids = np.sort(rng.choice(f.dim, size=n, replace=False))
                s_vals = np.ones(1) if n == 1 else rng.dirichlet(np.ones(n))
                p0 = theta @ f.term_columns
                dp = s_vals @ f.term_columns[s_ids, :] - p0
                root = np.sqrt(doc.counts)
                v = root * dp / (p0 + 0.0 * dp)
                expected = (float(root.dot(v)) + 0.0, -float(v.dot(v)))
                got = f.line_restriction(theta, s_ids, s_vals)[1](0.0)
                assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestCappedLinearStep:
    def test_worked_example(self):
        # scores (3, 2, 1) with caps 0.5: fill the two best to their caps
        out = capped_simplex_argmax(np.array([3.0, 2.0, 1.0]), np.full(3, 0.5))
        assert out.tolist() == [0.5, 0.5, 0.0]

    def test_fractional_fill(self):
        out = capped_simplex_argmax(np.array([5.0, 1.0, 4.0]), np.array([0.6, 1.0, 0.7]))
        assert np.allclose(out, [0.6, 0.0, 0.4], atol=1e-15)

    def test_ties_go_to_lowest_index(self):
        out = capped_simplex_argmax(np.array([1.0, 1.0, 1.0]), np.array([0.8, 0.8, 0.8]))
        assert np.allclose(out, [0.8, 0.2, 0.0], atol=1e-15)

    def test_all_ones_caps_pick_single_vertex(self):
        out = capped_simplex_argmax(np.array([1.0, 9.0, 3.0]), np.ones(3))
        assert out.tolist() == [0.0, 1.0, 0.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            scores = rng.normal(size=k)
            caps = rng.uniform(0.05, 1.0, size=k)
            if caps.sum() < 1.0:
                caps = caps / caps.sum() * 1.3
                caps = np.minimum(caps, 1.0)
            got = capped_simplex_argmax(scores, caps)
            best_value = brute_force_capped_lp(scores, caps)
            assert scores @ got == pytest.approx(best_value, abs=1e-9)
            assert np.all(got <= caps + 1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_reference_bitwise(self):
        rng = np.random.default_rng(67)
        checked = 0
        for trial in range(600):
            k = int(rng.integers(1, 9))
            # integer scores tie often; ties go to the lowest index
            scores = rng.integers(-2, 3, size=k).astype(np.float64) if trial % 2 else rng.normal(size=k)
            kind = trial % 3
            if kind == 0:
                caps = np.minimum(rng.uniform(0.05, 1.0, size=k) * rng.uniform(1.0, 3.0), 1.0)
            elif kind == 1:
                # np.sum gives exactly 1; subtracting in score order may
                # leave a positive remainder, so every cap is taken whole
                caps = rng.dirichlet(np.ones(k))
                if caps.sum() != 1.0:
                    continue
            else:
                caps = np.full(k, rng.choice([0.25, 0.5, 1.0]))
            if caps.sum() < 1.0:
                continue
            got = solver_module._greedy_capped(scores, caps)
            want = greedy_capped_loop(scores, caps)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()
            # fw_solve's lead vertex, argmax, is the index the fill takes first
            assert int(scores.argmax()) == got[0][0] == want[2]
            checked += 1
        assert checked > 300

    @staticmethod
    def fill_cases(rng, count):
        """count (scores, caps) pairs with valid caps: K from 1 to 60,
        integer scores that tie, some +-inf, and caps of four kinds."""
        made = 0
        while made < count:
            k = int(rng.integers(1, 61))
            scores = rng.integers(-3, 4, size=k).astype(np.float64)
            scores[rng.random(k) < 0.1] = np.inf
            scores[rng.random(k) < 0.1] = -np.inf
            kind = made % 4
            if kind == 0:  # dyadic caps whose running sums are exact: some fill to exactly 1
                caps = rng.choice([0.125, 0.25, 0.5, 1.0], size=k)
            elif kind == 1:
                caps = np.ones(k)
            elif kind == 2:  # a sum just above 1, whose running sum may stop short of 1
                caps = rng.dirichlet(np.ones(k)) * (1.0 + rng.choice([0.0, 1e-15, 1e-12]))
            else:
                caps = np.minimum(rng.uniform(0.01, 1.0, size=k) * rng.uniform(1.0, 4.0), 1.0)
            if np.all((caps > 0.0) & (caps <= 1.0)) and caps.sum() >= 1.0:
                made += 1
                yield scores, caps

    def test_matches_vectorized_fill_bitwise(self):
        for scores, caps in self.fill_cases(np.random.default_rng(71), 10_000):
            got, want = solver_module._greedy_capped(scores, caps), greedy_capped_vectorized(scores, caps)
            assert (got[0].dtype, got[0].tobytes()) == (want[0].dtype, want[0].tobytes())
            assert (got[1].dtype, got[1].tobytes()) == (want[1].dtype, want[1].tobytes())
            dense = np.zeros(scores.size)
            dense[want[0]] = want[1]
            assert capped_simplex_argmax(scores, caps).tobytes() == dense.tobytes()

    def test_every_cap_fits(self):
        # The caps sum to 1.0, but subtracted in score order they leave 1 -
        # 0.7 - 0.2 = 0.10000000000000003 above the last cap: all are taken whole.
        caps = np.array([0.1, 0.2, 0.7])
        assert caps.sum() == 1.0 and 1.0 - 0.7 - 0.2 > 0.1
        ids, vals = solver_module._greedy_capped(np.array([1.0, 2.0, 3.0]), caps)
        assert ids.tolist() == [2, 1, 0] and vals.tolist() == [0.7, 0.2, 0.1]
        assert capped_simplex_argmax(np.array([1.0, 2.0, 3.0]), caps).tolist() == caps.tolist()

    def test_infeasible_caps(self):
        with pytest.raises(InfeasibleRegionError):
            capped_simplex_argmax(np.ones(3), np.full(3, 0.2))

    def test_invalid_caps(self):
        with pytest.raises(InvalidArgumentError):
            capped_simplex_argmax(np.ones(2), np.array([1.5, 0.5]))
        with pytest.raises(InvalidArgumentError):
            capped_simplex_argmax(np.ones(2), np.array([0.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            capped_simplex_argmax(np.ones(2), np.ones(3))


class DownhillAtStepTwo:
    """Delegates to an objective and records each chord's theta, but the
    second chord's g values its point below every objective value, so the
    solver rolls that step back."""

    def __init__(self, inner):
        self.inner = inner
        self.bases = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def line_restriction(self, theta, s_ids, s_vals):
        self.bases.append(theta.tobytes())
        g, dg = self.inner.line_restriction(theta, s_ids, s_vals)
        if len(self.bases) == 2:
            return (lambda a, point: g(a, point) - 1e300), dg
        return g, dg


class TestRolledBackStep:
    def test_theta_and_nnz_stay_bitwise(self, monkeypatch):
        # A step that gains nothing ends the solve; here the solve goes on.
        monkeypatch.setattr(solver_module, "converged", lambda *args: False)
        topics, doc = random_ml_instance(np.random.default_rng(138), k=10, v=40)
        config, caps = SolverConfig(max_iters=4), np.full(10, 0.3)
        f = DownhillAtStepTwo(ml_objective(doc, topics))
        _, trace = fw_solve(f, config, caps=caps)
        assert trace[2].alpha == 0.0 and trace[2].objective == trace[1].objective
        assert trace[2].nnz == trace[1].nnz
        assert f.bases[2] == f.bases[1] != f.bases[0]
        # The solve then takes the step a solve without the rolled-back one
        # takes, to rounding: theta's mixture is formed afresh, as the memo
        # holds the rejected point's.
        _, plain = fw_solve(ml_objective(doc, topics), config, caps=caps)
        assert f.bases[3] != f.bases[2] and trace[3].nnz == plain[2].nnz
        assert trace[3].alpha == pytest.approx(plain[2].alpha, rel=1e-12) and trace[3].alpha > 0.0


class Forwarding:
    """Forwards every attribute read to an objective, so fw_solve calls
    its gradient, line_restriction and g, as for any class but exactly
    MlObjective."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class OwnGradient(MlObjective):
    def gradient(self, theta):
        self.calls = getattr(self, "calls", 0) + 1
        return super().gradient(theta)


class OwnChord(MlObjective):
    def line_restriction(self, theta, s_ids, s_vals):
        self.calls = getattr(self, "calls", 0) + 1
        return super().line_restriction(theta, s_ids, s_vals)


class TestCarriedMixture:
    """An MlObjective's solve carries the mixture from step to step; any
    other object's solve calls its methods.  Both give the same bits, and
    leave the same memo behind."""

    CASES = {
        "best vertex": (SolverConfig(rel_tol=1e-12), None),
        "barycenter": (SolverConfig(rel_tol=1e-12, start="barycenter"), None),
        "caps below one": (SolverConfig(rel_tol=1e-12), 0.3),
        "caps of all ones": (SolverConfig(rel_tol=1e-12), 1.0),
        "max_nnz": (SolverConfig(rel_tol=1e-12, max_nnz=3), None),
    }

    @staticmethod
    def both(doc, topics, config, caps, before=lambda: None):
        """(report, trace, memo) of a carried solve, then of a method solve;
        before() runs before each."""
        out = []
        for wrap in (lambda f: f, Forwarding):
            before()
            f = MlObjective(doc, topics)
            report, trace = fw_solve(wrap(f), config, caps=caps)
            key, p = f._memo.entry
            out.append((report, trace, (key, p.tobytes())))
        return out

    @staticmethod
    def assert_same(carried, method):
        (a, a_trace, a_memo), (b, b_trace, b_memo) = carried, method
        assert a.theta.topic_ids.tobytes() == b.theta.topic_ids.tobytes()
        assert a.theta.weights.tobytes() == b.theta.weights.tobytes()
        assert (a.iterations, repr(a.objective)) == (b.iterations, repr(b.objective))
        assert repr(a_trace) == repr(b_trace)
        assert a_memo == b_memo

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_carried_and_method_solves_are_bitwise_equal(self, case):
        config, cap = self.CASES[case]
        rng = np.random.default_rng(151)
        steps = 0
        for _ in range(8):
            k = int(rng.integers(2, 30))
            topics, doc = random_ml_instance(rng, k=k, v=60)
            caps = None if cap is None else np.full(k, max(cap, 1.0 / k))
            carried, method = self.both(doc, topics, config, caps)
            self.assert_same(carried, method)
            steps += carried[0].iterations
        assert steps > 40

    def test_a_rolled_back_step_ends_both_solves_alike(self, monkeypatch):
        # Step 3 is sent to the vertex itself, below the start's best vertex
        # value: the step is rolled back, and the solve ends there.
        real, calls = solver_module.line_search, []

        def downhill_at_three(dg, **kwargs):
            calls.append(1)
            return 1.0 if len(calls) == 3 else real(dg, **kwargs)

        rng = np.random.default_rng(152)
        instances = [random_ml_instance(rng, k=int(rng.integers(4, 20)), v=60) for _ in range(12)]
        # only those whose own solve runs past step 3
        instances = [(t, d) for t, d in instances if fw_solve(MlObjective(d, t), SolverConfig(rel_tol=1e-300))[0].iterations > 3]
        assert len(instances) >= 6
        monkeypatch.setattr(solver_module, "line_search", downhill_at_three)
        for topics, doc in instances:
            carried, method = self.both(doc, topics, SolverConfig(rel_tol=1e-300), None, calls.clear)
            self.assert_same(carried, method)
            report, trace, _ = carried
            assert report.iterations == 3
            assert trace[3].alpha == 0.0 and repr(trace[3].objective) == repr(trace[2].objective)

    @pytest.mark.parametrize("cls", [OwnGradient, OwnChord])
    @pytest.mark.parametrize("caps", [None, 0.5])
    def test_a_subclass_has_its_overrides_called(self, cls, caps):
        topics, doc = random_ml_instance(np.random.default_rng(153), k=8, v=40)
        f = cls(doc, topics)
        report, _ = fw_solve(f, SolverConfig(rel_tol=1e-12), caps=None if caps is None else np.full(8, caps))
        assert report.iterations > 1
        assert f.calls == report.iterations


class TestFwSolveCapped:
    def test_all_ones_matches_plain_solver_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            topics, doc = random_ml_instance(rng, k=k, v=15)
            f = ml_objective(doc, topics)
            config = SolverConfig(start="barycenter", rel_tol=1e-10)
            plain_report, plain_trace = fw_solve(f, config=config)
            capped_report, capped_trace = fw_solve(f, config, caps=np.ones(k))
            assert np.array_equal(
                plain_report.theta.dense(k), capped_report.theta.dense(k)
            )
            assert len(plain_trace) == len(capped_trace)
            for a, b in zip(plain_trace, capped_trace):
                assert a.objective == b.objective
                assert a.alpha == b.alpha

    def test_caps_are_respected(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = 4
            topics, doc = random_ml_instance(rng, k=k, v=12)
            caps = rng.uniform(0.3, 0.9, size=k)
            report, _ = fw_solve(ml_objective(doc, topics), caps=caps)
            assert np.all(report.theta.dense(k) <= caps + 1e-9)

    def test_ctm_with_mean_runs_capped(self):
        rng = np.random.default_rng(37)
        topics = TopicMatrix.normalized(rng.random((3, 10)) + 0.1)
        doc = Document(np.array([0, 4, 7]), np.array([2.0, 1.0, 3.0]))
        mean = np.array([-1.2, 0.3, 0.0])
        prior = CtmPrior(np.eye(3), mean=mean)
        f = ctm_full_objective(doc, topics, prior)
        caps = ctm_caps(prior)
        # the objective's own caps are the default region
        report, trace = fw_solve(f, BARYCENTER)
        theta = report.theta.dense(3)
        assert np.all(theta <= caps + 1e-9)
        assert np.all(theta > 0)
        assert np.all(np.diff(objectives(trace)) >= 0.0)

    def test_zero_mean_ctm_capped_equals_uncapped(self):
        rng = np.random.default_rng(41)
        topics = TopicMatrix.normalized(rng.random((3, 8)) + 0.1)
        doc = Document(np.array([1, 5]), np.array([2.0, 2.0]))
        prior = CtmPrior(np.eye(3))
        f = ctm_full_objective(doc, topics, prior)
        plain, _ = fw_solve(f, BARYCENTER)
        capped, _ = fw_solve(f, BARYCENTER, caps=ctm_caps(prior))
        assert np.array_equal(plain.theta.dense(3), capped.theta.dense(3))

    def test_infeasible_caps(self):
        with pytest.raises(InfeasibleRegionError):
            fw_solve(separable_instance(), caps=np.array([0.2, 0.3]))

    def test_caps_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            fw_solve(separable_instance(), caps=np.ones(3))

    def test_max_nnz_below_the_cap_point_support_is_refused(self):
        rng = np.random.default_rng(37)
        topics, doc = random_ml_instance(rng, k=6, v=20)
        with pytest.raises(InvalidConfigError, match="max_nnz"):
            fw_solve(RefusingObjective(ml_objective(doc, topics)), SolverConfig(max_nnz=2), caps=np.ones(6))

    def test_trace_starts_at_cap_point(self):
        caps = np.array([0.9, 0.6])
        _, trace = fw_solve(separable_instance(), caps=caps)
        assert trace[0].vertex == -1
        assert trace[0].objective == pytest.approx(
            separable_instance().value(caps / caps.sum()), abs=1e-12
        )


class TestRegionFromObjective:
    """A CTM prior with a mean is certified concave only under its caps, so
    fw_solve takes the objective's caps as its region unless told a
    smaller one."""

    def probe_instance(self, mean=(0.0, 0.0, math.log(0.02), math.log(0.02))):
        # K = 4: the barycenter lies outside caps (1, 1, 0.02, 0.02), where
        # the penalty has positive curvature
        rng = np.random.default_rng(61)
        a = rng.random((4, 4))
        prior = CtmPrior(a @ a.T + 4.0 * np.eye(4), mean=np.array(mean))
        assert prior.certified
        topics, doc = random_ml_instance(rng, k=4, v=20)
        return ctm_full_objective(doc, topics, prior), prior

    def test_default_region_is_the_certified_caps(self):
        f, prior = self.probe_instance()
        report, trace = fw_solve(f, BARYCENTER)
        capped, capped_trace = fw_solve_capped(f, ctm_caps(prior), BARYCENTER)
        assert report.theta.dense(4).tobytes() == capped.theta.dense(4).tobytes()
        assert trace == capped_trace
        assert np.all(report.theta.dense(4) <= ctm_caps(prior))

    def test_caps_above_the_certified_caps_are_refused(self):
        f, _ = self.probe_instance()
        with pytest.raises(NonconcavePriorError, match="caps"):
            fw_solve(RefusingObjective(f), BARYCENTER, caps=np.ones(4))

    def test_caps_summing_below_one_are_infeasible(self):
        f, _ = self.probe_instance(mean=np.log([0.3, 0.3, 0.2, 0.1]))
        with pytest.raises(InfeasibleRegionError):
            fw_solve(RefusingObjective(f), BARYCENTER)

    def test_vertex_start_refused_on_either_region(self):
        f, _ = self.probe_instance()
        vertex = SolverConfig(start="best-vertex")
        with pytest.raises(InvalidConfigError, match="barycenter"):
            fw_solve(RefusingObjective(f), vertex)
        with pytest.raises(InvalidConfigError, match="barycenter"):
            fw_solve(RefusingObjective(f), vertex, caps=np.array([0.5, 0.5, 0.02, 0.02]))

    def test_capped_full_simplex_objective_refuses_a_vertex_start(self):
        # A capped region starts from caps / sum(caps), which start='barycenter'
        # names; an explicit vertex start there is refused, not ignored.
        topics = TopicMatrix.normalized(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        f = ml_objective(Document(np.array([0, 1]), np.array([2.0, 1.0])), topics)
        caps = np.array([0.6, 0.6, 0.6])
        for config in (SolverConfig(start="best-vertex"), SolverConfig(start="best-vertex", max_nnz=2)):
            with pytest.raises(InvalidConfigError, match="capped regions cannot start from a vertex"):
                fw_solve(RefusingObjective(f), config, caps=caps)
        report, trace = fw_solve(f, BARYCENTER, caps=caps)
        derived, derived_trace = fw_solve(f, caps=caps)
        assert trace[0].vertex == -1 and trace[0].nnz == 3
        assert report.theta.dense(3).tobytes() == derived.theta.dense(3).tobytes()
        assert trace == derived_trace


class TestDerivedStart:
    """With start left unset, an interior-only objective starts from the
    barycenter (or, under caps, from caps / sum(caps)) and solves exactly
    as with start='barycenter'."""

    def instance(self, kind):
        rng = np.random.default_rng(71)
        topics, doc = random_ml_instance(rng, k=4, v=20)
        if kind == "lda-map":
            return lda_map_objective(doc, topics, alpha=2.0)
        a = rng.random((4, 4))
        mean = np.log([0.6, 0.6, 0.3, 0.3]) if kind == "ctm-mean" else None
        return ctm_full_objective(doc, topics, CtmPrior(a @ a.T + 4.0 * np.eye(4), mean=mean))

    @pytest.mark.parametrize("kind", ["lda-map", "ctm-zero-mean", "ctm-mean"])
    def test_default_equals_barycenter(self, kind):
        f = self.instance(kind)
        report, trace = fw_solve(f)
        explicit, explicit_trace = fw_solve(f, BARYCENTER)
        assert report.theta.dense(4).tobytes() == explicit.theta.dense(4).tobytes()
        assert trace == explicit_trace
        assert trace[0].vertex == -1


class TestConcavityContract:
    # SPD (eigenvalues 0.1 and 3.9) but mixed-sign: its penalty Hessian has
    # positive curvature near the simplex edge (see test_objectives.py)
    MIXED = np.array([[2.0, -1.9], [-1.9, 2.0]])

    def mixed_instance(self, mean=None):
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        return doc, topics, CtmPrior(self.MIXED, mean=mean)

    def test_fw_solve_refuses_mixed_sign_prior(self):
        doc, topics, prior = self.mixed_instance()
        f = ctm_full_objective(doc, topics, prior)
        with pytest.raises(NonconcavePriorError, match="nonconcave-prior"):
            fw_solve(f, config=SolverConfig(start="barycenter"))

    def test_fw_solve_capped_refuses_mixed_sign_prior(self):
        doc, topics, prior = self.mixed_instance()
        with pytest.raises(NonconcavePriorError, match="nonconcave-prior"):
            fw_solve(ctm_full_objective(doc, topics, prior), BARYCENTER, caps=ctm_caps(prior))
        doc, topics, prior = self.mixed_instance(mean=np.array([-0.5, 0.0]))
        with pytest.raises(NonconcavePriorError, match="nonconcave-prior"):
            fw_solve(ctm_full_objective(doc, topics, prior), BARYCENTER)

    def test_refusal_comes_before_any_evaluation(self):
        class Flagged:
            domain = "full-simplex"
            dim = 2
            concave = False

            def value(self, theta):
                raise AssertionError("evaluated a refused objective")

            gradient = line_restriction = value

        with pytest.raises(NonconcavePriorError):
            fw_solve(Flagged())
        with pytest.raises(NonconcavePriorError):
            fw_solve(Flagged(), caps=np.ones(2))


class NanGradientObjective:
    """A smooth concave value whose gradient has a NaN in its middle entry,
    after a smaller and before a larger finite entry."""

    domain = "full-simplex"
    dim = 3

    def value(self, theta):
        return -float(np.sum((theta - 0.2) ** 2))

    def gradient(self, theta):
        return np.array([1.0, float("nan"), 5.0])

    def line_restriction(self, theta, s_ids, s_vals):
        raise AssertionError("a NaN gradient must stop the step before its line search")


class TestNumericFailures:
    def test_nan_gradient_entry_raises_on_the_simplex(self):
        with pytest.raises(NumericFailureError, match="gradient"):
            fw_solve(NanGradientObjective(), SolverConfig(start="barycenter"))

    def test_nan_gradient_entry_raises_on_a_capped_region(self):
        with pytest.raises(NumericFailureError, match="gradient"):
            fw_solve(NanGradientObjective(), caps=np.full(3, 0.5))

    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_overflowing_counts_raise(self, scale):
        # at 1e300 the chord slope overflows on documents 0-2, at 1e306 the
        # vertex values too; solving on would end far from the unit-scale
        # answer.  Document 3's search never probes where its slope
        # overflows at 1e300, so it solves to the unit-scale answer.
        data = generate_synthetic_corpus(6, 40, 5, 30, seed=2)
        for m, doc in enumerate(data.corpus.documents[:4]):
            scaled = Document(doc.term_ids, doc.counts * scale)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                if scale == 1e306 or m < 3:
                    with pytest.raises(NumericFailureError):
                        fw_solve(ml_objective(scaled, data.topics))
                    continue
                report, _ = fw_solve(ml_objective(scaled, data.topics))
            unit, _ = fw_solve(ml_objective(doc, data.topics))
            assert report.iterations == unit.iterations
            np.testing.assert_allclose(report.theta.dense(6), unit.theta.dense(6), rtol=0, atol=1e-12)

    def test_power_of_two_scales_solve_bitwise_alike(self):
        # scaling every count by 2**e is exact in every operation of the
        # solve, so up to the overflow the solve is the unit-scale one
        data = generate_synthetic_corpus(6, 40, 5, 30, seed=2)
        for doc in data.corpus.documents:
            unit, unit_trace = fw_solve(ml_objective(doc, data.topics))
            for e in (-200, 200, 900):
                scaled = Document(doc.term_ids, doc.counts * 2.0**e)
                report, trace = fw_solve(ml_objective(scaled, data.topics))
                assert report.theta.dense(6).tobytes() == unit.theta.dense(6).tobytes()
                assert [r.alpha for r in trace] == [r.alpha for r in unit_trace]
