import math
import sys
import threading

import numpy as np
import pytest

from sparsetopics import (
    CtmPrior,
    Document,
    FULL_SIMPLEX,
    INTERIOR_ONLY,
    InvalidArgumentError,
    NonconcavePriorError,
    SolverConfig,
    TopicMatrix,
    ctm_caps,
    ctm_full_objective,
    ctm_penalty_hessian,
    fw_solve,
    lda_map_objective,
    ml_objective,
)
from sparsetopics.objectives import (
    DirichletLogPenalty,
    GaussianLogPenalty,
    MlObjective,
    PenalizedObjective,
)

import sparsetopics.core as core

from helpers import (
    finite_diff_gradient,
    finite_diff_hessian,
    hooked,
    interior_point,
    random_ml_instance,
)


def two_topic_instance():
    """Two topics with separated support, one document of four tokens."""
    topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
    doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
    return doc, topics


class TestMlObjective:
    def test_value_uniform_column(self):
        # both topics give the term probability 0.5, so any theta scores 2*ln(0.5)
        topics = TopicMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        doc = Document(np.array([0]), np.array([2.0]))
        f = ml_objective(doc, topics)
        for theta in ([1.0, 0.0], [0.25, 0.75], [0.5, 0.5]):
            assert f.value(np.array(theta)) == pytest.approx(2.0 * math.log(0.5), abs=1e-12)

    def test_value_mixed_column(self):
        # theta = (1/2, 1/2) mixes the column (0.7, 0.1) to 0.4
        topics = TopicMatrix(np.array([[0.7, 0.3], [0.1, 0.9]]))
        doc = Document(np.array([0]), np.array([1.0]))
        f = ml_objective(doc, topics)
        assert f.value(np.array([0.5, 0.5])) == pytest.approx(math.log(0.4), abs=1e-12)

    def test_value_vertex(self):
        doc, topics = two_topic_instance()
        f = ml_objective(doc, topics)
        expected = 3.0 * math.log(0.9) + math.log(0.1)
        assert f.value(np.array([1.0, 0.0])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-2.6186666399675245, abs=1e-12)

    def test_gradient_formula(self):
        doc, topics = two_topic_instance()
        f = ml_objective(doc, topics)
        theta = np.array([0.6, 0.4])
        probs = theta @ f.term_columns
        expected = f.term_columns @ (doc.counts / probs)
        assert np.allclose(f.gradient(theta), expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k, v = 4, 12
            topics = TopicMatrix.normalized(rng.random((k, v)) + 0.05)
            ids = np.sort(rng.choice(v, size=5, replace=False))
            doc = Document(ids.astype(np.int64), rng.integers(1, 6, size=5).astype(float))
            f = ml_objective(doc, topics)
            theta = interior_point(rng, k)
            approx = finite_diff_gradient(f.value, theta)
            assert np.allclose(f.gradient(theta), approx, rtol=1e-6, atol=1e-8)

    def test_domain_is_full_simplex(self):
        doc, topics = two_topic_instance()
        assert ml_objective(doc, topics).domain == FULL_SIMPLEX

    def test_rejects_invalid_topics(self):
        doc = Document(np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            ml_objective(doc, TopicMatrix(np.array([[0.5, 0.4]])))

    def test_invalid_topics_rejected_on_every_construction(self):
        # The validation result is cached on the matrix; the refusal is not.
        doc = Document(np.array([0]), np.array([1.0]))
        topics = TopicMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        for _ in range(3):
            with pytest.raises(InvalidArgumentError, match="row-sum: row 0"):
                MlObjective(doc, topics)

    def test_topics_validated_once(self, monkeypatch):
        calls = []
        real = core.validate_topic_matrix
        monkeypatch.setattr(core, "validate_topic_matrix", lambda t: calls.append(t) or real(t))
        topics = TopicMatrix.normalized(np.ones((3, 4)))
        for term in range(4):
            MlObjective(Document(np.array([term]), np.array([1.0])), topics)
        assert len(calls) == 1 and calls[0] is topics
        assert topics.problems == ()

    def test_rejects_out_of_vocabulary_document(self):
        topics = TopicMatrix.normalized(np.ones((2, 3)))
        doc = Document(np.array([0, 5]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            ml_objective(doc, topics)

    def test_concave_along_chords(self):
        rng = np.random.default_rng(11)
        doc, topics = two_topic_instance()
        f = ml_objective(doc, topics)
        for _ in range(50):
            a = rng.dirichlet(np.ones(2))
            b = rng.dirichlet(np.ones(2))
            t = rng.random()
            mix = t * a + (1.0 - t) * b
            assert f.value(mix) >= t * f.value(a) + (1.0 - t) * f.value(b) - 1e-9


class TestDirichletPenalty:
    def test_uniform_prior_matches_ml_bitwise(self):
        doc, topics = two_topic_instance()
        plain = ml_objective(doc, topics)
        mapped = lda_map_objective(doc, topics, alpha=1.0)
        theta = np.array([0.3, 0.7])
        assert mapped.value(theta) == plain.value(theta)
        assert np.array_equal(mapped.gradient(theta), plain.gradient(theta))
        assert mapped.domain == FULL_SIMPLEX

    def test_penalty_value(self):
        doc, topics = two_topic_instance()
        f = lda_map_objective(doc, topics, alpha=2.0)
        theta = np.array([0.5, 0.5])
        # (alpha - 1) * sum(log theta) = 2 * ln(1/2) on top of the likelihood
        expected = ml_objective(doc, topics).value(theta) + 2.0 * math.log(0.5)
        assert f.value(theta) == pytest.approx(expected, abs=1e-12)
        assert f.domain == INTERIOR_ONLY

    def test_vector_alpha(self):
        doc, topics = two_topic_instance()
        f = lda_map_objective(doc, topics, alpha=np.array([2.0, 3.0]))
        theta = np.array([0.25, 0.75])
        expected = ml_objective(doc, topics).value(theta)
        expected += 1.0 * math.log(0.25) + 2.0 * math.log(0.75)
        assert f.value(theta) == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        doc, topics = two_topic_instance()
        f = lda_map_objective(doc, topics, alpha=np.array([1.5, 3.0]))
        for _ in range(5):
            theta = interior_point(rng, 2)
            approx = finite_diff_gradient(f.value, theta)
            assert np.allclose(f.gradient(theta), approx, rtol=1e-6, atol=1e-8)

    def test_sparsifying_alpha_refused(self):
        doc, topics = two_topic_instance()
        with pytest.raises(NonconcavePriorError, match="nonconcave-prior"):
            lda_map_objective(doc, topics, alpha=0.5)
        with pytest.raises(NonconcavePriorError):
            lda_map_objective(doc, topics, alpha=np.array([1.0, 0.99]))

    def test_alpha_length_mismatch(self):
        doc, topics = two_topic_instance()
        with pytest.raises(InvalidArgumentError):
            lda_map_objective(doc, topics, alpha=np.ones(3))

    def test_penalty_concave_along_chords(self):
        rng = np.random.default_rng(17)
        pen = DirichletLogPenalty(np.array([2.0, 1.5, 4.0]))
        for _ in range(50):
            a = interior_point(rng, 3)
            b = interior_point(rng, 3)
            t = rng.random()
            mix = t * a + (1.0 - t) * b
            assert pen.value(mix) >= t * pen.value(a) + (1.0 - t) * pen.value(b) - 1e-9


class TestCtmPrior:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            CtmPrior(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidArgumentError):
            CtmPrior(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidArgumentError):
            CtmPrior(np.ones((2, 3)))

    def test_mean_length_check(self):
        with pytest.raises(InvalidArgumentError):
            CtmPrior(np.eye(2), mean=np.zeros(3))

    def test_symmetrizes_tiny_noise(self):
        p = np.eye(2)
        p[0, 1] = 1e-12
        prior = CtmPrior(p)
        assert prior.precision[0, 1] == prior.precision[1, 0]

    def test_certified_exactly_when_entrywise_nonnegative(self):
        assert CtmPrior(np.eye(3)).certified
        assert CtmPrior(np.array([[2.0, 1.9], [1.9, 2.0]])).certified
        assert not CtmPrior(np.array([[2.0, -1.9], [-1.9, 2.0]])).certified
        assert not CtmPrior(np.array([[1.0, -1e-9], [-1e-9, 1.0]])).certified

    def test_concavity_flag_follows_the_prior(self):
        doc, topics = two_topic_instance()
        good = CtmPrior(np.eye(2))
        bad = CtmPrior(np.array([[2.0, -1.9], [-1.9, 2.0]]))
        assert GaussianLogPenalty(good).concave
        assert not GaussianLogPenalty(bad).concave
        assert ctm_full_objective(doc, topics, good).concave
        assert not ctm_full_objective(doc, topics, bad).concave
        assert lda_map_objective(doc, topics, alpha=2.0).concave


class TestGaussianPenalty:
    def test_value_and_gradient_at_barycenter(self):
        # identity precision, zero mean, K = 2: x = log(1/2) * ones,
        # value = -(ln 2)^2, gradient = 2 ln 2 on both coordinates
        pen = GaussianLogPenalty(CtmPrior(np.eye(2)))
        theta = np.array([0.5, 0.5])
        assert pen.value(theta) == pytest.approx(-(math.log(2.0) ** 2), abs=1e-12)
        assert pen.value(theta) == pytest.approx(-0.4804530139182014, abs=1e-12)
        assert np.allclose(pen.gradient(theta), 2.0 * math.log(2.0), atol=1e-12)

    def test_nonzero_mean(self):
        mu = np.array([0.2, -0.4])
        pen = GaussianLogPenalty(CtmPrior(np.eye(2), mean=mu))
        theta = np.array([0.3, 0.7])
        x = np.log(theta) - mu
        assert pen.value(theta) == pytest.approx(-0.5 * x @ x, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(3, 3))
        prior = CtmPrior(a @ a.T + 3.0 * np.eye(3), mean=rng.normal(size=3))
        pen = GaussianLogPenalty(prior)
        for _ in range(5):
            theta = interior_point(rng, 3)
            approx = finite_diff_gradient(pen.value, theta)
            assert np.allclose(pen.gradient(theta), approx, rtol=1e-6, atol=1e-7)


class TestCtmObjectives:
    def test_map_objective_combines(self):
        doc, topics = two_topic_instance()
        prior = CtmPrior(np.eye(2))
        f = ctm_full_objective(doc, topics, prior)
        theta = np.array([0.5, 0.5])
        expected = ml_objective(doc, topics).value(theta) - math.log(2.0) ** 2
        assert f.value(theta) == pytest.approx(expected, abs=1e-12)
        assert f.domain == INTERIOR_ONLY

    def test_map_objective_rejects_mean(self):
        # a mean certifies the penalty only under its caps, so the whole
        # simplex is refused; without one there are no caps
        doc, topics = two_topic_instance()
        prior = CtmPrior(np.eye(2), mean=np.array([0.1, -0.1]))
        f = ctm_full_objective(doc, topics, prior)
        assert np.array_equal(f.caps, ctm_caps(prior))
        assert ctm_full_objective(doc, topics, CtmPrior(np.eye(2))).caps is None
        with pytest.raises(NonconcavePriorError, match="caps"):
            fw_solve(f, SolverConfig(start="barycenter"), caps=np.ones(2))

    def test_full_objective_accepts_mean(self):
        doc, topics = two_topic_instance()
        prior = CtmPrior(np.eye(2), mean=np.array([0.1, -0.1]))
        f = ctm_full_objective(doc, topics, prior)
        theta = np.array([0.4, 0.6])
        x = np.log(theta) - prior.mean
        expected = ml_objective(doc, topics).value(theta) - 0.5 * x @ x
        assert f.value(theta) == pytest.approx(expected, abs=1e-12)

    def test_weight_scales_penalty(self):
        doc, topics = two_topic_instance()
        prior = CtmPrior(np.eye(2))
        half = PenalizedObjective(
            ml_objective(doc, topics), GaussianLogPenalty(prior), weight=0.5
        )
        theta = np.array([0.5, 0.5])
        expected = ml_objective(doc, topics).value(theta) - 0.5 * math.log(2.0) ** 2
        assert half.value(theta) == pytest.approx(expected, abs=1e-12)

    def test_caps_without_mean_are_ones(self):
        assert np.array_equal(ctm_caps(CtmPrior(np.eye(3))), np.ones(3))

    def test_caps_with_mean(self):
        mu = np.array([-1.0, 0.5, 0.0])
        caps = ctm_caps(CtmPrior(np.eye(3), mean=mu))
        assert np.allclose(caps, [math.exp(-1.0), 1.0, 1.0], atol=1e-12)


class TestCtmHessian:
    def test_barycenter_identity_case(self):
        # K = 2, P = I, mu = 0 at the barycenter: diagonal -4 (1 + ln 2)
        prior = CtmPrior(np.eye(2))
        h = ctm_penalty_hessian(np.array([0.5, 0.5]), prior)
        expected_diag = -4.0 * (1.0 + math.log(2.0))
        assert h[0, 0] == pytest.approx(expected_diag, abs=1e-12)
        assert h[1, 1] == pytest.approx(expected_diag, abs=1e-12)
        assert h[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert expected_diag == pytest.approx(-6.772588722239782, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            a = rng.normal(size=(k, k))
            prior = CtmPrior(a @ a.T + k * np.eye(k), mean=rng.normal(size=k) * 0.3)
            pen = GaussianLogPenalty(prior)
            theta = interior_point(rng, k)
            h = ctm_penalty_hessian(theta, prior)
            approx = finite_diff_hessian(pen.gradient, theta)
            assert np.allclose(h, approx, rtol=1e-4, atol=1e-4)

    def test_nonnegative_precision_is_negative_definite(self):
        # entrywise non-negative precisions keep P @ log(theta) <= 0, which
        # makes every diagonal correction term negative on the open simplex
        rng = np.random.default_rng(97)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            a = np.abs(rng.normal(size=(k, k)))
            prior = CtmPrior(a @ a.T + np.eye(k))
            theta = rng.dirichlet(np.ones(k))
            theta = np.maximum(theta, 1e-6)
            theta /= theta.sum()
            h = ctm_penalty_hessian(theta, prior)
            eigs = np.linalg.eigvalsh(0.5 * (h + h.T))
            assert eigs.max() < 0.0

    def test_mixed_sign_counterexample_full_space(self):
        # a perfectly valid SPD precision whose penalty Hessian has a
        # positive eigenvalue at a skewed interior point
        prior = CtmPrior(np.array([[2.0, -1.9], [-1.9, 2.0]]))
        theta = np.array([0.98, 0.02])
        eigs = np.linalg.eigvalsh(ctm_penalty_hessian(theta, prior))
        assert eigs.max() > 1.0

    def test_mixed_sign_counterexample_on_simplex(self):
        # positive curvature survives restriction to the simplex tangent
        # space, so this is genuine non-concavity of the constrained problem
        rng = np.random.default_rng(61)
        a = rng.normal(size=(5, 5))
        prior = CtmPrior(a @ a.T + 5.0 * np.eye(5))
        theta = rng.dirichlet(np.ones(5))
        h = ctm_penalty_hessian(theta, prior)
        basis = np.eye(5) - np.full((5, 5), 0.2)
        tangent = basis.T @ h @ basis
        eigs, vecs = np.linalg.eigh(0.5 * (tangent + tangent.T))
        assert eigs.max() > 1.0

        # confirm with raw function values along the worst direction
        pen = GaussianLogPenalty(prior)
        v = basis @ vecs[:, -1]
        v /= np.linalg.norm(v)
        s = 1e-5
        second = (pen.value(theta + s * v) + pen.value(theta - s * v) - 2.0 * pen.value(theta)) / s**2
        assert second > 1.0


def test_line_restriction_matches_direct_evaluation():
    doc, topics = two_topic_instance()
    f = lda_map_objective(doc, topics, alpha=2.0)
    theta = np.array([0.6, 0.4])
    vertex_ids = np.array([1])
    vertex_vals = np.array([1.0])
    g, dg = f.line_restriction(theta, vertex_ids, vertex_vals)
    for alpha in (0.0, 0.1, 0.5, 0.9):
        point = (1.0 - alpha) * theta
        point[vertex_ids] = point[vertex_ids] + alpha * vertex_vals
        assert g(alpha) == pytest.approx(f.value(point), abs=1e-10)
        point = (1.0 - alpha) * theta.copy()
        point[vertex_ids] += alpha * vertex_vals
        direction = -theta.copy()
        direction[vertex_ids] += vertex_vals
        assert dg(alpha) == pytest.approx(direction @ f.gradient(point), rel=1e-8)


def test_ml_line_restriction_uses_cached_columns():
    doc, topics = two_topic_instance()
    f = MlObjective(doc, topics)
    theta = np.array([0.5, 0.5])
    g, dg = f.line_restriction(theta, np.array([0]), np.array([1.0]))
    probe = np.array([0.75, 0.25])
    assert g(0.5) == pytest.approx(f.value(probe), abs=1e-12)
    assert dg is not None


def evaluations(f, theta, s_ids, s_vals):
    """Everything the solver reads from f at theta, as bytes."""
    g, dg = f.line_restriction(theta, s_ids, s_vals)
    probes = (0.0, 0.25, 0.5, 1.0)
    return (
        np.float64(f.value(theta)).tobytes(),
        f.gradient(theta).tobytes(),
        np.array([g(a) for a in probes]).tobytes(),
        np.array([dg(a) for a in probes]).tobytes(),
    )


class TestMixtureMemo:
    """MlObjective remembers its last theta . term_columns; every result
    must be the one a fresh objective gives."""

    def instance(self, seed):
        rng = np.random.default_rng(seed)
        topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 9)), v=30)
        thetas = [interior_point(rng, topics.num_topics) for _ in range(3)]
        return doc, topics, thetas

    def test_warm_and_cold_agree_bitwise(self):
        for seed in range(10):
            doc, topics, thetas = self.instance(seed)
            s_ids, s_vals = np.array([0]), np.array([1.0])
            warm = MlObjective(doc, topics)
            for theta in thetas + thetas[::-1]:
                cold = evaluations(MlObjective(doc, topics), theta, s_ids, s_vals)
                assert evaluations(warm, theta, s_ids, s_vals) == cold
                # and again with the memo holding exactly this theta
                assert evaluations(warm, theta.copy(), s_ids, s_vals) == cold

    def test_in_place_mutation_is_seen(self):
        doc, topics, (a, b, _) = self.instance(3)
        f = MlObjective(doc, topics)
        theta = a.copy()
        assert f.value(theta) == MlObjective(doc, topics).value(a)
        theta[:] = b
        assert f.value(theta) == MlObjective(doc, topics).value(b)
        assert np.array_equal(f.gradient(theta), MlObjective(doc, topics).gradient(b))
        theta *= 0.5
        theta[0] += 0.5
        fresh = MlObjective(doc, topics)
        assert f.value(theta) == fresh.value(theta.copy())

    def test_underflowed_single_term_sums_to_positive_zero(self):
        # count * log p and count * dp / p round to -0.0; like a sum, the
        # objective and the chord functions return +0.0 (dg reads its
        # product with ndarray.dot, which keeps a lone -0.0)
        topics = TopicMatrix(np.array([[0.75, 0.25], [0.9, 0.1]]))
        f = MlObjective(Document(np.array([0]), np.array([5e-324])), topics)
        theta = np.array([0.0, 1.0])
        g, dg = f.line_restriction(theta, np.array([0]), np.array([1.0]))
        for value in (f.value(theta), g(0.0), dg(0.0)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_cached_mixture_is_read_only(self):
        doc, topics, (a, _, _) = self.instance(4)
        f = MlObjective(doc, topics)
        f.value(a)
        with pytest.raises(ValueError):
            f._memo[1][0] = 1.0

    def test_reused_objective_solves_identically(self):
        rng = np.random.default_rng(21)
        config = SolverConfig(rel_tol=1e-12)
        for _ in range(5):
            topics, doc = random_ml_instance(rng, k=8, v=40)
            f = MlObjective(doc, topics)
            first, first_trace = fw_solve(f, config=config)
            second, second_trace = fw_solve(f, config=config)
            assert first.theta.topic_ids.tobytes() == second.theta.topic_ids.tobytes()
            assert first.theta.weights.tobytes() == second.theta.weights.tobytes()
            assert (first.iterations, first.objective) == (second.iterations, second.objective)
            assert first_trace.records == second_trace.records

    def test_threads_sharing_an_objective(self):
        # A worker thread pauses inside its one theta . slab product while
        # the main thread evaluates another theta on the same objective.
        doc, topics, (a, b, _) = self.instance(5)
        s_ids, s_vals = np.array([1]), np.array([1.0])
        fresh_a, fresh_b = (evaluations(MlObjective(doc, topics), t, s_ids, s_vals) for t in (a, b))
        paused, release = threading.Event(), threading.Event()

        def pause_worker_once():
            if threading.current_thread() is worker and not paused.is_set():
                paused.set()
                assert release.wait(10)

        shared = hooked(MlObjective(doc, topics), pause_worker_once)
        seen = {}
        worker = threading.Thread(target=lambda: seen.setdefault("a", shared.value(a)))
        worker.start()
        try:
            assert paused.wait(10)
            seen["b"] = evaluations(shared, b, s_ids, s_vals)
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert seen == {"a": MlObjective(doc, topics).value(a), "b": fresh_b}
        # the memo the two threads left behind answers for both points
        assert evaluations(shared, b, s_ids, s_vals) == fresh_b
        assert evaluations(shared, a, s_ids, s_vals) == fresh_a

    def test_threads_stress(self):
        doc, topics, thetas = self.instance(6)
        s_ids, s_vals = np.array([0]), np.array([1.0])
        expected = [evaluations(MlObjective(doc, topics), t, s_ids, s_vals) for t in thetas]
        shared = MlObjective(doc, topics)
        mismatches = []

        def work(offset):
            for i in range(150):
                which = (i + offset) % len(thetas)
                if evaluations(shared, thetas[which], s_ids, s_vals) != expected[which]:
                    mismatches.append(which)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert mismatches == []

    def test_one_mixture_per_step(self):
        rng = np.random.default_rng(23)
        for start in ("best-vertex", "barycenter"):
            for _ in range(10):
                topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 12)), v=40)
                products = []
                f = hooked(MlObjective(doc, topics), lambda: products.append(1))
                report, trace = fw_solve(f, config=SolverConfig(rel_tol=1e-12, start=start))
                still = sum(1 for r in trace.records[1:] if r.alpha == 0.0)
                assert len(products) <= 1 + report.iterations + still
