import functools
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetopics import (
    CtmPrior,
    Document,
    DomainViolationError,
    FULL_SIMPLEX,
    INTERIOR_ONLY,
    InvalidArgumentError,
    NonconcavePriorError,
    SolverConfig,
    TopicMatrix,
    ctm_caps,
    ctm_full_objective,
    fw_solve,
    lda_map_objective,
    ml_objective,
)
from sparsetopics.objectives import (
    DirichletLogPenalty,
    GaussianLogPenalty,
    MlObjective,
    Objective,
    PenalizedObjective,
    _CarriedMl,
    is_concave,
)

import sparsetopics.core as core
import sparsetopics.solver as solver_module

from helpers import (
    Delegating,
    Forwarding,
    ctm_penalty_hessian,
    finite_diff_gradient,
    finite_diff_hessian,
    hooked,
    interior_point,
    random_ml_instance,
    random_prior,
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
        # refused when the matrix is built, before any objective sees it
        doc = Document(np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidArgumentError, match="invalid topic matrix: row-sum: row 0"):
            ml_objective(doc, TopicMatrix(np.array([[0.5, 0.4]])))

    def test_topics_validated_once(self, monkeypatch):
        # once, when the matrix is built; objectives over it scan nothing
        calls = []
        real = core.validate_topic_matrix
        monkeypatch.setattr(core, "validate_topic_matrix", lambda rows: calls.append(rows) or real(rows))
        topics = TopicMatrix.normalized(np.ones((3, 4)))
        for term in range(4):
            MlObjective(Document(np.array([term]), np.array([1.0])), topics)
        assert len(calls) == 1 and calls[0] is topics.rows

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

    @pytest.mark.parametrize("alpha", [1.0, np.ones(12)])
    def test_flat_prior_is_the_likelihood(self, alpha, monkeypatch):
        topics, doc = random_ml_instance(np.random.default_rng(83), k=12, v=40)
        # both solved on the likelihood's carried steps, whose value is
        # called once, at the start
        calls = []
        value = _CarriedMl.value
        monkeypatch.setattr(_CarriedMl, "value", lambda steps, theta: calls.append(1) or value(steps, theta))
        runs = []
        for f in (ml_objective(doc, topics), lda_map_objective(doc, topics, alpha)):
            assert type(f) is MlObjective
            calls.clear()
            report, trace = fw_solve(f)
            records = np.array([[r.iteration, r.objective, r.nnz, r.vertex, r.alpha] for r in trace])
            runs.append((report.theta.dense(12).tobytes(), records.tobytes(), len(calls)))
        assert runs[0] == runs[1]
        assert runs[0][2] == 1

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


class TestLogPenalty:
    @pytest.mark.parametrize(
        "penalty",
        [
            DirichletLogPenalty(np.array([2.0, 2.0])),
            GaussianLogPenalty(CtmPrior(np.array([[2.0, 0.5], [0.5, 2.0]]))),
        ],
    )
    def test_value_and_gradient_agree_below_1e_12(self, penalty):
        # value and gradient read the same log theta however small theta is
        theta = np.array([1e-13, 1.0 - 1e-13])
        step = 1e-4 * theta[0] * np.array([1.0, -1.0])
        plus, minus = theta + step, theta - step
        assert is_concave(penalty)
        expected = float(penalty.gradient(theta) @ (plus - minus))
        got = penalty.value(plus) - penalty.value(minus)
        assert got == pytest.approx(expected, rel=1e-6)


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

    def test_penalized_is_the_sum_of_its_parts(self):
        doc, topics = two_topic_instance()
        base, penalty = ml_objective(doc, topics), GaussianLogPenalty(CtmPrior(np.eye(2)))
        f = PenalizedObjective(base, penalty)
        theta = np.array([0.3, 0.7])
        assert f.value(theta) == base.value(theta) + penalty.value(theta)
        assert np.array_equal(f.gradient(theta), base.gradient(theta) + penalty.gradient(theta))
        _, dg = f.line_restriction(theta, np.array([0]), np.array([1.0]))
        _, dg1 = base.line_restriction(theta, np.array([0]), np.array([1.0]))
        _, dg2 = penalty.line_restriction(theta, np.array([0]), np.array([1.0]))
        (s1, c1), (s2, c2) = dg1(0.25), dg2(0.25)
        assert dg(0.25) == (s1 + s2, c1 + c2)

    def test_caps_without_mean_are_ones(self):
        assert np.array_equal(ctm_caps(CtmPrior(np.eye(3))), np.ones(3))

    def test_caps_with_mean(self):
        mu = np.array([-1.0, 0.5, 0.0])
        caps = ctm_caps(CtmPrior(np.eye(3), mean=mu))
        assert np.allclose(caps, [math.exp(-1.0), 1.0, 1.0], atol=1e-12)

    def test_caps_of_a_large_mean_under_warnings_as_errors(self):
        # exp(800) overflows; a mean entry above 0 caps nothing either way
        mu = np.array([800.0, -1.0, 709.8, 1e-300, -1e-300, -745.0, -800.0, 0.0, -0.0])
        prior = CtmPrior(np.eye(mu.size), mean=mu)
        doc, _ = two_topic_instance()
        topics = TopicMatrix.normalized(np.ones((mu.size, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            caps = ctm_caps(prior)
            f = ctm_full_objective(doc, topics, prior)
        with np.errstate(over="ignore"):
            assert caps.tobytes() == np.minimum(1.0, np.exp(mu)).tobytes()
        assert np.array_equal(f.caps, caps)


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
        assert dg(alpha)[0] == pytest.approx(direction @ f.gradient(point), rel=1e-8)


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
        for value in (f.value(theta), g(0.0), dg(0.0)[0]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("family", ["likelihood", "dirichlet", "gaussian", "likelihood-plus-dirichlet"])
    def test_products_of_minus_zero_read_plus_zero(self, family):
        # One topic, so each scalar a step reads is one product, and each
        # product is -0.0: an underflowed count * log p or slope term, or a
        # zero lambda or dphi(y) times a negative or zero factor.  As @
        # would, value, g and the slope of the objective's own chord and of
        # the default chord return +0.0; ndarray.dot alone keeps the -0.0.
        topics = TopicMatrix(np.array([[0.75, 0.25]]))
        ml = MlObjective(Document(np.array([0]), np.array([5e-324])), topics)
        theta, s_vals = np.array([0.9]), np.array([0.75])
        if family == "likelihood":
            f = ml
        elif family == "dirichlet":
            f = DirichletLogPenalty(np.ones(1))
        elif family == "gaussian":
            f = GaussianLogPenalty(CtmPrior(np.eye(1), mean=np.zeros(1)))
            theta, s_vals = np.array([1.0]), np.array([1.0])
        else:
            f = PenalizedObjective(ml, DirichletLogPenalty(np.ones(1)))
        values = [f.value(theta)]
        for restriction in (f.line_restriction, lambda *a: Objective.line_restriction(f, *a)):
            g, dg = restriction(theta, np.array([0]), s_vals)
            values += [g(0.0), dg(0.0)[0]]
        assert [(v, math.copysign(1.0, v)) for v in values] == [(0.0, 1.0)] * 5

    def test_gaussian_curvature_of_an_underflowed_form_reads_plus_zero(self):
        # u . (phi'' u) underflows to -0.0 and dphi(y) . (u * u) to +0.0, so
        # the curvature is +0.0 only when d2phi reads -0.0 as +0.0, as @ does
        pen = GaussianLogPenalty(CtmPrior(np.array([[1e-300]]), mean=np.zeros(1)))
        _, dg = pen.line_restriction(np.array([0.5]), np.array([0]), np.array([0.5 + 5e-14]))
        curvature = dg(0.0)[1]
        assert curvature == 0.0 and math.copysign(1.0, curvature) == 1.0

    def test_cached_mixture_is_read_only(self):
        doc, topics, (a, _, _) = self.instance(4)
        f = MlObjective(doc, topics)
        f.value(a)
        with pytest.raises(ValueError):
            f._memo[1][0] = 1.0
        # and so is a chord's mixture, kept for the chord point
        g, _ = f.line_restriction(a, np.array([0]), np.array([1.0]))
        point = a * 0.25
        point[0] += 0.75
        g(0.75, point)
        assert f._memo[0] == point.tobytes()
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
            assert first_trace == second_trace

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
        # A barycenter start forms one product and a vertex start none, as
        # the steps take the winner's row as the mixture at the start.
        # After that a step's point holds its chord's mixture, and a
        # rolled-back step ends the solve, so no step forms a product.
        rng = np.random.default_rng(23)
        steps = 0
        for start in ("best-vertex", "barycenter"):
            for _ in range(10):
                topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 12)), v=40)
                products = []
                f = hooked(MlObjective(doc, topics), lambda: products.append(1))
                report, _ = fw_solve(f, config=SolverConfig(rel_tol=1e-12, start=start))
                assert len(products) == (start == "barycenter")
                steps += report.iterations
        assert steps > 200

    @pytest.mark.parametrize("k", [20, 100, 1000])
    def test_a_stepped_point_holds_the_product_within_rounding(self, k):
        # A step's chord forms its mixture from the last one; t steps
        # leave it within 8 t eps of theta . term_columns, entry by entry.
        rng = np.random.default_rng(k)
        for _ in range(3):
            topics, doc = random_ml_instance(rng, k=k, v=300)
            f = MlObjective(doc, topics)
            # Through the methods: a carried solve writes no memo.
            report, _ = fw_solve(Forwarding(f), config=SolverConfig(rel_tol=1e-12))
            key, p = f._memo
            exact = np.frombuffer(key) @ f.term_columns
            assert report.iterations > 1
            assert np.all(np.abs(p - exact) <= 8 * report.iterations * np.finfo(float).eps * exact)

    @pytest.mark.parametrize("case", ["best vertex", "barycenter", "ctm", "lda-map"])
    def test_a_carried_solve_neither_reads_nor_writes_the_memo(self, case):
        # The memo holds a mixture 1e-9 off at the start point: a solve
        # that read it would not repeat a fresh objective's, and one that
        # wrote the memo would leave another entry.
        rng = np.random.default_rng(31)
        config = SolverConfig(rel_tol=1e-12, start="barycenter" if case == "barycenter" else None)
        for _ in range(5):
            k = int(rng.integers(2, 12))
            topics, doc = random_ml_instance(rng, k=k, v=40)
            alpha = 1.0 + rng.random(k)
            prior = CtmPrior(random_prior(rng, k, with_mean=False).precision, mean=np.full(k, math.log(0.6)))

            def make():
                if case == "ctm":
                    return ctm_full_objective(doc, topics, prior)
                return lda_map_objective(doc, topics, alpha) if case == "lda-map" else MlObjective(doc, topics)

            want, want_trace = fw_solve(make(), config)
            f = make()
            likelihood = f if case in ("best vertex", "barycenter") else f.base
            start = np.eye(k)[want_trace[0].vertex] if case == "best vertex" else np.full(k, 1.0 / k)
            if case == "ctm":
                start = ctm_caps(prior) / ctm_caps(prior).sum()
            wrong = (start @ likelihood.term_columns) * (1.0 + 1e-9)
            likelihood._keep(start, wrong)
            report, trace = fw_solve(f, config)
            read = repr(trace) != repr(want_trace) or report.theta.weights.tobytes() != want.theta.weights.tobytes()
            assert not read, "the solve read the memo"
            assert likelihood._mixture(start) is wrong, "the solve wrote the memo"

    def test_threads_solving_on_one_objective_get_the_bits_of_a_solo_solve(self):
        # Which mixture a point holds depends on the solve that reached it,
        # so each solve keeps its state in its own steps, not in the memo.
        self.threads_solve(caps=None)

    def test_threads_solving_a_capped_region_get_the_bits_of_a_solo_solve(self):
        # Their first chords race to build the row-major slab copy.
        self.threads_solve(caps=np.full(40, 0.1))

    def threads_solve(self, caps):
        rng = np.random.default_rng(29)
        topics, doc = random_ml_instance(rng, k=40, v=200)
        config = SolverConfig(rel_tol=1e-12)
        solo, solo_trace = fw_solve(MlObjective(doc, topics), config=config, caps=caps)
        expected = [(solo.theta.weights.tobytes(), solo.theta.topic_ids.tobytes(), solo_trace)] * 3
        shared = MlObjective(doc, topics)
        got = {}

        def work(i):
            got[i] = [(r.theta.weights.tobytes(), r.theta.topic_ids.tobytes(), t)
                      for r, t in (fw_solve(shared, config=config, caps=caps) for _ in range(3))]

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
        assert solo.iterations > 10
        assert got == {i: expected for i in range(4)}



def bits(x) -> bytes:
    return np.float64(x).tobytes()


def random_target(rng, k, n):
    """A target point on n of k coordinates: a vertex when n is 1."""
    s_ids = np.sort(rng.choice(k, size=n, replace=False)).astype(np.int64)
    s_vals = np.ones(1) if n == 1 else rng.dirichlet(np.ones(n))
    return s_ids, s_vals


CHORD_PROBES = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9)


def assert_sum_close(got, terms, expected=None):
    """got is the sum of terms to rounding: within 1e-13 * sum |term_j| of
    expected (default: the plain sum).  All-zero terms leave no room, so
    only an exactly zero sum may differ, in its sign."""
    terms = np.asarray(terms, dtype=np.float64)
    expected = float(terms.sum()) if expected is None else expected
    assert abs(got - expected) <= 1e-13 * float(np.abs(terms).sum())


def plain_penalty_chord(pen, theta, s_ids, s_vals, a):
    """The log-space prior's slope and curvature terms at the default
    chord's point: dphi_k d_k / x_k, and u_k phi''_kl u_l beside
    -dphi_k d_k u_k / x_k, u = d / x."""
    target = np.zeros(pen.dim)
    target[s_ids] = s_vals
    direction = target - theta
    x = (1.0 - a) * theta
    x[s_ids] += a * s_vals
    dphi = pen.gradient(x) * x
    u = direction / x
    hessian = getattr(pen, "_d2", 0.0)  # phi'', zero for the Dirichlet prior
    slope_terms = dphi * u
    curvature_terms = np.concatenate([(np.outer(u, u) * hessian).ravel(), -dphi * u * u])
    return slope_terms, curvature_terms


class TestChordBitwise:
    """The line-search chords work in scratch arrays on rearranged
    formulas; each gives the plain formula's slope and curvature to
    rounding and the default chord's value bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_ml_dg_matches_plain_formula(self, n):
        rng = np.random.default_rng(41 + n)
        for _ in range(20):
            topics, doc = random_ml_instance(rng, k=int(rng.integers(max(n, 2), 9)), v=30)
            f = MlObjective(doc, topics)
            theta = interior_point(rng, f.dim)
            s_ids, s_vals = random_target(rng, f.dim, n)
            p0 = theta @ f.term_columns
            ps = s_vals @ f.term_columns[s_ids, :]
            dp = ps - p0
            _, dg = f.line_restriction(theta, s_ids, s_vals)
            for a in CHORD_PROBES + (1.0,) + tuple(rng.random(5)):
                w = dp / (p0 + a * dp)
                slope, curvature = dg(a)
                assert_sum_close(slope, doc.counts * w, float(doc.counts.dot(w)) + 0.0)
                assert_sum_close(curvature, -doc.counts * w * w, -float(doc.counts.dot(w * w)))

    @pytest.mark.parametrize("with_mean", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    def test_gaussian_chord_matches_default(self, with_mean, n):
        rng = np.random.default_rng(47 + n + 10 * with_mean)
        for _ in range(20):
            k = int(rng.integers(n + 1, 9))
            pen = GaussianLogPenalty(random_prior(rng, k, with_mean))
            theta = interior_point(rng, k)
            s_ids, s_vals = random_target(rng, k, n)
            g, dg = pen.line_restriction(theta, s_ids, s_vals)
            g0, dg0 = Objective.line_restriction(pen, theta, s_ids, s_vals)
            for a in CHORD_PROBES + tuple(rng.random(5)):
                assert bits(g(a)) == bits(g0(a))
                slope_terms, curvature_terms = plain_penalty_chord(pen, theta, s_ids, s_vals, a)
                slope, curvature = dg(a)
                assert_sum_close(slope, slope_terms, dg0(a)[0])
                assert_sum_close(curvature, curvature_terms)
            # at a = 1 the chord reaches the target's zero coordinates
            for chord in (dg, dg0):
                with pytest.raises(DomainViolationError):
                    chord(1.0)

    def test_gaussian_chord_refuses_a_zero_start_coordinate(self):
        pen = GaussianLogPenalty(CtmPrior(np.eye(3), mean=np.zeros(3)))
        theta = np.array([0.5, 0.5, 0.0])
        for restriction in (pen.line_restriction, lambda *a: Objective.line_restriction(pen, *a)):
            _, dg = restriction(theta, np.array([1]), np.ones(1))
            with pytest.raises(DomainViolationError):
                dg(0.0)

    def objectives(self, rng):
        topics, doc = random_ml_instance(rng, k=6, v=30)
        prior = random_prior(rng, 6, with_mean=False)
        return {
            "ml": lambda: MlObjective(doc, topics),
            "ctm": lambda: ctm_full_objective(doc, topics, prior),
        }

    def test_two_live_restrictions_of_one_objective(self):
        rng = np.random.default_rng(53)
        for name, make in self.objectives(rng).items():
            chords = [(interior_point(rng, 6), *random_target(rng, 6, n)) for n in (1, 3)]
            expected = [[dg(a) for a in CHORD_PROBES] for dg in
                        (make().line_restriction(*c)[1] for c in chords)]
            shared = make()
            live = [shared.line_restriction(*c)[1] for c in chords]
            got = [[], []]
            for a in CHORD_PROBES:
                for i, dg in enumerate(live):
                    got[i].append(dg(a))
            assert [np.array(r).tobytes() for r in got] == [np.array(r).tobytes() for r in expected], name

    def test_threads_each_with_its_own_restriction(self):
        rng = np.random.default_rng(59)
        for name, make in self.objectives(rng).items():
            chords = [(interior_point(rng, 6), *random_target(rng, 6, 1 + i % 3)) for i in range(4)]
            probes = rng.random(50)
            expected = [np.array([make().line_restriction(*c)[1](a) for a in probes]).tobytes() for c in chords]
            shared = make()
            got = {}

            def work(i):
                out = []
                for _ in range(20):
                    dg = shared.line_restriction(*chords[i])[1]
                    out.append(np.array([dg(a) for a in probes]).tobytes())
                got[i] = out

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                workers = [threading.Thread(target=work, args=(i,)) for i in range(len(chords))]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in workers)
            assert got == {i: [expected[i]] * 20 for i in range(len(chords))}, name


def counted_products(pen, monkeypatch) -> list:
    """Counts pen's dphi(y) products at a point of its own, leaving out
    those at the line search's probes past 0, which form their own point.
    fw_solve's line_search is patched to tell the probes apart, as a
    carried solve never calls pen's line_restriction."""
    products, probing = [], [False]
    dphi, search = pen._dphi, solver_module.line_search

    def counting(y):
        if not probing[0]:
            products.append(1)
        return dphi(y)

    def probe(dg, a):
        probing[0] = a != 0.0
        try:
            return dg(a)
        finally:
            probing[0] = False

    pen._dphi = counting
    monkeypatch.setattr(solver_module, "line_search", lambda dg, **kw: search(functools.partial(probe, dg), **kw))
    return products


class TestPenaltyState:
    """A log-space penalty keeps no memo: value, gradient and the chord's
    probe at 0 each form (y, dphi(y)) at their own theta, and must give
    what the plain expressions give, bit for bit.  The carried steps form
    it once at the start and once a step."""

    @staticmethod
    def ctm(rng, k, with_mean=True):
        """A certified CTM objective; capped at 0.3 with its mean."""
        topics, doc = random_ml_instance(rng, k=k, v=40)
        a = rng.random((k, k))
        mean = np.log(np.full(k, 0.3)) if with_mean else None
        return doc, topics, ctm_full_objective(doc, topics, CtmPrior(a @ a.T + k * np.eye(k), mean=mean))

    @pytest.mark.parametrize("kind, seed", [("dirichlet", 89), ("gaussian", 90), ("gaussian-mean", 91)])
    def test_matches_memo_less_expressions(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            k = int(rng.integers(2, 9))
            if kind == "dirichlet":
                pen = DirichletLogPenalty(1.0 + 3.0 * rng.random(k))
            else:
                pen = GaussianLogPenalty(random_prior(rng, k, kind == "gaussian-mean"))
            thetas = [interior_point(rng, k) for _ in range(3)]
            # each point twice, where the list turns back
            for theta in thetas + thetas[::-1]:
                s_ids, s_vals = random_target(rng, k, int(rng.integers(1, k + 1)))
                target = np.zeros(k)
                target[s_ids] = s_vals
                y = np.log(theta) if pen.mean is None else np.log(theta) - pen.mean
                dphi_y = pen._dphi(y)
                u = (target - theta) / theta
                expected = [
                    bits(pen._phi(y, dphi_y)),
                    (dphi_y / theta).tobytes(),
                    np.array([float(dphi_y.dot(u)) + 0.0, pen._d2phi(u) - float(dphi_y.dot(u * u))]).tobytes(),
                ]
                _, dg = pen.line_restriction(theta, s_ids, s_vals)
                # the chord at 0 first, then value and gradient, then the chord again
                assert np.array(dg(0.0)).tobytes() == expected[2]
                got = [bits(pen.value(theta)), pen.gradient(theta).tobytes(), np.array(dg(0.0)).tobytes()]
                assert got == expected

    def test_threads_stress(self):
        rng = np.random.default_rng(103)
        pen = GaussianLogPenalty(random_prior(rng, 6, with_mean=True))
        thetas = [interior_point(rng, 6) for _ in range(3)]
        s_ids, s_vals = np.array([2]), np.ones(1)

        def at(f, theta):
            return (bits(f.value(theta)), f.gradient(theta).tobytes(),
                    np.array(f.line_restriction(theta, s_ids, s_vals)[1](0.0)).tobytes())

        expected = [at(GaussianLogPenalty(pen.prior), t) for t in thetas]
        mismatches = []

        def work(offset):
            for i in range(150):
                which = (i + offset) % len(thetas)
                if at(pen, thetas[which]) != expected[which]:
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

    @pytest.mark.parametrize("with_mean", [False, True])
    def test_one_product_per_step(self, with_mean, monkeypatch):
        # On carried steps: the start's state is formed once, for the
        # steps, whose value reads it, then once by each step's g.
        rng = np.random.default_rng(97 + with_mean)
        for _ in range(5):
            _, _, f = self.ctm(np.random.default_rng(int(rng.integers(2**32))), 12, with_mean)
            with monkeypatch.context() as patch:
                products = counted_products(f.penalty, patch)
                report, trace = fw_solve(f, SolverConfig(start="barycenter", rel_tol=1e-12))
            still = sum(1 for r in trace[1:] if r.alpha == 0.0)
            assert report.iterations > 5
            assert len(products) <= 1 + report.iterations + still


class TestCarriedPenalty:
    """A Gaussian or Dirichlet log penalty's state is carried from step to
    step with the likelihood's mixture, and is dropped with it when a step
    is rolled back."""

    CASES = ("ctm with a mean", "ctm without a mean", "ctm under caps below its own", "lda-map")

    @staticmethod
    def instance(rng, case):
        """(make, caps): make() builds a fresh objective of the case, and
        caps are the explicit caps to solve under, or None."""
        k = int(rng.integers(4, 20))
        topics, doc = random_ml_instance(rng, k=k, v=60)
        if case == "lda-map":
            alpha = 1.0 + 3.0 * rng.random(k)
            return (lambda: lda_map_objective(doc, topics, alpha)), None
        a = rng.random((k, k))
        # caps exp(mean) of 0.25 to 0.6, which sum past 1 for k >= 4
        mean = None if case == "ctm without a mean" else np.log(rng.uniform(0.25, 0.6, size=k))
        prior = CtmPrior(a @ a.T + k * np.eye(k), mean=mean)
        caps = np.maximum(0.8 * ctm_caps(prior), 1.0 / k) if case == "ctm under caps below its own" else None
        return (lambda: ctm_full_objective(doc, topics, prior)), caps

    def test_a_rolled_back_step_ends_both_solves_alike(self, monkeypatch):
        # Step 3 is sent to the far end of its chord, below the point it
        # leaves: the step is rolled back, and the solve ends there, on the
        # value a fresh objective gives its point.
        real, calls = solver_module.line_search, []

        def downhill_at_three(dg, **kwargs):
            calls.append(1)
            return kwargs["upper"] if len(calls) == 3 else real(dg, **kwargs)

        monkeypatch.setattr(solver_module, "line_search", downhill_at_three)
        rng = np.random.default_rng(158)
        config = SolverConfig(rel_tol=1e-300, max_iters=40)
        rolled_back = 0
        for i in range(12):
            make, caps = self.instance(rng, self.CASES[i % len(self.CASES)])
            solves = []
            for wrap in (lambda f: f, Forwarding, Delegating):
                calls.clear()
                solves.append(fw_solve(wrap(make()), config, caps=caps))
            (report, trace), *methods = solves
            for other, other_trace in methods:
                assert report.theta.weights.tobytes() == other.theta.weights.tobytes()
                assert report.theta.topic_ids.tobytes() == other.theta.topic_ids.tobytes()
                assert (report.iterations, repr(trace)) == (other.iterations, repr(other_trace))
            if len(trace) > 3:
                assert trace[3].alpha == 0.0 and report.iterations == 3
                assert repr(trace[3].objective) == repr(trace[2].objective)
                f = make()
                assert report.objective == pytest.approx(f.value(report.theta.dense(f.dim)), rel=1e-12)
                rolled_back += 1
        assert rolled_back >= 8


class TestChordPrecision:
    """The likelihood's chord forms each probe's mixture from the nearer
    end of the chord, so its slope and curvature keep full precision
    where one end's mixture entry is tiny (topic entries at the 1e-10
    floor), to within a few ulps of sum |term| of an exact rational
    evaluation from the same end mixtures."""

    @staticmethod
    def exact(counts, p0, ps, a):
        """Slope and curvature terms c dp / p and -c (dp / p)^2, exact."""
        slope, curvature = [], []
        for c, x0, xs in zip(map(Fraction, counts), map(Fraction, p0), map(Fraction, ps)):
            dp = xs - x0
            w = dp / (x0 + Fraction(a) * dp)
            slope.append(c * w)
            curvature.append(-c * w * w)
        return slope, curvature

    @pytest.mark.parametrize("seed", range(5))
    def test_against_exact_rationals_near_both_ends(self, seed):
        rng = np.random.default_rng(83 + seed)
        k, n = 4, 5
        raw = rng.random((k, 8))
        raw[k - 1, :n] = 0.0  # floored to 1e-10 at the document's terms
        topics = TopicMatrix.normalized(raw)
        doc = Document(np.arange(n), rng.integers(1, 10, size=n).astype(np.float64))
        f = MlObjective(doc, topics)
        tiny = np.zeros(k)
        tiny[k - 1] = 1.0
        chords = [
            # toward the tiny end: the mixture shrinks to 1e-10 as a -> 1
            (interior_point(rng, k), k - 1, (0.75, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0)),
            # away from it: the mixture starts at 1e-10
            (tiny, 0, (1e-12, 1e-9, 1e-6, 1e-3, 0.25, 0.5)),
        ]
        for theta, target, probes in chords:
            p0, ps = f._mixture(theta), f.term_columns[target]
            _, dg = f.line_restriction(theta, np.array([target]), np.ones(1))
            for a in probes:
                for got, terms in zip(dg(a), self.exact(doc.counts, p0, ps, a)):
                    error = abs(Fraction(got) - sum(terms)) / sum(map(abs, terms))
                    assert error <= 2e-15, (a, float(error))


def central_difference(dg, a, h=1e-6):
    """(slope(a + h) - slope(a - h)) / 2h."""
    return (dg(a + h)[0] - dg(a - h)[0]) / (2.0 * h)


class TestChordCurvature:
    """Each chord's curvature is the derivative of its slope; the Newton
    line search steps by it."""

    def check(self, dg, rng):
        for a in (0.25, 0.5, 0.75) + tuple(rng.uniform(0.05, 0.9, 3)):
            slope, curvature = dg(a)
            assert curvature <= 0.0
            assert curvature == pytest.approx(central_difference(dg, a), rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_ml(self, n):
        rng = np.random.default_rng(61 + n)
        for _ in range(20):
            topics, doc = random_ml_instance(rng, k=int(rng.integers(max(n, 2), 9)), v=30)
            f = MlObjective(doc, topics)
            self.check(f.line_restriction(interior_point(rng, f.dim), *random_target(rng, f.dim, n))[1], rng)

    @pytest.mark.parametrize("n", [1, 3])
    def test_dirichlet(self, n):
        rng = np.random.default_rng(67 + n)
        for _ in range(20):
            k = int(rng.integers(n + 1, 9))
            pen = DirichletLogPenalty(np.full(k, 2.0))
            theta = interior_point(rng, k)
            s_ids, s_vals = random_target(rng, k, n)
            dg = pen.line_restriction(theta, s_ids, s_vals)[1]
            self.check(dg, rng)
            # the slope is the default chord's, to rounding
            _, dg0 = Objective.line_restriction(pen, theta, s_ids, s_vals)
            for a in CHORD_PROBES:
                slope_terms, _ = plain_penalty_chord(pen, theta, s_ids, s_vals, a)
                assert_sum_close(dg(a)[0], slope_terms, dg0(a)[0])
            with pytest.raises(DomainViolationError):
                dg(1.0)

    def test_flat_dirichlet_is_interior_only(self):
        # alpha = 1 is no prior, and lda_map_objective leaves it out; the
        # penalty itself keeps the interior domain of every alpha
        pen = DirichletLogPenalty(np.ones(3))
        assert pen.domain == INTERIOR_ONLY
        face = np.array([0.5, 0.5, 0.0])
        chord = pen.line_restriction(face, np.array([2]), np.ones(1))[1]
        for call in (pen.value, pen.gradient, lambda theta: chord(0.0)):
            with pytest.raises(DomainViolationError):
                call(face)

    @pytest.mark.parametrize("with_mean", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    def test_gaussian(self, with_mean, n):
        rng = np.random.default_rng(71 + n + 10 * with_mean)
        for _ in range(20):
            k = int(rng.integers(n + 1, 9))
            a = rng.random((k, k))
            # entrywise non-negative, and a mean >= 0 keeps log x - mean <= 0,
            # where the penalty is concave
            prior = CtmPrior(a @ a.T + np.eye(k), mean=rng.random(k) if with_mean else None)
            pen = GaussianLogPenalty(prior)
            self.check(pen.line_restriction(interior_point(rng, k), *random_target(rng, k, n))[1], rng)

    def test_default_reports_unknown_curvature(self):
        rng = np.random.default_rng(73)
        topics, doc = random_ml_instance(rng, k=5, v=20)
        f = MlObjective(doc, topics)
        theta = interior_point(rng, 5)
        _, dg = Objective.line_restriction(f, theta, np.array([1, 3]), np.array([0.25, 0.75]))
        _, own = f.line_restriction(theta, np.array([1, 3]), np.array([0.25, 0.75]))
        for a in CHORD_PROBES:
            assert dg(a)[1] == 0.0
            assert dg(a)[0] == pytest.approx(own(a)[0], rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_penalized_pair_is_the_sum_of_its_parts_bitwise(self, alpha):
        rng = np.random.default_rng(79)
        for _ in range(10):
            topics, doc = random_ml_instance(rng, k=6, v=30)
            parts = [
                (MlObjective(doc, topics), DirichletLogPenalty(np.full(6, alpha))),
                (MlObjective(doc, topics), GaussianLogPenalty(random_prior(rng, 6, with_mean=False))),
            ]
            for base, penalty in parts:
                f = PenalizedObjective(base, penalty)
                chord = (interior_point(rng, 6), *random_target(rng, 6, 2))
                dg, dg1, dg2 = (part.line_restriction(*chord)[1] for part in (f, base, penalty))
                for a in CHORD_PROBES:
                    (s1, c1), (s2, c2) = dg1(a), dg2(a)
                    slope, curvature = dg(a)
                    assert bits(slope) == bits(s1 + s2) and bits(curvature) == bits(c1 + c2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        n=st.integers(1, 3),
        family=st.sampled_from(["ml", "lda-map", "ctm", "ctm-mean"]),
        a=st.floats(0.0, 0.99),
    )
    def test_curvature_is_never_positive_on_interior_chords(self, seed, k, n, family, a):
        rng = np.random.default_rng(seed)
        topics, doc = random_ml_instance(rng, k=k, v=12)
        if family == "ml":
            f = MlObjective(doc, topics)
        elif family == "lda-map":
            f = lda_map_objective(doc, topics, alpha=1.0 + 3.0 * rng.random(k))
        else:
            m = rng.random((k, k))
            prior = CtmPrior(m @ m.T + np.eye(k), mean=rng.random(k) if family == "ctm-mean" else None)
            f = ctm_full_objective(doc, topics, prior)
        s_ids, s_vals = random_target(rng, k, min(n, k))
        slope, curvature = f.line_restriction(interior_point(rng, k), s_ids, s_vals)[1](a)
        assert math.isfinite(slope)
        assert curvature <= 0.0


class TestCappedGather:
    """A chord toward a fill of several rows gathers them from a read-only
    row-major copy of the slab, built on the first such chord; the product
    keeps the bits of the column-major gather."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 120), share=st.floats(0.0, 1.0))
    def test_row_major_gather_keeps_the_bits(self, seed, k, share):
        rng = np.random.default_rng(seed)
        # entries spread over 1e-10..1 before each row is normalized
        topics = TopicMatrix.normalized(10.0 ** rng.uniform(-10.0, 0.0, size=(k, 40)))
        ids = np.sort(rng.choice(40, size=int(rng.integers(1, 41)), replace=False)).astype(np.int64)
        f = MlObjective(Document(ids, rng.integers(1, 10, size=ids.size).astype(np.float64)), topics)
        s_ids, s_vals = random_target(rng, k, 2 + int(share * (k - 2)))
        g, _ = f.line_restriction(interior_point(rng, k), s_ids, s_vals)
        column_major = s_vals.dot(f.term_columns[s_ids, :])
        assert s_vals.dot(f._slab_rows.take(s_ids, axis=0)).tobytes() == column_major.tobytes()
        # g at 1 reads the target's mixture unchanged
        assert bits(g(1.0)) == bits(float(f._counts.dot(np.log(column_major))) + 0.0)

    def test_built_once_read_only_and_equal_to_the_slab(self):
        rng = np.random.default_rng(61)
        topics, doc = random_ml_instance(rng, k=12, v=50)
        f = MlObjective(doc, topics)
        f.line_restriction(interior_point(rng, 12), *random_target(rng, 12, 3))
        rows = f._slab_rows
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert rows.tobytes() == np.ascontiguousarray(f.term_columns).tobytes()
        f.line_restriction(interior_point(rng, 12), *random_target(rng, 12, 5))
        assert f._slab_rows is rows

    def test_only_capped_fills_build_it(self):
        rng = np.random.default_rng(67)
        topics, doc = random_ml_instance(rng, k=8, v=40)
        uncapped, cap_one, vertex = (MlObjective(doc, topics) for _ in range(3))
        fw_solve(uncapped)
        fw_solve(cap_one, caps=np.ones(8))
        vertex.line_restriction(interior_point(rng, 8), np.array([3]), np.ones(1))
        assert [f._slab_rows for f in (uncapped, cap_one, vertex)] == [None] * 3
        prior = CtmPrior(np.eye(8), mean=np.full(8, math.log(0.3)))
        capped = ctm_full_objective(doc, topics, prior)
        fw_solve(capped, SolverConfig(max_iters=3))
        assert not capped.base._slab_rows.flags.writeable


class TestInteriorShortcut:
    """A log-space chord skips a probe's interior check when lowest(theta)
    * (1 - a) is positive; it refuses exactly the probes whose chord point
    has a coordinate that is not positive, as the full check does."""

    PROBES = (1e-300, 1e-9, 0.5, 1.0 - 1e-9, 1.0)

    @pytest.mark.parametrize("penalty", [
        DirichletLogPenalty(np.full(4, 2.0)),
        GaussianLogPenalty(CtmPrior(np.eye(4) + 0.5, mean=np.full(4, -1.0))),
    ], ids=["dirichlet", "gaussian"])
    def test_refuses_where_the_full_check_does(self, penalty):
        bases = [
            np.array([5e-324, 0.4, 0.3, 0.3]),  # the smallest weight subnormal
            np.array([1e-310, 0.5, 0.25, 0.25]),
            np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([0.0, 0.5, 0.25, 0.25]),  # on a face
        ]
        targets = [(np.array([1]), np.ones(1)), (np.array([0, 2]), np.array([0.5, 0.5]))]
        refusals = 0
        for base in bases:
            for s_ids, s_vals in targets:
                target = np.zeros(4)
                target[s_ids] = s_vals
                _, dg = penalty.line_restriction(base, s_ids, s_vals)
                for a in self.PROBES:
                    point = base * (1.0 - a) + target * a
                    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                        if np.min(point) > 0.0:
                            dg(a)
                        else:
                            refusals += 1
                            with pytest.raises(DomainViolationError):
                                dg(a)
        assert refusals > 8


class TestNanRefused:
    """The log-space priors refuse a point with a NaN coordinate, as one
    with a zero or negative one."""

    @pytest.mark.parametrize("penalty", [
        DirichletLogPenalty(np.full(3, 2.0)),
        GaussianLogPenalty(CtmPrior(np.eye(3))),
    ], ids=["dirichlet", "gaussian"])
    def test_value_gradient_and_chord(self, penalty):
        point = np.array([np.nan, 0.5, 0.5])
        calls = [
            lambda: penalty.value(point),
            lambda: penalty.gradient(point),
            lambda: penalty.line_restriction(point, np.array([1]), np.ones(1))[1](0.5),
            lambda: penalty.line_restriction(point, np.array([1]), np.ones(1))[1](0.0),
        ]
        for call in calls:
            with pytest.raises(DomainViolationError, match="NaN"):
                call()
