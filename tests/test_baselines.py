import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import digamma

import sparsetopics
from sparsetopics import (
    Document,
    InvalidArgumentError,
    NumericFailureError,
    SolverConfig,
    TopicMatrix,
    folding_in,
    fw_solve,
    ml_objective,
    vb_infer,
)

import sparsetopics.baselines as baselines_module
from sparsetopics.objectives import MlObjective

from helpers import hooked, random_ml_instance


def separated_topics():
    return TopicMatrix.normalized(np.eye(2))


class TestFoldingIn:
    def test_single_update_from_barycenter(self):
        # disjoint topics, counts (3, 1): one multiplicative update lands on
        # the count proportions (0.75, 0.25)
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        report, trace = folding_in(
            doc, separated_topics(), SolverConfig(max_iters=1)
        )
        theta = report.theta.dense(2)
        assert theta[0] == pytest.approx(0.75, abs=1e-8)
        assert theta[1] == pytest.approx(0.25, abs=1e-8)
        assert report.iterations == 1
        assert len(trace) == 2

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 6)), v=12)
            report, trace = folding_in(doc, topics)
            assert np.all(np.diff(trace) >= 0.0)
            assert report.objective == trace[-1]

    def test_agrees_with_simplex_solver(self):
        rng = np.random.default_rng(47)
        config = SolverConfig(max_iters=5000, rel_tol=1e-12)
        for _ in range(15):
            topics, doc = random_ml_instance(rng, k=int(rng.integers(2, 5)), v=12)
            f = ml_objective(doc, topics)
            fw_report, _ = fw_solve(f, config=config)
            fold_report, _ = folding_in(doc, topics, config)
            gap = abs(fw_report.objective - fold_report.objective)
            assert gap <= 1e-3 * max(1.0, abs(fold_report.objective))

    def test_single_topic(self):
        topics = TopicMatrix.normalized(np.ones((1, 4)))
        doc = Document(np.array([0, 2]), np.array([1.0, 1.0]))
        report, _ = folding_in(doc, topics)
        assert report.theta.dense(1).tolist() == [1.0]

    def test_support_stays_dense_for_interior_optimum(self):
        # multiplicative updates cannot zero a coordinate in finite steps
        rng = np.random.default_rng(53)
        topics, doc = random_ml_instance(rng, k=4, v=10)
        report, _ = folding_in(doc, topics)
        assert report.nnz == 4

    def test_one_mixture_product_per_iteration(self, monkeypatch):
        # the update reads the mixture value() formed at the same theta, so
        # a run forms theta . slab once at the start and once per value
        # at a new point, the one past a final dip included
        rng = np.random.default_rng(59)
        topics, doc = random_ml_instance(rng, k=10, v=40)
        products = []

        def counted(document, topics):
            return hooked(MlObjective(document, topics), lambda: products.append(1))

        monkeypatch.setattr(baselines_module, "MlObjective", counted)
        report, _ = folding_in(doc, topics)
        assert report.iterations > 20
        assert len(products) <= report.iterations + 2


    def test_an_overflowing_step_is_a_numeric_failure(self):
        # counts / p overflows at the barycenter's gradient; the step's
        # objective is not finite, and fw_solve refuses the document alike.
        topics = TopicMatrix(np.array([[1e-10, 1.0 - 1e-10], [0.5, 0.5]]))
        doc = Document(np.array([0]), np.array([1e308]))
        with np.errstate(all="ignore"):  # the overflow is the point here
            with pytest.raises(NumericFailureError, match="objective is"):
                folding_in(doc, topics)
            with pytest.raises(NumericFailureError):
                fw_solve(ml_objective(doc, topics))

    def test_a_start_past_the_largest_float_is_a_numeric_failure(self):
        # Counts near the largest float make the barycenter's value -inf.
        topics = TopicMatrix(np.array([[1e-10, 1.0 - 1e-10], [1e-10, 1.0 - 1e-10]]))
        doc = Document(np.array([0]), np.array([1e308]))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericFailureError, match="at the start point"):
                folding_in(doc, topics)


class TestVbInfer:
    def test_an_objective_past_the_largest_float_is_a_numeric_failure(self):
        # The point estimate [0.5, 0.5] values to -inf: refused, as
        # folding_in and fw_solve refuse a non-finite objective.
        topics = TopicMatrix(np.array([[1e-10, 1.0 - 1e-10], [1e-10, 1.0 - 1e-10]]))
        doc = Document(np.array([0]), np.array([1e308]))
        with np.errstate(all="ignore"):  # the overflow is the point here
            with pytest.raises(NumericFailureError, match="objective is -inf"):
                vb_infer(doc, topics, alpha=1.0)

    def test_symmetric_document_fixed_point(self):
        # identical columns keep phi uniform, so gamma stays at
        # alpha + |d| / K = (3, 3) and the loop stops immediately
        topics = TopicMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        report, gamma = vb_infer(doc, topics, alpha=1.0)
        assert np.allclose(gamma, [3.0, 3.0], atol=1e-12)
        assert np.allclose(report.theta.dense(2), [0.5, 0.5], atol=1e-12)
        assert report.iterations == 2

    def test_posterior_tracks_evidence(self):
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        report, gamma = vb_infer(doc, topics, alpha=1.0)
        assert gamma[0] > gamma[1]
        assert report.theta.dense(2)[0] > 0.5

    def test_support_is_always_dense(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            topics, doc = random_ml_instance(rng, k=k, v=12)
            report, _ = vb_infer(doc, topics, alpha=0.5)
            assert report.nnz == k

    def test_gamma_mass_conserved(self):
        # sum(gamma) = sum(alpha) + |d| at every sweep
        rng = np.random.default_rng(61)
        topics, doc = random_ml_instance(rng, k=3, v=10)
        alpha = np.array([0.5, 1.5, 2.0])
        _, gamma = vb_infer(doc, topics, alpha)
        assert gamma.sum() == pytest.approx(alpha.sum() + doc.length, abs=1e-9)

    def test_single_topic(self):
        topics = TopicMatrix.normalized(np.ones((1, 3)))
        doc = Document(np.array([1]), np.array([2.0]))
        report, gamma = vb_infer(doc, topics, alpha=1.0)
        assert gamma.tolist() == [3.0]
        assert report.theta.dense(1).tolist() == [1.0]

    def test_rejects_bad_alpha(self):
        topics = TopicMatrix.normalized(np.ones((2, 3)))
        doc = Document(np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            vb_infer(doc, topics, alpha=0.0)
        with pytest.raises(InvalidArgumentError):
            vb_infer(doc, topics, alpha=-1.0)
        with pytest.raises(InvalidArgumentError):
            vb_infer(doc, topics, alpha=np.ones(3))

    def test_gamma_is_read_only(self):
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        _, gamma = vb_infer(doc, topics, alpha=1.0)
        assert not gamma.flags.writeable
        with pytest.raises(ValueError):
            gamma[0] = 1.0

    def test_scalar_and_vector_alpha_agree(self):
        rng = np.random.default_rng(67)
        topics, doc = random_ml_instance(rng, k=3, v=10)
        _, g1 = vb_infer(doc, topics, alpha=0.7)
        _, g2 = vb_infer(doc, topics, alpha=np.full(3, 0.7))
        assert np.array_equal(g1, g2)


def test_digamma_reference_values():
    # underlying special function: psi(1) = -euler gamma, psi(x+1) = psi(x) + 1/x
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)
    for x in (0.5, 1.0, 2.5, 7.0):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)


def test_importing_the_package_leaves_scipy_unloaded():
    # vb_infer imports scipy.special on its first call, not at import time.
    code = "import sys, sparsetopics; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(sparsetopics.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
