"""Property tests: solver invariants on random ML and certified-CTM
instances, down to K = 1, single-term documents and counts from 1e-300 to
1e300."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsetopics import (
    CtmPrior,
    Document,
    SolverConfig,
    TopicMatrix,
    ctm_caps,
    ctm_full_objective,
    fw_solve,
    ml_objective,
)
from sparsetopics.core import SIMPLEX_TOL

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
CONFIG = SolverConfig(max_iters=200, rel_tol=1e-9)
# CTM objectives are interior-only, so they start from the barycenter.
CTM_CONFIG = SolverConfig(max_iters=200, rel_tol=1e-9, start="barycenter")


@st.composite
def topic_matrices(draw, k):
    v = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    concentration = draw(st.sampled_from([0.05, 1.0, 50.0]))
    raw = rng.dirichlet(np.full(v, concentration), size=k)
    if k > 1 and draw(st.booleans()):
        # a near-duplicate topic
        raw[1] = raw[0] * (1.0 + 1e-12 * rng.random(v))
    return TopicMatrix.normalized(raw)


@st.composite
def documents(draw, v):
    n = draw(st.integers(1, v))
    ids = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n, unique=True))
    exponents = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
    mantissas = draw(st.lists(st.floats(1.0, 9.99), min_size=n, max_size=n))
    counts = np.array(mantissas) * 10.0 ** np.array(exponents, dtype=np.float64)
    order = np.argsort(ids)
    return Document(np.array(ids, dtype=np.int64)[order], counts[order])


@st.composite
def ml_instances(draw):
    topics = draw(topic_matrices(draw(st.integers(1, 6))))
    return topics, draw(documents(topics.vocab_size))


@st.composite
def certified_priors(draw, k, with_mean):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((k, k)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    mean = None
    if with_mean:
        # caps min(1, exp(mean)) summing to at least one
        mean = np.log(rng.uniform(1.0 / k, 1.5, size=k))
    return CtmPrior(a @ a.T + np.eye(k), mean=mean)


def assert_on_simplex(report, k):
    theta = report.theta.dense(k)
    assert np.all(theta >= 0.0)
    assert abs(theta.sum() - 1.0) <= SIMPLEX_TOL


def assert_monotone(trace):
    assert np.all(np.diff(trace.objectives()) >= 0.0)


class TestMlInvariants:
    @SETTINGS
    @given(ml_instances())
    def test_vertex_start(self, instance):
        topics, doc = instance
        report, trace = fw_solve(ml_objective(doc, topics), config=CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert report.nnz <= report.iterations + 1
        for record in trace:
            assert record.nnz <= record.iteration + 1
        assert_monotone(trace)

    @SETTINGS
    @given(ml_instances())
    def test_barycenter_start(self, instance):
        topics, doc = instance
        config = SolverConfig(max_iters=200, rel_tol=1e-9, start="barycenter")
        report, trace = fw_solve(ml_objective(doc, topics), config=config)
        assert_on_simplex(report, topics.num_topics)
        assert_monotone(trace)


class TestCtmInvariants:
    @SETTINGS
    @given(st.data())
    def test_zero_mean(self, data):
        topics, doc = data.draw(ml_instances())
        prior = data.draw(certified_priors(topics.num_topics, with_mean=False))
        report, trace = fw_solve(ctm_full_objective(doc, topics, prior), config=CTM_CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert_monotone(trace)

    @SETTINGS
    @given(st.data())
    def test_capped(self, data):
        # a prior with a mean is solved over its own caps by default
        topics, doc = data.draw(ml_instances())
        prior = data.draw(certified_priors(topics.num_topics, with_mean=True))
        caps = ctm_caps(prior)
        report, trace = fw_solve(ctm_full_objective(doc, topics, prior), CTM_CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert np.all(report.theta.dense(topics.num_topics) <= caps * (1.0 + 1e-12))
        assert_monotone(trace)

