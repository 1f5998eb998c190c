import numpy as np
import pytest

from sparsetopics import (
    Corpus,
    Document,
    InvalidArgumentError,
    InvalidConfigError,
    MlObjective,
    SolverConfig,
    TopicMatrix,
    TrainConfig,
    Vocabulary,
    fw_solve,
    generate_synthetic_corpus,
    ml_objective,
    train,
)


def tiny_corpus():
    vocab = Vocabulary(tuple(f"t{j}" for j in range(5)))
    docs = (
        Document(np.array([0, 1]), np.array([2.0, 1.0])),
        Document(np.array([1, 3]), np.array([4.0, 1.0])),
        Document(np.array([0, 4]), np.array([1.0, 3.0])),
    )
    return Corpus(vocab, docs)


def two_cluster_corpus():
    """Terms 0..9 and 10..19 never co-occur, thirty documents per side."""
    rng = np.random.default_rng(21)
    docs = []
    for side in (0, 10):
        for _ in range(30):
            ids = np.sort(rng.choice(10, size=4, replace=False)) + side
            counts = rng.integers(2, 6, size=4).astype(float)
            docs.append(Document(ids.astype(np.int64), counts))
    vocab = Vocabulary(tuple(f"t{j}" for j in range(20)))
    return Corpus(vocab, tuple(docs))


class TestTrain:
    def test_single_topic_m_step_recompute(self):
        # with one topic every document has theta = (1,), so the M-step just
        # renormalizes responsibility-weighted counts; replay it by hand
        corpus = tiny_corpus()
        config = TrainConfig(topics=1, em_iters=1)
        beta, trace = train(corpus, config)

        rng = np.random.default_rng(config.seed)
        init = TopicMatrix.normalized(rng.random((1, 5)))
        stats = np.zeros((1, 5))
        for doc in corpus.documents:
            cols = init.rows[0, doc.term_ids]
            stats[0, doc.term_ids] += cols * (doc.counts / cols)
        raw = stats + config.smoothing
        rows = np.maximum(raw / raw.sum(axis=1, keepdims=True), 1e-10)
        rows = rows / rows.sum(axis=1, keepdims=True)
        rows = np.maximum(rows, 1e-10)
        assert np.array_equal(beta.rows, rows)

        expected_ll = sum(
            MlObjective(doc, beta).value(np.array([1.0])) for doc in corpus.documents
        )
        assert trace == [pytest.approx(expected_ll, abs=1e-12)]

    def test_trace_is_exactly_non_decreasing(self):
        data = generate_synthetic_corpus(4, 30, 40, 30, seed=2)
        _, trace = train(data.corpus, TrainConfig(topics=4, em_iters=15, seed=1))
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= 0.0)

    def test_recovers_disjoint_clusters(self):
        corpus = two_cluster_corpus()
        beta, _ = train(corpus, TrainConfig(topics=2, em_iters=30, seed=0))
        # each topic should commit essentially all its mass to one block
        block = beta.rows[:, :10].sum(axis=1)
        assert sorted(np.round(block, 2)) == [0.0, 1.0]
        # and every document should load almost entirely on its block's topic
        for doc in corpus.documents:
            report, _ = fw_solve(ml_objective(doc, beta))
            assert report.theta.dense(2).max() >= 0.99

    def test_seed_determinism(self):
        corpus = two_cluster_corpus()
        config = TrainConfig(topics=2, em_iters=10, seed=5)
        b1, t1 = train(corpus, config)
        b2, t2 = train(corpus, config)
        assert np.array_equal(b1.rows, b2.rows)
        assert t1 == t2

    def test_hard_m_step(self):
        corpus = two_cluster_corpus()
        beta, trace = train(
            corpus, TrainConfig(topics=2, em_iters=10, seed=0, m_step="hard")
        )
        from sparsetopics import validate_topic_matrix

        assert validate_topic_matrix(beta) == []
        assert np.all(np.diff(trace) >= 0.0)

    def test_more_topics_than_vocab_still_valid(self):
        corpus = tiny_corpus()
        beta, trace = train(corpus, TrainConfig(topics=8, em_iters=3))
        assert beta.num_topics == 8
        assert len(trace) >= 1


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(topics=0),
            dict(topics=2, em_iters=0),
            dict(topics=2, em_rel_tol=0.0),
            dict(topics=2, smoothing=0.0),
            dict(topics=2, m_step="soft"),
            dict(topics=2, threads=0),
            dict(topics=2, threads=2),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**kwargs)

    def test_inner_config_is_used(self):
        corpus = tiny_corpus()
        inner = SolverConfig(max_iters=2, rel_tol=1e-3)
        beta, trace = train(
            corpus, TrainConfig(topics=2, em_iters=2, inner=inner)
        )
        assert beta.num_topics == 2


class TestGenerateSyntheticCorpus:
    def test_shapes_and_contents(self):
        data = generate_synthetic_corpus(3, 25, 12, 40, seed=4)
        assert data.topics.num_topics == 3
        assert data.topics.vocab_size == 25
        assert data.proportions.shape == (12, 3)
        assert np.allclose(data.proportions.sum(axis=1), 1.0, atol=1e-9)
        assert len(data.corpus.documents) == 12
        for doc in data.corpus.documents:
            assert doc.length == 40.0

    def test_seed_determinism(self):
        a = generate_synthetic_corpus(3, 25, 5, 20, seed=8)
        b = generate_synthetic_corpus(3, 25, 5, 20, seed=8)
        assert np.array_equal(a.topics.rows, b.topics.rows)
        for x, y in zip(a.corpus.documents, b.corpus.documents):
            assert np.array_equal(x.term_ids, y.term_ids)
            assert np.array_equal(x.counts, y.counts)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_topics=0, vocab_size=5, num_docs=1, doc_length=5),
            dict(num_topics=2, vocab_size=0, num_docs=1, doc_length=5),
            dict(num_topics=2, vocab_size=5, num_docs=0, doc_length=5),
            dict(num_topics=2, vocab_size=5, num_docs=1, doc_length=0),
            dict(num_topics=2, vocab_size=5, num_docs=1, doc_length=5, doc_alpha=0.0),
            dict(num_topics=2, vocab_size=5, num_docs=1, doc_length=5, topic_concentration=-1.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            generate_synthetic_corpus(**kwargs)

    def test_true_model_beats_uniform(self):
        from sparsetopics import evaluate_inference

        data = generate_synthetic_corpus(5, 50, 40, 60, seed=9)

        def infer(doc):
            return fw_solve(ml_objective(doc, data.topics))[0]

        assert evaluate_inference(data.corpus, data.topics, infer).perplexity < 50.0
