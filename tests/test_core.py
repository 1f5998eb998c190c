import numpy as np
import pytest

from sparsetopics import (
    Corpus,
    Document,
    EPS_BETA,
    InferenceReport,
    InvalidArgumentError,
    InvalidConfigError,
    SolverConfig,
    TopicMatrix,
    TopicProportion,
    Vocabulary,
    simplex_barycenter,
    validate_topic_matrix,
)


class TestVocabulary:
    def test_index_and_lookup(self):
        vocab = Vocabulary(("alpha", "beta", "gamma"))
        assert vocab.size == 3
        assert vocab.id_of("beta") == 1
        assert vocab.index["gamma"] == 2

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            Vocabulary(("a", "b", "a"))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Vocabulary(())

    def test_unknown_term(self):
        vocab = Vocabulary(("a",))
        with pytest.raises(InvalidArgumentError):
            vocab.id_of("b")


class TestDocument:
    def test_from_pairs_sorts(self):
        doc = Document.from_pairs([(5, 2.0), (1, 3.0), (9, 1.0)])
        assert doc.term_ids.tolist() == [1, 5, 9]
        assert doc.counts.tolist() == [3.0, 2.0, 1.0]
        assert doc.length == 6.0
        assert doc.nnz == 3

    def test_from_dense(self):
        doc = Document.from_dense([0.0, 2.0, 0.0, 1.5])
        assert doc.term_ids.tolist() == [1, 3]
        assert doc.counts.tolist() == [2.0, 1.5]

    def test_rejects_unsorted_ids(self):
        with pytest.raises(InvalidArgumentError):
            Document(np.array([3, 1]), np.array([1.0, 1.0]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidArgumentError):
            Document(np.array([2, 2]), np.array([1.0, 1.0]))

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(InvalidArgumentError):
            Document(np.array([0, 1]), np.array([1.0, 0.0]))
        with pytest.raises(InvalidArgumentError):
            Document(np.array([0]), np.array([-2.0]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Document(np.array([], dtype=np.int64), np.array([]))

    def test_fractional_counts_allowed(self):
        doc = Document(np.array([0]), np.array([0.25]))
        assert doc.length == 0.25


class TestCorpus:
    def test_bounds_check(self):
        vocab = Vocabulary(("a", "b"))
        doc = Document(np.array([0, 2]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            Corpus(vocab, (doc,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Corpus(Vocabulary(("a",)), ())

    def test_len(self):
        vocab = Vocabulary(("a", "b"))
        doc = Document(np.array([0]), np.array([1.0]))
        assert len(Corpus(vocab, (doc, doc))) == 2


class TestTopicMatrix:
    def test_normalized_floors_zeros(self):
        tm = TopicMatrix.normalized(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.all(tm.rows >= EPS_BETA)
        assert np.allclose(tm.rows.sum(axis=1), 1.0, atol=1e-9)
        assert validate_topic_matrix(tm) == []

    def test_normalized_unnormalized_input(self):
        tm = TopicMatrix.normalized(np.array([[2.0, 6.0]]))
        assert np.allclose(tm.rows, [[0.25, 0.75]])

    def test_normalized_large_row_mass(self):
        # counts-scale input: the floor must act on probabilities
        raw = np.zeros((1, 50))
        raw[0, 0] = 5000.0
        tm = TopicMatrix.normalized(raw + 1e-10)
        assert validate_topic_matrix(tm) == []

    def test_normalized_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            TopicMatrix.normalized(np.array([[0.5, -0.1]]))

    def test_normalized_rejects_zero_row(self):
        with pytest.raises(InvalidArgumentError):
            TopicMatrix.normalized(np.zeros((1, 3)))

    def test_copies_a_writable_array(self):
        raw = np.array([[0.25, 0.75], [0.5, 0.5]])
        tm = TopicMatrix(raw)
        raw[0, 0] = 9.0
        assert tm.rows[0, 0] == 0.25
        assert not tm.rows.flags.writeable
        assert raw.flags.writeable

    def test_copies_a_read_only_view(self):
        raw = np.array([[0.25, 0.75], [0.5, 0.5]])
        view = raw[:]
        view.setflags(write=False)
        tm = TopicMatrix(view)
        raw[0, 0] = 9.0
        assert tm.rows[0, 0] == 0.25

    def test_copies_a_read_only_array_that_owns_its_memory(self):
        # its owner can make it writable again
        raw = np.array([[0.25, 0.75]])
        raw.setflags(write=False)
        tm = TopicMatrix(raw)
        raw.setflags(write=True)
        raw[0, 0] = 9.0
        assert tm.rows[0, 0] == 0.25

    def test_validation_flags_row_sum(self):
        tm = TopicMatrix(np.array([[0.5, 0.4]]))
        problems = validate_topic_matrix(tm)
        assert any(p.startswith("row-sum") for p in problems)

    def test_validation_flags_positivity(self):
        tm = TopicMatrix(np.array([[1.0, 0.0]]))
        problems = validate_topic_matrix(tm)
        assert any(p.startswith("positivity") for p in problems)

    def test_valid_matrix_no_findings(self):
        tm = TopicMatrix.normalized(np.ones((3, 4)))
        assert validate_topic_matrix(tm) == []
        assert tm.num_topics == 3 and tm.vocab_size == 4


class TestTopicProportion:
    def test_dense_roundtrip(self):
        point = TopicProportion.from_dense(np.array([0.0, 0.25, 0.0, 0.75]))
        assert point.topic_ids.tolist() == [1, 3]
        assert point.nnz == 2
        assert point.dense(4).tolist() == [0.0, 0.25, 0.0, 0.75]

    def test_dense_too_small(self):
        point = TopicProportion.from_dense(np.array([0.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            point.dense(1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidArgumentError):
            TopicProportion(np.array([0]), np.array([0.5]))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidArgumentError):
            TopicProportion(np.array([0, 1]), np.array([1.0, 0.0]))

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError):
            TopicProportion(np.array([1, 0]), np.array([0.5, 0.5]))

    def test_sum_tolerance(self):
        TopicProportion(np.array([0, 1]), np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(InvalidArgumentError):
            TopicProportion(np.array([0, 1]), np.array([0.5, 0.5 + 5e-9]))


def test_barycenter():
    assert simplex_barycenter(1).dense(1).tolist() == [1.0]
    point = simplex_barycenter(4)
    assert np.allclose(point.dense(4), 0.25)
    with pytest.raises(InvalidArgumentError):
        simplex_barycenter(0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 1000
        assert cfg.rel_tol == 1e-6
        assert cfg.max_nnz is None
        assert cfg.start == "best-vertex"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=0),
            dict(rel_tol=0.0),
            dict(rel_tol=-1e-6),
            dict(max_nnz=0),
            dict(start="middle"),
            dict(line_search_tol=0.0),
            dict(line_search_max_steps=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SolverConfig(**kwargs)


def test_inference_report_consistency():
    point = TopicProportion.from_dense(np.array([0.5, 0.5]))
    InferenceReport(theta=point, iterations=3, objective=-1.0, seconds=0.0, nnz=2)
    with pytest.raises(InvalidArgumentError):
        InferenceReport(theta=point, iterations=3, objective=-1.0, seconds=0.0, nnz=1)
    with pytest.raises(InvalidArgumentError):
        InferenceReport(theta=point, iterations=-1, objective=-1.0, seconds=0.0, nnz=2)


def test_converged_relative_then_absolute():
    from sparsetopics.core import converged

    assert converged(-100.0, -100.0 + 9e-5, 1e-6)
    assert not converged(-100.0, -100.0 + 2e-4, 1e-6)
    # below 1e-12 in |previous| the change is judged absolutely
    assert converged(1e-13, 5e-7, 1e-6)
    assert not converged(1e-11, 5e-7, 1e-6)
    assert not converged(0.0, 2e-6, 1e-6)
