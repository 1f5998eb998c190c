import math
import warnings

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
    validate_topic_matrix,
)


class TestVocabulary:
    def test_index_and_lookup(self):
        vocab = Vocabulary(("alpha", "beta", "gamma"))
        assert vocab.size == 3

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            Vocabulary(("a", "b", "a"))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Vocabulary(())

    @pytest.mark.parametrize("terms, index", [
        (("a", ""), 1),
        (("a", "b ", " b"), 1),
        (("\tb", "a"), 0),
        (("a", "x\ny"), 1),
        (("a", "b", "x\ry"), 2),
    ])
    def test_rejects_a_term_a_vocabulary_file_cannot_hold(self, terms, index):
        # a file's lines read back stripped, and end at \n, \r\n or \r
        with pytest.raises(InvalidArgumentError, match=f"^vocabulary term {index} "):
            Vocabulary(terms)


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

    @pytest.mark.parametrize(
        "ids, counts, message",
        [
            ([[0, 1]], [[1.0, 1.0]], "term_ids and counts must be 1-d and equal length"),
            ([0, 1], [1.0], "term_ids and counts must be 1-d and equal length"),
            ([], [], "document has no entries"),
            ([0, 1], [1.0, np.nan], "counts must be finite and positive"),
            ([0, 1], [np.inf, 1.0], "counts must be finite and positive"),
            ([0, 1], [1.0, 0.0], "counts must be finite and positive"),
            ([0, 1], [-1.0, 1.0], "counts must be finite and positive"),
            ([2, 1], [1.0, 1.0], "term ids must be strictly increasing"),
            ([1, 1], [1.0, 1.0], "term ids must be strictly increasing"),
            ([-1, 1], [1.0, 1.0], "negative term id"),
            # the first failing check, in order, names the fault
            ([-1, 0], [1.0], "term_ids and counts must be 1-d and equal length"),
            ([3, -1], [np.nan, 1.0], "negative term id"),
            ([1, 0], [np.nan, 1.0], "term ids must be strictly increasing"),
            ([0, 1], [np.inf, -1.0], "counts must be finite and positive"),
        ],
    )
    def test_rejection_messages(self, ids, counts, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Document(np.array(ids, dtype=np.int64), np.array(counts, dtype=np.float64))

    def test_count_sum_overflow_is_refused_under_warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="counts sum to inf"):
                Document(np.array([0, 1]), np.array([1e308, 1e308]))


class TestCorpus:
    def test_bounds_check(self):
        vocab = Vocabulary(("a", "b"))
        doc = Document(np.array([0, 2]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            Corpus(vocab, (doc,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Corpus(Vocabulary(("a",)), ())

    def test_doc_ids(self):
        vocab = Vocabulary(("a", "b"))
        doc = Document(np.array([0]), np.array([1.0]))
        assert Corpus(vocab, (doc, doc)).doc_ids == (1, 2)
        assert Corpus(vocab, (doc, doc), (2, 5)).doc_ids == (2, 5)
        with pytest.raises(InvalidArgumentError):
            Corpus(vocab, (doc, doc), (1,))

    @pytest.mark.parametrize("ids", [(1, 1), (2, 1), (0, 1)])
    def test_doc_ids_positive_and_increasing(self, ids):
        # save_uci_bow writes each document under its id, so (1, 1) would
        # merge two documents in the file and (2, 1) would reorder them
        vocab = Vocabulary(("a", "b"))
        doc = Document(np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            Corpus(vocab, (doc, doc), ids)


class TestTopicMatrix:
    def test_normalized_floors_zeros(self):
        tm = TopicMatrix.normalized(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.all(tm.rows >= EPS_BETA)
        assert np.allclose(tm.rows.sum(axis=1), 1.0, atol=1e-9)
        assert validate_topic_matrix(tm.rows) == []

    def test_normalized_unnormalized_input(self):
        tm = TopicMatrix.normalized(np.array([[2.0, 6.0]]))
        assert np.allclose(tm.rows, [[0.25, 0.75]])

    def test_normalized_large_row_mass(self):
        # counts-scale input: the floor must act on probabilities
        raw = np.zeros((1, 50))
        raw[0, 0] = 5000.0
        tm = TopicMatrix.normalized(raw + 1e-10)
        assert validate_topic_matrix(tm.rows) == []

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
        problems = validate_topic_matrix(np.array([[0.5, 0.4]]))
        assert any(p.startswith("row-sum") for p in problems)

    def test_validation_flags_positivity(self):
        problems = validate_topic_matrix(np.array([[1.0, 0.0]]))
        assert any(p.startswith("positivity") for p in problems)

    @pytest.mark.parametrize(
        "rows, finding",
        [
            ([[0.5, 0.4]], "row-sum: row 0"),
            ([[1.0, 0.0]], "positivity: row 0"),
            ([[0.5, 0.5], [np.nan, 1.0]], "finite: row 1"),
        ],
    )
    def test_constructor_refuses_what_validation_flags(self, rows, finding):
        with pytest.raises(InvalidArgumentError, match="invalid topic matrix: " + finding):
            TopicMatrix(np.array(rows))

    def test_valid_matrix_no_findings(self):
        tm = TopicMatrix.normalized(np.ones((3, 4)))
        assert validate_topic_matrix(tm.rows) == []
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

    REJECTED = [
        ([0, 1], [0.5, np.nan], "finite and positive"),
        ([0, 1], [0.5, np.inf], "finite and positive"),
        ([0, 1], [-np.inf, 0.5], "finite and positive"),
        ([0, 1], [0.0, 1.0], "finite and positive"),
        ([0, 1], [1.5, -0.5], "finite and positive"),
        ([2, 1], [0.5, 0.5], "strictly increasing"),
        ([1, 1], [0.5, 0.5], "strictly increasing"),
        ([-1, 1], [0.5, 0.5], "negative topic id"),
        ([0, 1], [0.5, 0.25], "weights sum to 0.75, not 1"),
        # the first failing check, in order, names the fault
        ([3, -1], [np.nan, 0.5], "negative topic id"),
        ([1, 0], [np.nan, 0.5], "strictly increasing"),
        ([0, 1], [np.inf, 0.25], "finite and positive"),
        ([0, 1], [2.0, 3.0], "weights sum to 5, not 1"),
        ([0, 1], [1e308, 1e308], "weights sum to inf, not 1"),
        ([], [], "at least one entry"),
        ([0, 1], [1.0], "1-d and equal length"),
        ([[0, 1]], [[0.5, 0.5]], "1-d and equal length"),
    ]

    @pytest.mark.parametrize("ids, weights, message", REJECTED)
    def test_rejection_messages(self, ids, weights, message):
        with pytest.raises(InvalidArgumentError, match=message):
            TopicProportion(np.array(ids), np.array(weights))

    @pytest.mark.parametrize("ids, weights, message", REJECTED)
    def test_the_adopting_constructor_refuses_alike(self, ids, weights, message):
        # fw_solve's report takes its own fresh arrays without copies, after
        # the public constructor's checks, in the same order.
        ids, weights = np.array(ids, dtype=np.int64), np.array(weights, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as public:
                TopicProportion(ids, weights)
            with pytest.raises(InvalidArgumentError) as adopted:
                TopicProportion._adopt(ids, weights)
        assert str(adopted.value) == str(public.value)

    def test_the_adopting_constructor_keeps_its_arrays(self):
        ids, weights = np.array([1, 4]), np.array([0.25, 0.75])
        point = TopicProportion._adopt(ids, weights)
        assert point.topic_ids is ids and point.weights is weights
        assert not ids.flags.writeable and not weights.flags.writeable
        assert point.dense(5).tolist() == [0.0, 0.25, 0.0, 0.0, 0.75]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12, -5e-324])
    def test_from_dense_refuses_what_the_constructor_refuses(self, bad):
        # Only zeros are dropped; anything else reaches the checks.
        with pytest.raises(InvalidArgumentError, match="weights must be finite and positive"):
            TopicProportion.from_dense(np.array([0.5, 0.5, bad]))

    def test_from_dense_drops_negative_zero(self):
        point = TopicProportion.from_dense(np.array([0.5, -0.0, 0.5]))
        assert point.topic_ids.tolist() == [0, 2] and point.weights.tolist() == [0.5, 0.5]

    def test_sum_overflow_is_a_bad_sum_under_warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="weights sum to inf, not 1"):
                TopicProportion(np.array([0, 1]), np.array([1e308, 1e308]))

    def test_sum_tolerance(self):
        TopicProportion(np.array([0, 1]), np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(InvalidArgumentError):
            TopicProportion(np.array([0, 1]), np.array([0.5, 0.5 + 5e-9]))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 1000
        assert cfg.rel_tol == 1e-6
        assert cfg.max_nnz is None
        assert cfg.start is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=0),
            dict(rel_tol=0.0),
            dict(rel_tol=-1e-6),
            dict(rel_tol=float("inf")),
            dict(rel_tol=float("nan")),
            dict(max_nnz=0),
            dict(start="middle"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SolverConfig(**kwargs)


def test_inference_report_nnz_is_the_support_of_theta():
    point = TopicProportion.from_dense(np.array([0.5, 0.0, 0.5]))
    assert InferenceReport(theta=point, iterations=3, objective=-1.0, seconds=0.0).nnz == 2
    with pytest.raises(InvalidArgumentError):
        InferenceReport(theta=point, iterations=-1, objective=-1.0, seconds=0.0)


def test_sum_left_to_right_adds_in_order():
    from sparsetopics.core import sum_left_to_right

    # each -1.0 is half an ulp of -1e16 and rounds away, added in order
    values = [-1e16] + [-1.0] * 10
    assert sum_left_to_right(values) == -1e16
    assert math.fsum(values) == -1e16 - 10.0
    assert sum_left_to_right(iter(values[::-1])) == -1e16 - 10.0
    assert sum_left_to_right([]) == 0.0 and math.copysign(1.0, sum_left_to_right([-0.0])) == 1.0


def test_converged_relative_then_absolute():
    from sparsetopics.core import converged

    assert converged(-100.0, -100.0 + 9e-5, 1e-6)
    assert not converged(-100.0, -100.0 + 2e-4, 1e-6)
    # the rule is relative at every scale: tiny values are judged alike
    assert converged(-1e-300, -1e-300 + 9e-307, 1e-6)
    assert not converged(-1e-300, -1e-300 + 2e-306, 1e-6)
    assert not converged(1e-13, 5e-7, 1e-6)
    assert not converged(0.0, 2e-6, 1e-6)
    # equal values have converged, zero included
    assert converged(0.0, 0.0, 1e-6)
    assert converged(-3.5, -3.5, 1e-6)
