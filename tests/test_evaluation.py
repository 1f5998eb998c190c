import math
import re

import numpy as np
import pytest

from sparsetopics import (
    Document,
    InvalidArgumentError,
    SolverConfig,
    TopicMatrix,
    compare_methods,
    evaluate_inference,
    fw_solve,
    generate_synthetic_corpus,
    ml_objective,
    tradeoff_sweep,
)
from sparsetopics import evaluation
from sparsetopics.core import InferenceReport, TopicProportion, sum_left_to_right
from sparsetopics.evaluation import ALL_METHODS


def fw_infer(topics):
    def infer(doc):
        return fw_solve(ml_objective(doc, topics))[0]

    return infer


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        # every term has probability 1/V regardless of theta
        v = 200
        topics = TopicMatrix.normalized(np.ones((4, v)))
        data = generate_synthetic_corpus(4, v, 10, 50, seed=1)
        value = evaluate_inference(data.corpus, topics, fw_infer(topics)).perplexity
        assert value == pytest.approx(float(v), rel=1e-9)

    def test_single_term_document(self):
        # one topic, term probability 0.2: perplexity is exactly 1/0.2
        topics = TopicMatrix.normalized(np.ones((1, 5)))
        doc = Document(np.array([2]), np.array([1.0]))
        value = evaluate_inference([doc], topics, fw_infer(topics)).perplexity
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_matches_manual_aggregation(self):
        data = generate_synthetic_corpus(3, 40, 8, 30, seed=6)
        report = evaluate_inference(data.corpus, data.topics, fw_infer(data.topics))
        total_log = sum_left_to_right(r.log_prob for r in report.docs)
        total_len = sum_left_to_right(r.length for r in report.docs)
        assert report.perplexity == float(np.exp(-total_log / total_len))

    def test_sums_left_to_right(self):
        # 1.4e16 tokens of probability 1/4, then ten documents of one token
        # of probability 3/4 each: added left to right, each small term rounds
        # away, as sum() adds before Python 3.12; compensated sums keep them
        topics = TopicMatrix(np.array([[0.25, 0.75]]))
        docs = [Document(np.array([0]), np.array([1.4e16]))] + [Document(np.array([1]), np.array([1.0]))] * 10
        vertex = InferenceReport(TopicProportion(np.array([0]), np.array([1.0])), 0, 0.0, 0.0)
        report = evaluate_inference(docs, topics, lambda doc: vertex)
        log_probs = [r.log_prob for r in report.docs]
        lengths = [r.length for r in report.docs]
        left_to_right = [0.0, 0.0]
        for log_prob, length in zip(log_probs, lengths):
            left_to_right[0] += log_prob
            left_to_right[1] += length
        assert report.perplexity == float(np.exp(-left_to_right[0] / left_to_right[1]))
        assert report.perplexity != float(np.exp(-math.fsum(log_probs) / math.fsum(lengths)))

    def test_accepts_document_sequence(self):
        data = generate_synthetic_corpus(3, 40, 6, 30, seed=6)
        a = evaluate_inference(data.corpus, data.topics, fw_infer(data.topics)).perplexity
        b = evaluate_inference(list(data.corpus.documents), data.topics, fw_infer(data.topics)).perplexity
        assert a == b

    def test_empty_test_set(self):
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        with pytest.raises(InvalidArgumentError):
            evaluate_inference([], topics, fw_infer(topics))


class TestEvaluateInference:
    def test_doc_rows(self):
        data = generate_synthetic_corpus(3, 30, 5, 20, seed=3)
        report = evaluate_inference(data.corpus, data.topics, fw_infer(data.topics))
        assert [r.doc_index for r in report.docs] == [0, 1, 2, 3, 4]
        for row, doc in zip(report.docs, data.corpus.documents):
            assert row.length == doc.length
            assert row.seconds >= 0.0
            assert 1 <= row.nnz <= 3
        assert report.mean_nnz == pytest.approx(
            np.mean([r.nnz for r in report.docs]), abs=1e-12
        )
        assert report.mean_sparsity == pytest.approx(report.mean_nnz / 3, abs=1e-12)


class TestCompareMethods:
    def test_all_methods_reported(self):
        data = generate_synthetic_corpus(5, 60, 12, 40, seed=13)
        config = SolverConfig(max_iters=200)
        results = compare_methods(data.corpus, data.topics, config=config)
        assert [r.method for r in results] == list(ALL_METHODS)
        assert all(r.cap == 200 for r in results)

    def test_vb_is_dense_and_fw_is_sparse(self):
        data = generate_synthetic_corpus(5, 60, 12, 40, doc_alpha=0.05, seed=13)
        results = {r.method: r.report for r in compare_methods(data.corpus, data.topics)}
        assert results["vb"].mean_sparsity == 1.0
        assert results["folding"].mean_sparsity == 1.0
        assert results["fw"].mean_sparsity < 1.0

    def test_single_topic_all_methods_agree(self):
        topics = TopicMatrix.normalized(np.ones((1, 5)))
        docs = [Document(np.array([0, 3]), np.array([2.0, 1.0]))]
        results = compare_methods(docs, topics)
        values = [r.report.perplexity for r in results]
        assert values[0] == values[1] == values[2]

    def test_unknown_method(self):
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        with pytest.raises(InvalidArgumentError):
            compare_methods(docs, topics, methods=("fw", "gibbs"))

    def test_unknown_method_is_refused_before_any_solve(self, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return fw_solve(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fw_solve", counting_solve)
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        with pytest.raises(InvalidArgumentError, match="bogus"):
            compare_methods(docs, topics, methods=("fw", "bogus"))
        assert solves == []

    @pytest.mark.parametrize(
        "methods, alpha, message",
        [
            ((), 1.0, "methods names no method"),
            ([], 0.5, "methods names no method"),
            (("fw", "fw"), 1.0, "methods names a method twice: fw,fw"),
            (("vb", "fw", "vb"), 2.0, "methods names a method twice: vb,fw,vb"),
            (("fw",), 0.5, "alpha applies to the vb method only"),
            (("fw", "folding"), 2.0, "alpha applies to the vb method only"),
            (("folding",), np.array([1.0, 0.5]), "alpha applies to the vb method only"),
        ],
    )
    def test_refused_before_any_method_runs(self, monkeypatch, methods, alpha, message):
        calls = []
        for name in ("fw_solve", "folding_in", "vb_infer"):
            monkeypatch.setattr(evaluation, name, lambda *args, **kwargs: calls.append(args))
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            compare_methods(docs, topics, alpha=alpha, methods=methods)
        assert calls == []

    @pytest.mark.parametrize(
        "methods, alpha",
        [(("fw",), 1.0), (("vb",), 2.0), (("folding", "vb"), 0.5), (("fw",), np.ones(2)), (ALL_METHODS, np.full(2, 3.0))],
    )
    def test_accepted(self, methods, alpha):
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        results = compare_methods(docs, topics, alpha=alpha, methods=methods)
        assert [r.method for r in results] == list(methods)

    def test_alpha_reaches_vb(self):
        data = generate_synthetic_corpus(3, 30, 4, 20, seed=1)
        flat, peaked = (
            compare_methods(data.corpus, data.topics, alpha=alpha, methods=("vb",))[0].report.perplexity
            for alpha in (1.0, 5.0)
        )
        assert flat != peaked

    def test_subset_of_methods(self):
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        results = compare_methods(docs, topics, methods=("vb",))
        assert len(results) == 1 and results[0].method == "vb"


class TestTradeoffSweep:
    def test_quality_improves_with_cap(self):
        data = generate_synthetic_corpus(6, 80, 15, 60, seed=19)
        caps = [1, 2, 4, 8, 32]
        results = tradeoff_sweep(
            data.corpus, data.topics, caps, config=SolverConfig(rel_tol=1e-12)
        )
        assert [r.cap for r in results] == caps
        perps = [r.report.perplexity for r in results]
        for earlier, later in zip(perps, perps[1:]):
            assert later <= earlier + 1e-9
        # per-document likelihoods are non-decreasing in the cap too
        for a, b in zip(results, results[1:]):
            for ra, rb in zip(a.report.docs, b.report.docs):
                assert rb.log_prob >= ra.log_prob - 1e-9

    def test_support_grows_with_cap(self):
        data = generate_synthetic_corpus(6, 80, 15, 60, seed=19)
        results = tradeoff_sweep(
            data.corpus, data.topics, [1, 4], config=SolverConfig(rel_tol=1e-12)
        )
        assert results[0].report.mean_nnz <= results[1].report.mean_nnz
        assert results[0].report.mean_nnz <= 2.0

    @pytest.mark.parametrize("caps", [[], [0, 1], [2, 2], [4, 2]])
    def test_rejects_bad_caps(self, caps):
        topics = TopicMatrix.normalized(np.ones((2, 5)))
        docs = [Document(np.array([0]), np.array([1.0]))]
        with pytest.raises(InvalidArgumentError):
            tradeoff_sweep(docs, topics, caps)
