"""Held-out evaluation: perplexity, support sparsity, timing, and the
iteration-cap trade-off sweep.

Perplexity is exp(-sum_d log P(d) / sum_d |d|), with log P(d) the plain
likelihood of the inferred proportions; a uniform topic matrix therefore
scores exactly the vocabulary size.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Sequence

import numpy as np

from .baselines import folding_in, vb_infer
from .core import Corpus, Document, InferenceReport, SolverConfig, TopicMatrix
from .errors import InvalidArgumentError
from .objectives import MlObjective
from .solver import fw_solve


@dataclasses.dataclass(frozen=True)
class DocEval:
    doc_index: int
    log_prob: float
    length: float
    nnz: int
    iterations: int
    seconds: float


@dataclasses.dataclass(frozen=True)
class EvalReport:
    perplexity: float
    mean_sparsity: float
    mean_nnz: float
    total_seconds: float
    docs: tuple[DocEval, ...]


@dataclasses.dataclass(frozen=True)
class MethodResult:
    """One row of a comparison or sweep: a method name, its iteration cap,
    and the evaluation over the document set."""

    method: str
    cap: int
    report: EvalReport


def _documents(testset) -> Sequence[Document]:
    docs = testset.documents if isinstance(testset, Corpus) else tuple(testset)
    if len(docs) == 0:
        raise InvalidArgumentError("empty test set")
    return docs


def evaluate_inference(
    testset,
    topics: TopicMatrix,
    infer: Callable[[Document], InferenceReport],
) -> EvalReport:
    """Run an inference callable over every document and aggregate.

    Documents are processed serially so per-document timings are honest.
    """
    docs = _documents(testset)
    k = topics.num_topics
    rows = []
    for m, doc in enumerate(docs):
        t0 = time.perf_counter()
        report = infer(doc)
        seconds = time.perf_counter() - t0
        log_prob = MlObjective(doc, topics).value(report.theta.dense(k))
        rows.append(
            DocEval(
                doc_index=m,
                log_prob=log_prob,
                length=doc.length,
                nnz=report.nnz,
                iterations=report.iterations,
                seconds=seconds,
            )
        )
    total_log = sum(r.log_prob for r in rows)
    total_len = sum(r.length for r in rows)
    return EvalReport(
        perplexity=float(np.exp(-total_log / total_len)),
        mean_sparsity=float(np.mean([r.nnz / k for r in rows])),
        mean_nnz=float(np.mean([r.nnz for r in rows])),
        total_seconds=float(sum(r.seconds for r in rows)),
        docs=tuple(rows),
    )


METHOD_FW = "fw"
METHOD_FOLDING = "folding"
METHOD_VB = "vb"
ALL_METHODS = (METHOD_FW, METHOD_FOLDING, METHOD_VB)


def compare_methods(
    testset,
    topics: TopicMatrix,
    alpha=1.0,
    config: SolverConfig | None = None,
    methods: Sequence[str] = ALL_METHODS,
) -> list[MethodResult]:
    """Evaluate the simplex solver against the baselines under one shared
    stopping configuration (same max_iters, same rel_tol)."""
    config = config or SolverConfig()
    results = []
    for method in methods:
        if method == METHOD_FW:
            def infer(doc, _c=config):
                return fw_solve(MlObjective(doc, topics), config=_c)[0]
        elif method == METHOD_FOLDING:
            def infer(doc, _c=config):
                return folding_in(doc, topics, _c)[0]
        elif method == METHOD_VB:
            def infer(doc, _c=config):
                return vb_infer(doc, topics, alpha, _c)[0]
        else:
            raise InvalidArgumentError(f"unknown method: {method!r}")
        report = evaluate_inference(testset, topics, infer)
        results.append(MethodResult(method=method, cap=config.max_iters, report=report))
    return results


def tradeoff_sweep(
    testset,
    topics: TopicMatrix,
    caps: Sequence[int],
    config: SolverConfig | None = None,
    objective_factory: Callable[[Document], MlObjective] | None = None,
) -> list[MethodResult]:
    """Evaluate the solver at a strictly increasing series of iteration
    caps.  Because a longer run extends a shorter one step for step, each
    document's likelihood is non-decreasing in the cap and the perplexity
    column is non-increasing."""
    caps = [int(c) for c in caps]
    if not caps or any(c < 1 for c in caps):
        raise InvalidArgumentError("caps must be positive integers")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise InvalidArgumentError("caps must be strictly increasing")
    config = config or SolverConfig()
    if objective_factory is None:
        objective_factory = lambda doc: MlObjective(doc, topics)
    results = []
    for cap in caps:
        capped = dataclasses.replace(config, max_iters=cap)

        def infer(doc, _c=capped):
            return fw_solve(objective_factory(doc), config=_c)[0]

        report = evaluate_inference(testset, topics, infer)
        results.append(MethodResult(method=METHOD_FW, cap=cap, report=report))
    return results
