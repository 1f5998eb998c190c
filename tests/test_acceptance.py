"""End-to-end acceptance checks for the whole package.

Every test pins its tolerances as module constants and emits exactly one
"ACCEPTANCE n [name]: PASS/FAIL" line; conftest repeats the collected lines
in the terminal summary.

Criterion 5 guards the claim that the solver handles log-normal (CTM)
priors.  Negative-definiteness of the penalty Hessian does not hold for
every symmetric positive definite precision: mixed-sign precisions can put
positive curvature into it (test_objectives.py holds frozen
counterexamples).  So the check runs the package's own solve on each drawn
prior: the solve must refuse exactly the precisions with a negative entry,
and every prior it does solve must have a negative definite Hessian.
"""

import time

import numpy as np
import pytest

from sparsetopics import (
    Corpus,
    CtmPrior,
    NonconcavePriorError,
    SolverConfig,
    TopicMatrix,
    TrainConfig,
    capped_simplex_argmax,
    compare_methods,
    ctm_full_objective,
    ctm_penalty_hessian,
    evaluate_inference,
    fw_solve,
    generate_synthetic_corpus,
    lda_map_objective,
    load_model,
    load_uci_bow,
    ml_objective,
    save_model,
    save_uci_bow,
    save_vocab,
    tradeoff_sweep,
    train,
)
from sparsetopics.core import Document, Vocabulary

from acceptance_report import verdict
from helpers import (
    brute_force_capped_lp,
    finite_diff_gradient,
    grid_search_max,
    interior_point,
    ml_value_many,
    random_ml_instance,
)

# --- pinned tolerances and budgets -----------------------------------------
OPTIMALITY_GAP = 1e-3          # criterion 1: absolute gap to the grid oracle
OPTIMALITY_TIME_BUDGET = 30.0  # criterion 1: total solver seconds
GRAD_REL_TOL = 1e-5            # criterion 4: relative gradient error (h = 1e-6)
LP_TOL = 1e-9                  # criterion 6: capped step vs brute force
PERPLEXITY_REL_TOL = 1e-9      # criterion 7: uniform model vs vocabulary size
METHOD_REL_GAP = 0.10          # criterion 8: fw vs folding perplexity
SCALE_REL_TOL = 1e-3           # criterion 9: capped vs full-run perplexity
SCALE_TIME_BUDGET = 300.0      # criterion 9: wall-clock seconds
EM_MONOTONE_TOL = 1e-8         # criterion 10: likelihood trace slack
CLUSTER_WEIGHT = 0.99          # criterion 10: dominant topic weight
ROUND_TRIP_TOL = 1e-12         # criterion 11: perplexity drift

DEEP_SOLVE = SolverConfig(rel_tol=1e-15, max_iters=12000)


@pytest.fixture(scope="module")
def synthetic():
    """A 10-topic corpus over 200 terms, split 500 train / 120 test."""
    data = generate_synthetic_corpus(
        num_topics=10, vocab_size=200, num_docs=620, doc_length=100, seed=11
    )
    train_corpus = Corpus(data.corpus.vocabulary, data.corpus.documents[:500])
    test_docs = list(data.corpus.documents[500:])
    return data, train_corpus, test_docs


@pytest.fixture(scope="module")
def trained(synthetic):
    _, train_corpus, _ = synthetic
    return train(train_corpus, TrainConfig(topics=10, em_iters=40, seed=3))


def trained_infer(topics):
    def infer(doc):
        return fw_solve(ml_objective(doc, topics))[0]

    return infer


def test_01_solver_reaches_optimum():
    # 50 random instances against an independent grid search over the simplex
    rng = np.random.default_rng(101)
    solve_seconds = 0.0
    worst = -np.inf
    for _ in range(50):
        k = int(rng.integers(2, 6))
        topics, doc = random_ml_instance(rng, k=k, v=int(rng.integers(5, 21)))
        objective = ml_objective(doc, topics)
        t0 = time.perf_counter()
        report, _ = fw_solve(objective, config=DEEP_SOLVE)
        solve_seconds += time.perf_counter() - t0
        oracle_value, _ = grid_search_max(ml_value_many(doc, topics), k)
        worst = max(worst, oracle_value - report.objective)
    ok = worst <= OPTIMALITY_GAP and solve_seconds <= OPTIMALITY_TIME_BUDGET
    verdict(
        1,
        "solver-reaches-optimum",
        ok,
        f"worst gap to grid oracle {worst:.2e} (tol {OPTIMALITY_GAP:g}), "
        f"solver time {solve_seconds:.1f}s (budget {OPTIMALITY_TIME_BUDGET:g}s)",
    )


def test_02_support_grows_one_per_step():
    # ell iterations from a vertex touch at most ell + 1 topics, exactly
    rng = np.random.default_rng(202)
    problems = []
    for cap in (1, 2, 4, 8, 16):
        for _ in range(20):
            topics, doc = random_ml_instance(rng, k=18, v=30)
            config = SolverConfig(max_iters=cap, rel_tol=1e-15)
            report, trace = fw_solve(ml_objective(doc, topics), config=config)
            if report.nnz > report.iterations + 1 or report.iterations > cap:
                problems.append(f"cap {cap}: nnz {report.nnz} after {report.iterations}")
            for record in trace:
                if record.nnz > record.iteration + 1:
                    problems.append(
                        f"cap {cap}: nnz {record.nnz} at iteration {record.iteration}"
                    )
    ok = not problems
    verdict(
        2,
        "support-grows-one-per-step",
        ok,
        problems[0] if problems else "100 runs, every iterate obeyed nnz <= iteration + 1",
    )


def test_03_anytime_prefix():
    # a longer run extends a shorter one bitwise and never decreases
    rng = np.random.default_rng(303)
    problems = []
    deep_runs = 0
    for _ in range(20):
        topics, doc = random_ml_instance(rng, k=8, v=30)
        objective = ml_objective(doc, topics)
        _, short = fw_solve(objective, config=SolverConfig(max_iters=10, rel_tol=1e-15))
        _, long = fw_solve(objective, config=SolverConfig(max_iters=120, rel_tol=1e-15))
        if np.any(np.diff(long.objectives()) < 0.0):
            problems.append("objective decreased along a trace")
        if any(a != b for a, b in zip(short, long)):
            problems.append("short run is not a bitwise prefix of the long run")
        if len(long) > len(short):
            deep_runs += 1
    if deep_runs == 0:
        problems.append("no instance ran past the short cap")
    ok = not problems
    verdict(
        3,
        "anytime-prefix",
        ok,
        problems[0]
        if problems
        else f"20 monotone traces, bitwise prefixes, {deep_runs} past the short cap",
    )


def test_04_gradient_check():
    # each objective family, 100 interior points, central finite differences
    rng = np.random.default_rng(404)
    worst = 0.0
    for family in ("ml", "lda-map", "ctm"):
        for i in range(100):
            k = int(rng.integers(2, 6))
            topics, doc = random_ml_instance(rng, k=k, v=12)
            if family == "ml":
                objective = ml_objective(doc, topics)
            elif family == "lda-map":
                objective = lda_map_objective(
                    doc, topics, alpha=1.0 + 3.0 * rng.random(k)
                )
            else:
                a = rng.normal(size=(k, k))
                precision = a @ a.T + k * np.eye(k)
                if i % 2:
                    prior = CtmPrior(precision, mean=0.5 * rng.normal(size=k))
                    objective = ctm_full_objective(doc, topics, prior)
                else:
                    objective = ctm_full_objective(doc, topics, CtmPrior(precision))
            theta = interior_point(rng, k)
            grad = objective.gradient(theta)
            approx = finite_diff_gradient(objective.value, theta, h=1e-6)
            err = float(np.max(np.abs(grad - approx)) / max(1.0, np.max(np.abs(grad))))
            worst = max(worst, err)
    ok = worst <= GRAD_REL_TOL
    verdict(
        4,
        "gradient-check",
        ok,
        f"worst relative error {worst:.2e} over 100 interior points per "
        f"objective family (tol {GRAD_REL_TOL:g})",
    )


def test_05_ctm_hessian_negative_definite():
    # every SPD precision the solver accepts must give a negative definite
    # penalty Hessian, and the solver must refuse exactly the precisions
    # with a negative entry (the rest, entrywise non-negative ones, are
    # provably concave on the simplex); the documents come from their own
    # generator so the 505 stream draws the same (K, P, theta) as ever
    rng = np.random.default_rng(505)
    instances = np.random.default_rng(5050)
    config = SolverConfig(start="barycenter")
    solved, violations, misjudged = [], [], []
    for i in range(100):
        k = int(rng.integers(2, 6))
        a = rng.normal(size=(k, k))
        precision = a @ a.T + k * np.eye(k)
        prior = CtmPrior(precision)
        theta = rng.dirichlet(np.ones(k))
        topics, doc = random_ml_instance(instances, k=k, v=8)
        try:
            fw_solve(ctm_full_objective(doc, topics, prior), config=config)
        except NonconcavePriorError:
            refused = True
        else:
            refused = False
            solved.append(i)
            hessian = ctm_penalty_hessian(theta, prior)
            top = float(np.linalg.eigvalsh(0.5 * (hessian + hessian.T)).max())
            if top >= 0.0:
                violations.append((i, k, top))
        if refused != bool(np.any(precision < 0.0)):
            misjudged.append((i, "refused" if refused else "solved"))
    ok = not violations and not misjudged
    detail = f"{len(solved)} of 100 SPD precision draws solved, {100 - len(solved)} refused"
    if violations:
        i, k, top = violations[0]
        detail += (
            f"; {len(violations)} solved draws give positive curvature, first at "
            f"draw {i} (K={k}, max eigenvalue {top:.3g})"
        )
    if misjudged:
        i, what = misjudged[0]
        detail += (
            f"; {len(misjudged)} draws {what} against the sign rule (refuse exactly "
            f"when P has a negative entry), first at draw {i}"
        )
    verdict(5, "ctm-hessian-negative-definite", ok, detail)


def test_06_capped_step_exact():
    # the greedy capped step against an exhaustive vertex enumeration, and
    # cap-one equivalence with the plain solver
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        scores = rng.normal(size=k)
        caps = rng.uniform(0.05, 1.0, size=k)
        if caps.sum() < 1.0:
            caps = np.minimum(caps / caps.sum() * 1.3, 1.0)
        got = capped_simplex_argmax(scores, caps)
        worst = max(worst, abs(float(scores @ got) - brute_force_capped_lp(scores, caps)))
    mismatches = 0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        topics, doc = random_ml_instance(rng, k=k, v=15)
        objective = ml_objective(doc, topics)
        config = SolverConfig(start="barycenter", rel_tol=1e-10)
        plain, plain_trace = fw_solve(objective, config=config)
        capped, capped_trace = fw_solve(objective, config, caps=np.ones(k))
        same = (
            np.array_equal(plain.theta.dense(k), capped.theta.dense(k))
            and len(plain_trace) == len(capped_trace)
            and all(
                a.objective == b.objective and a.alpha == b.alpha
                for a, b in zip(plain_trace, capped_trace)
            )
        )
        if not same:
            mismatches += 1
    ok = worst <= LP_TOL and mismatches == 0
    verdict(
        6,
        "capped-step-exact",
        ok,
        f"worst LP gap {worst:.2e} (tol {LP_TOL:g}), "
        f"{mismatches} of 20 cap-one runs diverged from the plain solver",
    )


def test_07_perplexity_sanity(synthetic, trained):
    _, _, test_docs = synthetic
    topics, _ = trained
    uniform = TopicMatrix.normalized(np.ones((10, 200)))
    p_uniform = evaluate_inference(test_docs, uniform, trained_infer(uniform)).perplexity
    p_trained = evaluate_inference(test_docs, topics, trained_infer(topics)).perplexity
    ok = (
        abs(p_uniform - 200.0) <= 200.0 * PERPLEXITY_REL_TOL
        and p_trained < 200.0
    )
    verdict(
        7,
        "perplexity-sanity",
        ok,
        f"uniform model {p_uniform:.9f} (expected 200), trained model {p_trained:.3f}",
    )


def test_08_method_comparison(synthetic, trained):
    _, _, test_docs = synthetic
    topics, _ = trained
    config = SolverConfig(max_iters=1000, rel_tol=1e-6)
    results = {
        r.method: r.report
        for r in compare_methods(test_docs, topics, alpha=1.0, config=config)
    }
    rel_gap = (
        abs(results["fw"].perplexity - results["folding"].perplexity)
        / results["folding"].perplexity
    )
    ok = (
        results["fw"].mean_sparsity < 1.0
        and results["vb"].mean_sparsity == 1.0
        and rel_gap <= METHOD_REL_GAP
    )
    verdict(
        8,
        "method-comparison",
        ok,
        f"fw sparsity {results['fw'].mean_sparsity:.3f} (vb {results['vb'].mean_sparsity:.1f}), "
        f"fw/folding perplexity gap {rel_gap:.2e} (tol {METHOD_REL_GAP:g})",
    )


def test_09_scale_run():
    # 150 documents, 100 topics, 400 terms: a tight iteration cap must not
    # cost measurable quality, and the whole sweep must stay fast
    data = generate_synthetic_corpus(
        num_topics=100,
        vocab_size=400,
        num_docs=150,
        doc_length=300,
        doc_alpha=0.002,
        topic_concentration=0.2,
        seed=5,
    )
    t0 = time.perf_counter()
    results = tradeoff_sweep(data.corpus, data.topics, [50, 1000])
    elapsed = time.perf_counter() - t0
    p_capped = results[0].report.perplexity
    p_full = results[1].report.perplexity
    rel = abs(p_capped - p_full) / p_full
    ok = rel < SCALE_REL_TOL and elapsed < SCALE_TIME_BUDGET
    verdict(
        9,
        "scale-run",
        ok,
        f"perplexity {p_capped:.3f} at cap 50 vs {p_full:.3f} at cap 1000 "
        f"(rel {rel:.2e}, tol {SCALE_REL_TOL:g}), {elapsed:.1f}s "
        f"(budget {SCALE_TIME_BUDGET:g}s)",
    )


def two_cluster_corpus():
    rng = np.random.default_rng(21)
    docs = []
    for side in (0, 10):
        for _ in range(30):
            ids = np.sort(rng.choice(10, size=4, replace=False)) + side
            counts = rng.integers(2, 6, size=4).astype(float)
            docs.append(Document(ids.astype(np.int64), counts))
    vocab = Vocabulary(tuple(f"t{j}" for j in range(20)))
    return Corpus(vocab, tuple(docs))


def test_10_training_monotone_recovery(trained):
    _, trace = trained
    problems = []
    if len(trace) < 2:
        problems.append("training stopped after a single step")
    if np.any(np.diff(trace) < -EM_MONOTONE_TOL):
        problems.append("likelihood trace decreased")

    corpus = two_cluster_corpus()
    config = TrainConfig(topics=2, em_iters=30, seed=0)
    beta, cluster_trace = train(corpus, config)
    weakest = min(
        fw_solve(ml_objective(doc, beta))[0].theta.dense(2).max()
        for doc in corpus.documents
    )
    if weakest < CLUSTER_WEIGHT:
        problems.append(f"dominant weight {weakest:.4f} < {CLUSTER_WEIGHT}")
    beta_again, trace_again = train(corpus, config)
    if not np.array_equal(beta.rows, beta_again.rows) or cluster_trace != trace_again:
        problems.append("retraining with the same seed diverged")
    ok = not problems
    verdict(
        10,
        "training-monotone-recovery",
        ok,
        problems[0]
        if problems
        else f"{len(trace)} monotone EM steps, weakest cluster weight {weakest:.4f}, "
        "retrain bit-identical",
    )


def test_11_model_round_trip(synthetic, trained, tmp_path):
    data, _, test_docs = synthetic
    topics, _ = trained
    test_corpus = Corpus(data.corpus.vocabulary, tuple(test_docs))
    bow_path = tmp_path / "eval.docword.txt"
    vocab_path = tmp_path / "eval.vocab.txt"
    model_path = tmp_path / "eval.model.txt"
    save_uci_bow(bow_path, test_corpus)
    save_vocab(vocab_path, data.corpus.vocabulary)
    save_model(model_path, topics, metadata={"topics": 10})

    reloaded_corpus = load_uci_bow(bow_path, vocab_path)
    reloaded_model = load_model(model_path)
    bitwise = np.array_equal(reloaded_model.topics.rows, topics.rows)
    p_before = evaluate_inference(test_docs, topics, trained_infer(topics)).perplexity
    p_after = evaluate_inference(
        reloaded_corpus, reloaded_model.topics, trained_infer(reloaded_model.topics)
    ).perplexity
    drift = abs(p_before - p_after) / p_before
    ok = bitwise and drift <= ROUND_TRIP_TOL
    verdict(
        11,
        "model-round-trip",
        ok,
        f"model rows bitwise equal: {bitwise}, perplexity drift {drift:.2e} "
        f"(tol {ROUND_TRIP_TOL:g})",
    )
