"""Command-line front end.

Subcommands: synth (generate a toy corpus), train (fit topics by EM),
infer (per-document proportions), eval (method comparison), tradeoff
(iteration-cap sweep).  CSV-producing commands print to stdout when
--out is omitted.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import corpus_io
from .core import SolverConfig, TopicProportion
from .errors import InvalidArgumentError, InvalidConfigError
from .evaluation import ALL_METHODS, check_caps, check_methods, compare_methods, tradeoff_sweep
from .objectives import ctm_full_objective, lda_map_objective, ml_objective
from .solver import fw_solve
from .training import TrainConfig, generate_synthetic_corpus, train


def _add_corpus_flags(p):
    p.add_argument("--corpus", required=True, help="bag-of-words file")
    p.add_argument("--vocab", help="vocabulary file, one term per line")


def _add_stop_flags(p):
    p.add_argument("--tol", type=float, default=SolverConfig.rel_tol, help="relative stopping tolerance")
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters, help="iteration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetopics",
        description="Sparse topic-proportion inference over the simplex",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus and its true model")
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True, help="vocabulary size")
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="tokens per document")
    p.add_argument("--doc-alpha", type=float, default=0.1)
    p.add_argument("--concentration", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a topic model by EM")
    _add_corpus_flags(p)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--em-iters", type=int, default=TrainConfig.em_iters)
    p.add_argument("--em-tol", type=float, default=TrainConfig.em_rel_tol)
    p.add_argument("--seed", type=int, default=0)
    _add_stop_flags(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="infer proportions for every document")
    _add_corpus_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--objective", choices=["ml", "lda-map", "ctm"], default="ml")
    p.add_argument("--alpha", type=float, default=1.0, help="Dirichlet concentration >= 1 (lda-map; 1 is ml)")
    p.add_argument("--prior", help="precision file (ctm)")
    p.add_argument("--max-nnz", type=int, help="cap on the support size")
    _add_stop_flags(p)
    p.add_argument("--out", required=True, help="proportions file to write")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="compare inference methods on a corpus")
    _add_corpus_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--methods", default=",".join(ALL_METHODS))
    p.add_argument("--alpha", type=float, default=1.0)
    _add_stop_flags(p)
    p.add_argument("--out", help="CSV file (stdout when omitted)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tradeoff", help="sweep iteration caps")
    _add_corpus_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--caps", required=True, help="comma-separated strictly increasing caps")
    p.add_argument("--tol", type=float, default=SolverConfig.rel_tol)
    p.add_argument("--out", help="CSV file (stdout when omitted)")
    p.set_defaults(func=_cmd_tradeoff)

    return parser


def _load_pair(args):
    corpus = corpus_io.load_uci_bow(args.corpus, args.vocab)
    model = corpus_io.load_model(args.model)
    if corpus.vocabulary.size != model.topics.vocab_size:
        raise InvalidArgumentError(
            f"corpus vocabulary has {corpus.vocabulary.size} terms but the "
            f"model expects {model.topics.vocab_size}"
        )
    return corpus, model.topics


def _cmd_synth(args) -> int:
    data = generate_synthetic_corpus(
        num_topics=args.topics,
        vocab_size=args.vocab,
        num_docs=args.docs,
        doc_length=args.len,
        doc_alpha=args.doc_alpha,
        topic_concentration=args.concentration,
        seed=args.seed,
    )
    prefix = args.out_prefix
    corpus_io.save_uci_bow(prefix + ".docword.txt", data.corpus)
    corpus_io.save_vocab(prefix + ".vocab.txt", data.corpus.vocabulary)
    corpus_io.save_model(prefix + ".model.txt", data.topics, metadata={"kind": "synthetic"})
    corpus_io.write_proportions(
        prefix + ".theta.txt",
        [TopicProportion.from_dense(row) for row in data.proportions],
    )
    print(
        f"wrote {len(data.corpus.documents)} documents over {args.vocab} terms "
        f"to {prefix}.*"
    )
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(
        topics=args.topics,
        em_iters=args.em_iters,
        em_rel_tol=args.em_tol,
        inner=SolverConfig(max_iters=args.iters, rel_tol=args.tol),
        seed=args.seed,
    )
    corpus = corpus_io.load_uci_bow(args.corpus, args.vocab)
    topics, trace = train(corpus, config)
    corpus_io.save_model(args.out, topics, metadata={"topics": args.topics})
    corpus_io.write_likelihood_csv(args.out + ".trace.csv", trace)
    print(
        f"trained {args.topics} topics in {len(trace)} EM iteration(s); "
        f"final log-likelihood {trace[-1]:.6f}"
    )
    return 0


def _cmd_infer(args) -> int:
    # A setting the objective cannot use is refused, never silently ignored.
    if args.alpha != 1.0 and args.objective != "lda-map":
        raise InvalidConfigError(f"--alpha applies to --objective lda-map only, not {args.objective}")
    if (args.prior is not None) != (args.objective == "ctm"):
        raise InvalidConfigError("--prior applies to --objective ctm, which requires it")
    if args.max_nnz is not None and (args.objective == "ctm" or args.alpha != 1.0):  # alpha != 1: lda-map
        raise InvalidConfigError(
            "--max-nnz applies to objectives that start from a vertex: ml, and lda-map with --alpha 1"
        )
    config = SolverConfig(max_iters=args.iters, rel_tol=args.tol, max_nnz=args.max_nnz)
    corpus, topics = _load_pair(args)
    prior = corpus_io.load_prior(args.prior) if args.objective == "ctm" else None

    def make_objective(doc):
        if args.objective == "ml":
            return ml_objective(doc, topics)
        if args.objective == "lda-map":
            return lda_map_objective(doc, topics, args.alpha)
        return ctm_full_objective(doc, topics, prior)

    reports = [fw_solve(make_objective(doc), config)[0] for doc in corpus.documents]
    corpus_io.write_theta(args.out, reports, corpus.doc_ids)
    mean_nnz = float(np.mean([r.nnz for r in reports]))
    print(f"inferred {len(reports)} documents; mean support {mean_nnz:.2f}")
    return 0


def _cmd_eval(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    check_methods(methods, args.alpha)  # as in infer, before any file is read
    config = SolverConfig(max_iters=args.iters, rel_tol=args.tol)
    corpus, topics = _load_pair(args)
    return _write_results(args, compare_methods(corpus, topics, alpha=args.alpha, config=config, methods=methods))


def _cmd_tradeoff(args) -> int:
    try:
        caps = [int(c) for c in args.caps.split(",") if c.strip()]
    except ValueError:
        raise InvalidArgumentError(f"bad --caps value: {args.caps!r}") from None
    check_caps(caps)  # tradeoff_sweep's own check, before any file is read
    config = SolverConfig(rel_tol=args.tol)
    corpus, topics = _load_pair(args)
    return _write_results(args, tradeoff_sweep(corpus, topics, caps, config=config))


def _write_results(args, results) -> int:
    """The CSV of eval and tradeoff, to --out or else to stdout."""
    if args.out:
        corpus_io.write_eval_csv(args.out, results)
        print(f"wrote {args.out}")
    else:
        corpus_io.write_eval_rows(sys.stdout, results)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
