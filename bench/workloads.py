"""The four workloads, each run through the package's public functions in
the order the matching command-line subcommand calls them.

Every workload is a closed loop: one process, one caller, documents
solved one after another.  A pass times the command: what `sparsetopics
eval`, `infer` or `train` does after loading its files, output writes
included.  `train` hides its per-document solves, so after it the pass
solves every training document under the trained model, as
`sparsetopics eval --methods fw` would: the E-step's solve, timed per
document.

`api` is the package namespace, or the traced stand-in from tracing.py;
workloads reach the package only through it.  Given a Shadow, every timed
call is paired with the same call of the pinned copy of the package
(pinned_sparsetopics) on the same document, moments apart.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

WORKLOADS = ("heldout-converged", "sparse-k1000", "train-em", "ctm-capped")

# Command-line defaults the workloads keep.
MAX_ITERS = 1000
REL_TOL = 1e-6
VB_ALPHA = 1.0
SPARSE_MAX_NNZ = 4
EM_ITERS = 2
EM_REL_TOL = 1e-4
TRAIN_SEED = 7


@dataclasses.dataclass
class Call:
    """One timed public call on one document, and the time of the pinned
    copy's same call when a Shadow ran it."""

    doc: int
    seconds: float
    report: object
    pinned_s: float | None = None


@dataclasses.dataclass
class PassResult:
    # Wall time of the command, less the pinned copy's calls inside it.
    command_s: float = 0.0
    fw: list = dataclasses.field(default_factory=list)
    folding: list = dataclasses.field(default_factory=list)
    vb: list = dataclasses.field(default_factory=list)
    eval_perplexity: float | None = None
    train_s: float | None = None
    pinned_train_s: float | None = None
    em_trace: list | None = None
    topics: object = None


@dataclasses.dataclass
class Context:
    """What setup loads: the corpus, the model and the prior."""

    corpus: object
    topics: object = None
    prior: object = None


def setup(api, files: dict) -> Context:
    corpus = api.load_uci_bow(files["corpus"])
    ctx = Context(corpus)
    if "model" in files:
        ctx.topics = api.load_model(files["model"]).topics
        if corpus.vocabulary.size != ctx.topics.vocab_size:
            raise ValueError("corpus and model vocabulary sizes differ")
    if "prior" in files:
        ctx.prior = api.load_prior(files["prior"])
    return ctx


def _eval_calls(api, topics) -> tuple:
    """The per-document calls of `sparsetopics eval`, by method."""
    config = api.SolverConfig(max_iters=MAX_ITERS, rel_tol=REL_TOL)
    return config, {
        "fw": lambda d: api.fw_solve(api.ml_objective(d, topics), config=config)[0],
        "folding": lambda d: api.folding_in(d, topics, config)[0],
        "vb": lambda d: api.vb_infer(d, topics, VB_ALPHA, config)[0],
    }


def _infer_call(api, workload: str, ctx: Context):
    """The per-document call of `sparsetopics infer`, with the start rule
    the subcommand derives from the first document's objective."""
    if workload == "ctm-capped":
        make = lambda d: api.ctm_full_objective(d, ctx.topics, ctx.prior)  # noqa: E731
        solve = lambda obj, config: api.fw_solve_capped(obj, api.ctm_caps(ctx.prior), config)[0]  # noqa: E731
        max_nnz = None
    else:
        make = lambda d: api.ml_objective(d, ctx.topics)  # noqa: E731
        solve = lambda obj, config: api.fw_solve(obj, config=config)[0]  # noqa: E731
        max_nnz = SPARSE_MAX_NNZ
    probe = make(ctx.corpus.documents[0])
    start = api.START_BARYCENTER if probe.domain == api.INTERIOR_ONLY else api.START_BEST_VERTEX
    config = api.SolverConfig(max_iters=MAX_ITERS, rel_tol=REL_TOL, max_nnz=max_nnz, start=start)
    return lambda d: solve(make(d), config)


class Shadow:
    """The pinned copy of the package, run beside the package's own calls.

    Each of the package's timed calls is paired with the copy's same call
    on the same document (for train-em, its train call), the two run back
    to back in an order that alternates from call to call and, for the
    same document, from pass to pass.  On a shared host the speed of a
    core drifts by up to 2x over seconds to minutes; the same code run
    moments apart drifts alike, so the ratio of the two times cancels it.
    """

    def __init__(self, api, workload: str, ctx: Context, topics: int):
        self.api, self.workload, self.ctx, self.topics = api, workload, ctx, topics
        self.calls = {}
        if workload == "heldout-converged":
            self.calls = _eval_calls(api, ctx.topics)[1]
        elif workload != "train-em":
            self.calls = {"fw": _infer_call(api, workload, ctx)}
        # Wall time spent in the copy's calls, which commands leave out.
        self.spent = 0.0
        self._passes = 0
        self._calls = 0

    def new_pass(self) -> None:
        self._passes += 1
        self._calls = 0

    def _train(self):
        model, _ = self.api.train(self.ctx.corpus, train_config(self.api, self.topics))
        # The documents solved after train-em's train call use the copy's
        # own trained model.
        self.calls = _eval_calls(self.api, model)[1]

    def pair(self, method: str, doc: int | None, mine) -> tuple:
        """Run `mine` (the package's call) and the copy's `method` call on
        document `doc`; returns mine's result, its seconds and the copy's."""
        theirs = self._train if method == "train" else lambda: self.calls[method](self.ctx.corpus.documents[doc])
        theirs_first = (self._passes + self._calls) % 2 == 0
        self._calls += 1
        if theirs_first:
            pinned_s = self._time(theirs)
        t0 = time.perf_counter()
        out = mine()
        seconds = time.perf_counter() - t0
        if not theirs_first:
            pinned_s = self._time(theirs)
        return out, seconds, pinned_s

    def _time(self, call) -> float:
        t0 = time.perf_counter()
        call()
        seconds = time.perf_counter() - t0
        self.spent += seconds
        return seconds


def _pair(shadow: Shadow | None, method: str, doc, mine) -> tuple:
    if shadow is not None:
        return shadow.pair(method, doc, mine)
    t0 = time.perf_counter()
    out = mine()
    return out, time.perf_counter() - t0, None


class _Command:
    """Times a command, less the pinned copy's calls inside it."""

    def __init__(self, res: PassResult, shadow: Shadow | None):
        self.res, self.shadow = res, shadow

    def _spent(self) -> float:
        return self.shadow.spent if self.shadow is not None else 0.0

    def __enter__(self):
        self.spent, self.t0 = self._spent(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.res.command_s = time.perf_counter() - self.t0 - (self._spent() - self.spent)
        return False


def _timed_calls(docs, call, shadow, method: str = "fw") -> list:
    out = []
    for m, doc in enumerate(docs):
        report, seconds, pinned_s = _pair(shadow, method, m, lambda: call(doc))
        out.append(Call(m, seconds, report, pinned_s))
    return out


def _evaluate(api, corpus, topics, call, sink: list, shadow, method: str):
    """evaluate_inference with a callable timed around each public call."""
    index = iter(range(len(corpus.documents)))

    def infer(doc):
        m = next(index)
        report, seconds, pinned_s = _pair(shadow, method, m, lambda: call(doc))
        sink.append(Call(m, seconds, report, pinned_s))
        return report

    return api.evaluate_inference(corpus, topics, infer)


def _eval_methods(api, corpus, topics, res: PassResult, methods, shadow) -> list:
    """The methods of `sparsetopics eval`, in its order."""
    config, calls = _eval_calls(api, topics)
    results = []
    for name in methods:
        report = _evaluate(api, corpus, topics, calls[name], getattr(res, name), shadow, name)
        results.append(api.MethodResult(method=name, cap=config.max_iters, report=report))
    return results


def _heldout(api, ctx: Context, out: Path, shadow) -> PassResult:
    res = PassResult(topics=ctx.topics)
    with _Command(res, shadow):
        results = _eval_methods(api, ctx.corpus, ctx.topics, res, ("fw", "folding", "vb"), shadow)
        api.write_eval_csv(out / "eval.csv", results)
    res.eval_perplexity = results[0].report.perplexity
    return res


def _infer(api, workload: str, ctx: Context, out: Path, shadow) -> PassResult:
    """`sparsetopics infer`: the start rule and loop of the subcommand."""
    res = PassResult(topics=ctx.topics)
    with _Command(res, shadow):
        call = _infer_call(api, workload, ctx)
        res.fw = _timed_calls(ctx.corpus.documents, call, shadow)
        api.write_theta(out / "theta.txt", [c.report for c in res.fw])
    return res


def train_config(api, topics: int):
    return api.TrainConfig(
        topics=topics,
        em_iters=EM_ITERS,
        em_rel_tol=EM_REL_TOL,
        inner=api.SolverConfig(max_iters=MAX_ITERS, rel_tol=REL_TOL),
        seed=TRAIN_SEED,
        m_step="responsibility",
        threads=1,
    )


def _train(api, ctx: Context, out: Path, topics: int, shadow) -> PassResult:
    res = PassResult()
    with _Command(res, shadow):
        (model, trace), res.train_s, res.pinned_train_s = _pair(
            shadow, "train", None, lambda: api.train(ctx.corpus, train_config(api, topics))
        )
        api.save_model(out / "model.txt", model, metadata={"topics": topics})
        api.write_likelihood_csv(out / "model.txt.trace.csv", trace)
    _eval_methods(api, ctx.corpus, model, res, ("fw",), shadow)
    res.em_trace = list(trace)
    res.topics = model
    return res


def run_pass(api, workload: str, ctx: Context, out: Path, topics: int, shadow: Shadow | None = None) -> PassResult:
    """One pass of the workload; with a Shadow, every timed call is paired
    with the pinned copy's."""
    out.mkdir(parents=True, exist_ok=True)
    if shadow is not None:
        shadow.new_pass()
    if workload == "heldout-converged":
        return _heldout(api, ctx, out, shadow)
    if workload == "train-em":
        return _train(api, ctx, out, topics, shadow)
    return _infer(api, workload, ctx, out, shadow)
