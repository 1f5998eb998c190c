"""Spans for the traced run, recorded from the benchmark's own files.

Nothing under src/ is edited.  The traced run

* calls the package through `traced_api`, whose functions record a span
  around each public call;
* hands the solvers a delegating Objective (`TracedObjective`) that
  records value, gradient, line_restriction and the line-search
  callables it returns;
* installs, for the duration of `installed`, timing wrappers at the names
  a module imports from another (training -> fw_solve / MlObjective /
  TopicMatrix, objectives and corpus_io -> validate_topic_matrix,
  evaluation and baselines -> MlObjective) plus training's per-range
  E-step function.  A name a module no longer has is skipped.

The wrappers compute nothing themselves: every wrapped method is the
original class's function called on the wrapper, which forwards
attribute reads to the wrapped object, so the arithmetic and its order
are unchanged and results stay bitwise identical (run.py checks this).

Spans live in memory (name, start, end, parent, EM step, document) and
are written out when the run ends; self times come from them.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types

import numpy as np
from sparsetopics.objectives import Objective

SOLVER_SPANS = ("solver.fw_solve", "solver.fw_solve_capped")


class Recorder:
    """In-memory spans of one traced pass; single caller, so the open
    spans form a stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step_of: list[int] = []
        self.doc_of: list[int] = []
        self._stack = [-1]
        # Request identifier: EM step (-1 outside training) and document.
        self.step = -1
        self.doc = -1
        self.doc_index: dict[int, int] = {}
        self.solves: list[tuple[int, int, int]] = []
        self.baseline_iterations: dict[str, int] = {"baselines.folding_in": 0, "baselines.vb_infer": 0}

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.step_of.append(self.step)
        self.doc_of.append(self.doc)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return call

    def set_doc(self, doc) -> None:
        self.doc = self.doc_index.get(id(doc), -1)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "em_step": np.array(self.step_of, dtype=np.int32),
            "doc": np.array(self.doc_of, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class TracedObjective(Objective):
    """Delegating Objective: each method is the wrapped object's own class
    function run on this wrapper, inside a span.  A penalized objective's
    base and penalty are wrapped too, so the penalty's share shows."""

    def __init__(self, inner, rec: Recorder, prefix: str = "objectives"):
        self._inner = inner
        self._rec = rec
        self._prefix = prefix
        self._cls = type(inner)
        self.dim = inner.dim
        self.domain = inner.domain
        if hasattr(inner, "base") and hasattr(inner, "penalty"):
            self.base = TracedObjective(inner.base, rec, prefix + ".base")
            self.penalty = TracedObjective(inner.penalty, rec, prefix + ".penalty")

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def value(self, theta):
        return self._rec.span(self._prefix + ".value", self._cls.value, self, theta)

    def gradient(self, theta):
        return self._rec.span(self._prefix + ".gradient", self._cls.gradient, self, theta)

    def line_restriction(self, theta, s_ids, s_vals):
        p = self._prefix
        g, dg = self._rec.span(p + ".line_restriction", self._cls.line_restriction, self, theta, s_ids, s_vals)
        return self._rec.wrap(p + ".g", g), self._rec.wrap(p + ".dg", dg)


def _solver(rec: Recorder, name: str, fn):
    def call(*args, **kwargs):
        report, trace = rec.span(name, fn, *args, **kwargs)
        zero = sum(1 for r in list(trace)[1:] if r.alpha == 0.0)
        rec.solves.append((report.iterations, report.nnz, zero))
        return report, trace

    return call


def _baseline(rec: Recorder, name: str, fn):
    def call(document, *args, **kwargs):
        rec.set_doc(document)
        out = rec.span(name, fn, document, *args, **kwargs)
        rec.baseline_iterations[name] += out[0].iterations
        return out

    return call


def traced_api(st, rec: Recorder):
    """The names workloads.py uses, with every call into the package
    recorded as a span."""

    def load_uci_bow(*args, **kwargs):
        corpus = rec.span("corpus_io.load_uci_bow", st.load_uci_bow, *args, **kwargs)
        rec.doc_index = {id(d): m for m, d in enumerate(corpus.documents)}
        return corpus

    def objective(factory):
        def make(document, *args):
            rec.set_doc(document)
            return TracedObjective(factory(document, *args), rec)

        return make

    def train(*args, **kwargs):
        rec.step = 0
        try:
            return rec.span("training.train", st.train, *args, **kwargs)
        finally:
            rec.step = -1

    api = types.SimpleNamespace(**{name: getattr(st, name) for name in (
        "SolverConfig", "TrainConfig", "MethodResult", "START_BARYCENTER",
        "START_BEST_VERTEX", "INTERIOR_ONLY", "ctm_caps",
    )})
    api.load_uci_bow = load_uci_bow
    for name in ("load_model", "load_prior", "write_theta", "save_model", "write_eval_csv", "write_likelihood_csv"):
        setattr(api, name, rec.wrap("corpus_io." + name, getattr(st, name)))
    api.ml_objective = objective(st.ml_objective)
    api.ctm_full_objective = objective(st.ctm_full_objective)
    api.fw_solve = _solver(rec, "solver.fw_solve", st.fw_solve)
    api.fw_solve_capped = _solver(rec, "solver.fw_solve_capped", st.fw_solve_capped)
    api.folding_in = _baseline(rec, "baselines.folding_in", st.folding_in)
    api.vb_infer = _baseline(rec, "baselines.vb_infer", st.vb_infer)
    api.evaluate_inference = rec.wrap("evaluation.evaluate_inference", st.evaluate_inference)
    api.train = train
    return api


@contextlib.contextmanager
def installed(rec: Recorder):
    """Timing wrappers at the names modules import from one another,
    removed again on exit."""
    from sparsetopics import baselines, corpus_io, evaluation, objectives, training

    real_ml = objectives.MlObjective

    def ml_init(document, topics):
        return rec.span("objectives.MlObjective.init", real_ml, document, topics)

    def ml_traced(document, topics):
        rec.set_doc(document)
        return TracedObjective(ml_init(document, topics), rec)

    def e_step(real):
        def call(*args, **kwargs):
            rec.step += 1
            return rec.span("training.e_step", real, *args, **kwargs)

        return call

    def validate(real):
        return rec.wrap("core.validate_topic_matrix", real)

    # (module, name, original -> replacement)
    patches = [
        (corpus_io, "validate_topic_matrix", validate),
        (objectives, "validate_topic_matrix", validate),
        (objectives, "MlObjective", lambda _: ml_init),
        (training, "MlObjective", lambda _: ml_traced),
        (training, "fw_solve", lambda real: _solver(rec, "solver.fw_solve", real)),
        (training, "TopicMatrix",
         lambda real: types.SimpleNamespace(normalized=rec.wrap("training.normalize", real.normalized))),
        (training, "_e_step_range", e_step),
        (evaluation, "MlObjective", lambda _: ml_traced),
        (baselines, "MlObjective", lambda _: ml_traced),
    ]
    saved = []
    try:
        for module, name, replace in patches:
            original = getattr(module, name, None)
            if original is not None:
                saved.append((module, name, original))
                setattr(module, name, replace(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  BENCHMARK.json lists the same names.
_LOADS = "setup_s on heldout-converged and train-em"
_PER_DOC = "solve_rel on sparse-k1000 and train-em; not heldout-converged"
_FW_LOOP = "solve_rel and doc_p50_rel (and the printed doc_tail_ms) on heldout-converged, solve_rel on train-em; barely sparse-k1000"
_TRAIN = "solve_rel (and the printed em_step_s) on train-em"
LAYERS = {
    "corpus_io.load_uci_bow.s": ("s", "lower", _LOADS),
    "corpus_io.load_uci_bow.triples_per_s": ("1/s", "higher", _LOADS),
    "corpus_io.load_model.s": ("s", "lower", "setup_s and peak_rss_mb on sparse-k1000"),
    "corpus_io.load_prior.s": ("s", "lower", "setup_s on ctm-capped"),
    "corpus_io.write_theta.s": ("s", "lower", "the printed wall_s on sparse-k1000"),
    "corpus_io.save_model.s": ("s", "lower", "the printed wall_s on train-em"),
    "core.validate_topic_matrix.calls": ("count", "lower", _PER_DOC),
    "core.validate_topic_matrix.s": ("s", "lower", _PER_DOC),
    "objectives.MlObjective.init.calls": ("count", "lower", _PER_DOC),
    "objectives.MlObjective.init.s": ("s", "lower", _PER_DOC),
    "objectives.value.calls": ("count", "lower", _FW_LOOP),
    "objectives.value.s": ("s", "lower", _FW_LOOP),
    "objectives.gradient.calls": ("count", "lower", _FW_LOOP),
    "objectives.gradient.s": ("s", "lower", _FW_LOOP),
    "objectives.line_restriction.s": ("s", "lower", _FW_LOOP),
    "objectives.dg.calls": ("count", "lower", _FW_LOOP),
    "objectives.dg.s": ("s", "lower", _FW_LOOP),
    "objectives.dg_per_step": ("ratio", "lower", _FW_LOOP),
    "objectives.penalty.gradient.s": ("s", "lower", "solve_rel on ctm-capped only"),
    "objectives.penalty.dg.s": ("s", "lower", "solve_rel on ctm-capped only"),
    "solver.start.s": ("s", "lower", "solve_rel on sparse-k1000"),
    "solver.start.value_calls": ("count", "lower", "solve_rel on sparse-k1000"),
    "solver.self_s": ("s", "lower", "solve_rel on heldout-converged and ctm-capped"),
    "solver.iterations": ("count", "lower", "solve_rel on every workload, at equal fw_gap_rel (printed)"),
    "solver.mean_nnz": ("count", "lower", "perplexity on sparse-k1000"),
    "solver.zero_steps": ("count", "lower", "solve_rel on heldout-converged and train-em"),
    "solver.useful_step_ratio": ("ratio", "higher", "solve_rel on heldout-converged and train-em"),
    "baselines.folding_in.s": ("s", "lower", "folding_docs_per_s (printed, not gated) on heldout-converged"),
    "baselines.folding_in.iterations": ("count", "lower", "folding_docs_per_s (printed, not gated) on heldout-converged"),
    "baselines.vb_infer.s": ("s", "lower", "vb_docs_per_s (printed, not gated) on heldout-converged"),
    "baselines.vb_infer.iterations": ("count", "lower", "vb_docs_per_s (printed, not gated) on heldout-converged"),
    "training.e_step.s": ("s", "lower", _TRAIN),
    "training.m_step.s": ("s", "lower", _TRAIN),
    "training.ll_pass.s": ("s", "lower", _TRAIN),
    "training.em_steps": ("count", "lower", _TRAIN),
    "evaluation.evaluate_inference.self_s": ("s", "lower", "the printed wall_s on heldout-converged"),
    "trace.overhead_s": ("s", "lower", "none: the cost of tracing itself"),
}

# Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("objectives.dg.calls", "solver.iterations", "solver.start.value_calls", "training.em_steps")


def layer_metrics(rec: Recorder, triples: int) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) for one traced pass.  Times are
    totals over the pass; a layer the workload does not reach reads 0."""
    a = rec.arrays()
    name = np.array(rec.names, dtype=object)[a["name"]]
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time

    def spans(n):
        return name == n

    def total(n, values=dur):
        mask = spans(n)
        return float(values[mask].sum()), int(mask.sum())

    out = {}
    for key, span_name in (
        ("corpus_io.load_uci_bow.s", "corpus_io.load_uci_bow"),
        ("corpus_io.load_model.s", "corpus_io.load_model"),
        ("corpus_io.load_prior.s", "corpus_io.load_prior"),
        ("corpus_io.write_theta.s", "corpus_io.write_theta"),
        ("corpus_io.save_model.s", "corpus_io.save_model"),
        ("core.validate_topic_matrix.s", "core.validate_topic_matrix"),
        ("objectives.MlObjective.init.s", "objectives.MlObjective.init"),
        ("objectives.value.s", "objectives.value"),
        ("objectives.gradient.s", "objectives.gradient"),
        ("objectives.line_restriction.s", "objectives.line_restriction"),
        ("objectives.dg.s", "objectives.dg"),
        ("objectives.penalty.gradient.s", "objectives.penalty.gradient"),
        ("objectives.penalty.dg.s", "objectives.penalty.dg"),
        ("baselines.folding_in.s", "baselines.folding_in"),
        ("baselines.vb_infer.s", "baselines.vb_infer"),
    ):
        out[key] = total(span_name)
    for key in ("core.validate_topic_matrix", "objectives.MlObjective.init", "objectives.value",
                "objectives.gradient", "objectives.dg"):
        n = int(spans(key).sum())
        out[key + ".calls"] = (n, n)
    load_s, loads = out["corpus_io.load_uci_bow.s"]
    out["corpus_io.load_uci_bow.triples_per_s"] = (loads * triples / load_s if load_s > 0 else 0.0, loads)

    solver_mask = np.isin(name, SOLVER_SPANS)
    solver_idx = np.flatnonzero(solver_mask)
    out["solver.self_s"] = (float(self_time[solver_mask].sum()), solver_idx.size)
    in_solver = has_parent & np.isin(parent, solver_idx)
    first_grad = np.full(dur.size, np.iinfo(np.int64).max)
    grads = np.flatnonzero(in_solver & spans("objectives.gradient"))
    np.minimum.at(first_grad, parent[grads], grads)
    idx = np.arange(dur.size)
    start_values = in_solver & spans("objectives.value")
    start_values[start_values] = idx[start_values] < first_grad[parent[start_values]]
    out["solver.start.s"] = (float(dur[start_values].sum()), int(start_values.sum()))
    out["solver.start.value_calls"] = (int(start_values.sum()), int(start_values.sum()))

    solves = np.array(rec.solves, dtype=np.int64).reshape(-1, 3)
    iterations = int(solves[:, 0].sum())
    zero = int(solves[:, 2].sum())
    n_solves = len(solves)
    out["solver.iterations"] = (iterations, n_solves)
    out["solver.mean_nnz"] = (float(solves[:, 1].mean()) if n_solves else 0.0, n_solves)
    out["solver.zero_steps"] = (zero, iterations)
    out["solver.useful_step_ratio"] = ((iterations - zero) / iterations if iterations else 0.0, iterations)
    dg_calls = out["objectives.dg.calls"][0]
    out["objectives.dg_per_step"] = (dg_calls / iterations if iterations else 0.0, iterations)

    for key in ("baselines.folding_in", "baselines.vb_infer"):
        out[key + ".iterations"] = (rec.baseline_iterations[key], out[key + ".s"][1])

    e_s = m_s = ll_s = 0.0
    em_steps = 0
    for t in np.flatnonzero(spans("training.train")):
        kids = np.flatnonzero(parent == t)
        e_kids = [i for i in kids if name[i] == "training.e_step"]
        if not e_kids:
            continue
        m_kids = [i for i in kids if name[i] == "training.normalize" and a["start"][i] > a["start"][e_kids[0]]]
        e_s += float(dur[e_kids].sum())
        m_s += float(self_time[m_kids].sum())
        em_steps += len(m_kids)
        for m in m_kids:
            later = [a["start"][i] for i in e_kids if a["start"][i] > a["end"][m]]
            ll_s += (min(later) if later else a["end"][t]) - a["end"][m]
    out["training.e_step.s"] = (e_s, int(spans("training.e_step").sum()))
    out["training.m_step.s"] = (m_s, em_steps)
    out["training.ll_pass.s"] = (ll_s, em_steps)
    out["training.em_steps"] = (em_steps, em_steps)
    out["evaluation.evaluate_inference.self_s"] = total("evaluation.evaluate_inference", self_time)
    return out
