"""Output checks, the duality-gap certificate, and the seed reference.

Every check here uses the benchmark's own numpy code or the package's
public objective gradient, so a faster solver cannot quietly return a
worse answer: the Frank-Wolfe gap max_s grad . (s - theta) bounds the
suboptimality of every returned point (Jaggi 2013, "Revisiting
Frank-Wolfe", ICML).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
# Capped iterates are convex combinations of feasible points followed by
# one renormalisation, so theta_k may exceed cap_k by rounding only.
CAP_SLACK = 1e-12
# Own perplexity against the package's EvalReport: same formula, another
# summation order.
PERPLEXITY_SELF_TOL = 1e-12
# Against the recorded reference.  A different correct solver stopped at
# the same rel_tol (1e-6 on the objective) moves perplexity and the EM
# log-likelihood by about 1e-6 relative; 1e-5 leaves room for that and
# still catches a solver that stops early or converges elsewhere.
REFERENCE_REL_TOL = 1e-5


def theta_problems(report, num_topics: int, vertex_start: bool, max_nnz, caps) -> list[str]:
    """Problems with one returned point; an empty list means it passed."""
    ids = np.asarray(report.theta.topic_ids)
    w = np.asarray(report.theta.weights)
    problems = []
    if not np.all(np.isfinite(w)):
        problems.append("non-finite weight")
    if np.any(w < 0):
        problems.append("negative weight")
    if abs(float(w.sum()) - 1.0) > SUM_TOL:
        problems.append(f"weights sum to {float(w.sum())!r}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_topics):
        problems.append("topic id out of range")
    if vertex_start and report.nnz > report.iterations + 1:
        problems.append(f"nnz {report.nnz} > iterations {report.iterations} + 1")
    if max_nnz is not None and report.nnz > max_nnz:
        problems.append(f"nnz {report.nnz} > cap {max_nnz}")
    if caps is not None and np.any(w > caps[ids] * (1.0 + CAP_SLACK)):
        problems.append("weight above its cap")
    return problems


def same_points(a, b) -> bool:
    """Bitwise equality of two lists of reports' points."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.theta.topic_ids.tobytes() != y.theta.topic_ids.tobytes()
            or x.theta.weights.tobytes() != y.theta.weights.tobytes()
        ):
            return False
    return True


def fw_gap_rel(docs, make_objective, points, caps, capped_argmax) -> tuple[float, float]:
    """Median and mean over documents of the Frank-Wolfe gap divided by |d|.

    The linear maximiser is a vertex on the simplex and the package's
    capped_simplex_argmax on the capped simplex.  Under a support cap the
    mean is set by the few documents whose support misses a topic, so the
    median is the steadier summary.
    """
    gaps = []
    for doc, theta in zip(docs, points):
        grad = make_objective(doc).gradient(theta)
        if caps is None:
            best = float(grad.max())
        else:
            best = float(grad @ capped_argmax(grad, caps))
        gaps.append((best - float(grad @ theta)) / doc.length)
    return float(np.median(gaps)), float(np.mean(gaps))


def own_perplexity(docs, topic_rows: np.ndarray, points) -> float:
    """exp(-sum_d sum_j c_j log(theta . beta_:j) / sum_d |d|), computed
    here rather than by the package."""
    total_log = 0.0
    total_len = 0.0
    for doc, theta in zip(docs, points):
        p = theta @ topic_rows[:, doc.term_ids]
        total_log += float(doc.counts @ np.log(p))
        total_len += float(doc.counts.sum())
    return math.exp(-total_log / total_len)


def em_monotone(trace) -> bool:
    return all(b >= a for a, b in zip(trace, trace[1:]))


class Reference:
    """Reference values per (size, workload, seed).

    The checked-in file holds values recorded from the current code for a
    range of seeds.  For a seed it does not hold, the first run in a
    checkout records the values beside its inputs and later runs check
    against them; the result says which of the two was used.
    """

    def __init__(self, checked_in: Path, local: Path, size: str, workload: str, seed: int):
        self.local = local
        self.source = "none"
        self.values = None
        try:
            table = json.loads(checked_in.read_text())
            self.values = table[size][workload][str(seed)]
            self.source = "checked-in"
        except (OSError, ValueError, KeyError):
            try:
                self.values = json.loads(local.read_text())
                self.source = "recorded-earlier"
            except (OSError, ValueError):
                pass

    def check(self, measured: dict) -> list[str]:
        """Compare measured values; with nothing to compare, record them."""
        if self.values is None:
            self.local.write_text(json.dumps(measured, sort_keys=True))
            self.source = "recorded-now"
            return []
        problems = []
        for name, want in self.values.items():
            got = measured.get(name)
            if got is None:
                problems.append(f"reference {name}: not measured")
            elif isinstance(want, int):
                if got != want:
                    problems.append(f"reference {name}: {got} != {want}")
            elif abs(got - want) > REFERENCE_REL_TOL * abs(want):
                problems.append(f"reference {name}: {got!r} vs {want!r}")
        return problems
