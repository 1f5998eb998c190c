"""Core data model: vocabularies, documents, topic matrices, simplex points.

Counts are real-valued throughout (fractional weights are legal), and all
probability vectors tolerate a drift of SIMPLEX_TOL from exact normalization.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigError

# Positivity floor applied to topic rows: every probability is at least this.
EPS_BETA = 1e-10

# Allowed drift of any probability vector from summing to one.
SIMPLEX_TOL = 1e-9

START_BEST_VERTEX = "best-vertex"
START_BARYCENTER = "barycenter"
_STARTS = (START_BEST_VERTEX, START_BARYCENTER)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    if out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


def _sparse_entries(ids, values, kind: str, what: str, empty: str):
    """Read-only int64 ids and float64 values of a sparse vector: 1-d, of
    equal length, nonempty, ids non-negative and strictly increasing, values
    finite and positive.  kind and what name the ids and the values."""
    ids = np.asarray(ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if ids.ndim != 1 or values.ndim != 1 or ids.shape != values.shape:
        raise InvalidArgumentError(f"{kind}_ids and {what} must be 1-d and equal length")
    if ids.size == 0:
        raise InvalidArgumentError(empty)
    # Three passes clear a valid vector (min propagates NaN); one they fail
    # is checked again one condition at a time.
    if not (ids[0] >= 0 and (ids[1:] > ids[:-1]).all() and values.min() > 0 and values.max() < np.inf):
        if ids.min() < 0:
            raise InvalidArgumentError(f"negative {kind} id")
        if np.any(np.diff(ids) <= 0):
            raise InvalidArgumentError(f"{kind} ids must be strictly increasing")
        raise InvalidArgumentError(f"{what} must be finite and positive")
    return _as_readonly(ids), _as_readonly(values)


@dataclasses.dataclass(frozen=True)
class Vocabulary:
    """Ordered collection of distinct term strings; ids are positions."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidArgumentError("vocabulary must contain at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise InvalidArgumentError("vocabulary terms must be distinct")

    @property
    def size(self) -> int:
        return len(self.terms)


@dataclasses.dataclass(frozen=True)
class Document:
    """Sparse bag of term counts.

    term_ids are strictly increasing, counts strictly positive with a
    finite sum, and the document is never empty.
    """

    term_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        ids, cnt = _sparse_entries(self.term_ids, self.counts, "term", "counts", "document has no entries")
        with np.errstate(over="ignore"):  # finite counts can sum past the largest float
            if cnt.sum() == np.inf:
                raise InvalidArgumentError("counts sum to inf")
        object.__setattr__(self, "term_ids", ids)
        object.__setattr__(self, "counts", cnt)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "Document":
        pairs = sorted(pairs)
        ids = [p[0] for p in pairs]
        cnt = [p[1] for p in pairs]
        return cls(np.array(ids, dtype=np.int64), np.array(cnt, dtype=np.float64))

    @classmethod
    def from_dense(cls, counts: Sequence[float]) -> "Document":
        v = np.asarray(counts, dtype=np.float64)
        ids = np.flatnonzero(v)
        return cls(ids.astype(np.int64), v[ids])

    @property
    def length(self) -> float:
        """Total token mass, i.e. the sum of counts."""
        return float(self.counts.sum())

    @property
    def nnz(self) -> int:
        return int(self.term_ids.size)


@dataclasses.dataclass(frozen=True)
class Corpus:
    """A vocabulary plus at least one document with in-range term ids.

    doc_ids are the documents' 1-based ids in the file they were read
    from, which skip the empty documents the loader drops; 1..M when not
    given.  They must be positive and strictly increasing, because
    save_uci_bow writes each document under its id."""

    vocabulary: Vocabulary
    documents: tuple[Document, ...]
    doc_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        if not self.documents:
            raise InvalidArgumentError("corpus must contain at least one document")
        ids = range(1, len(self.documents) + 1) if self.doc_ids is None else self.doc_ids
        object.__setattr__(self, "doc_ids", tuple(int(i) for i in ids))
        if len(self.doc_ids) != len(self.documents):
            raise InvalidArgumentError("need one document id per document")
        if self.doc_ids[0] < 1 or any(b <= a for a, b in zip(self.doc_ids, self.doc_ids[1:])):
            raise InvalidArgumentError("document ids must be positive and strictly increasing")
        v = self.vocabulary.size
        for m, doc in enumerate(self.documents):
            if doc.term_ids[-1] >= v:
                raise InvalidArgumentError(
                    f"document {m} references term id {int(doc.term_ids[-1])} "
                    f"but the vocabulary has {v} terms"
                )


@dataclasses.dataclass(frozen=True)
class TopicMatrix:
    """Row-stochastic matrix of term distributions, one row per topic.

    rows is a read-only column-major (Fortran-order) copy, so that a
    document's K x |d| slab rows[:, term_ids] is |d| contiguous reads.

    The constructor refuses rows that validate_topic_matrix(rows) flags,
    with InvalidArgumentError; TopicMatrix.normalized builds a valid one
    from any nonnegative weights whose rows have positive mass.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64, order="F")
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidArgumentError("topic matrix must be 2-d and non-empty")
        problems = validate_topic_matrix(rows)
        if problems:
            raise InvalidArgumentError("invalid topic matrix: " + "; ".join(problems))
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _adopt(cls, rows: np.ndarray) -> "TopicMatrix":
        """A TopicMatrix that takes over rows without the constructor's
        copy and check.  For load_model only: rows is a valid F-contiguous
        float64 array it has just parsed or read from a sidecar and keeps
        no other reference to."""
        rows.setflags(write=False)
        topics = object.__new__(cls)
        object.__setattr__(topics, "rows", rows)
        return topics

    @classmethod
    def normalized(cls, raw: np.ndarray) -> "TopicMatrix":
        """Floor entries at EPS_BETA, then renormalize each row to sum to one."""
        rows = np.asarray(raw, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidArgumentError("topic matrix must be 2-d")
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            raise InvalidArgumentError("topic weights must be finite and nonnegative")
        sums = rows.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise InvalidArgumentError("every topic row needs positive mass")
        # The floor applies on the probability scale, so normalize first.
        rows = np.maximum(rows / sums, EPS_BETA)
        rows = rows / rows.sum(axis=1, keepdims=True)
        # That division drags floored entries a hair below the floor; clip
        # again (the row-sum drift is far inside SIMPLEX_TOL).
        rows = np.maximum(rows, EPS_BETA)
        return cls(rows)

    @property
    def num_topics(self) -> int:
        return int(self.rows.shape[0])

    @property
    def vocab_size(self) -> int:
        return int(self.rows.shape[1])


def validate_topic_matrix(rows: np.ndarray) -> list[str]:
    """Return the human-readable violations ('finite ...', 'positivity
    ...', 'row-sum ...') of a 2-d array of topic rows; an empty list
    means TopicMatrix accepts it."""
    rows = np.asarray(rows, dtype=np.float64)
    problems = []
    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(rows), axis=1))[0])
        problems.append(f"finite: row {bad} contains a non-finite entry")
    else:
        low = np.flatnonzero(np.any(rows < EPS_BETA, axis=1))
        for r in low:
            problems.append(f"positivity: row {int(r)} has an entry below {EPS_BETA:g}")
        sums = rows.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_TOL)
        for r in off:
            problems.append(f"row-sum: row {int(r)} sums to {sums[r]:.12g}")
    return problems


@dataclasses.dataclass(frozen=True)
class TopicProportion:
    """Sparse point on the topic simplex: strictly positive weights over a
    strictly increasing id support, summing to one."""

    topic_ids: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ids, w = _sparse_entries(
            self.topic_ids, self.weights, "topic", "weights", "proportion must have at least one entry"
        )
        with np.errstate(over="ignore"):  # finite weights can sum past the largest float
            total = w.sum()
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise InvalidArgumentError(f"weights sum to {total:.12g}, not 1")
        object.__setattr__(self, "topic_ids", ids)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_dense(cls, theta: np.ndarray) -> "TopicProportion":
        v = np.asarray(theta, dtype=np.float64)
        ids = np.flatnonzero(v > 0)
        return cls(ids.astype(np.int64), v[ids])

    def dense(self, num_topics: int) -> np.ndarray:
        if num_topics <= int(self.topic_ids[-1]):
            raise InvalidArgumentError("num_topics smaller than the largest topic id")
        out = np.zeros(num_topics, dtype=np.float64)
        out[self.topic_ids] = self.weights
        return out

    @property
    def nnz(self) -> int:
        return int(self.topic_ids.size)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Knobs for the simplex solver.

    max_nnz, when set, caps the support size of the result by limiting the
    iteration count (vertex starts add at most one coordinate per step);
    fw_solve refuses it when the start point already has more nonzeros,
    and max_nnz >= K caps nothing.  start None lets fw_solve derive the
    start from the region and the objective.
    """

    max_iters: int = 1000
    rel_tol: float = 1e-6
    max_nnz: int | None = None
    start: str | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be at least 1")
        if not (0 < self.rel_tol < np.inf):
            raise InvalidConfigError("rel_tol must be finite and positive")
        if self.max_nnz is not None and self.max_nnz < 1:
            raise InvalidConfigError("max_nnz must be at least 1 when set")
        if self.start is not None and self.start not in _STARTS:
            raise InvalidConfigError(f"start must be None or one of {_STARTS}")


def converged(previous: float, current: float, tol: float) -> bool:
    """The stopping rule of every iterative method here: the change from
    previous to current is at most tol relative to |previous|.  Scaling
    both values by the same factor never changes the verdict, and equal
    values (zero included) have converged."""
    return abs(current - previous) <= tol * abs(previous)


def sum_left_to_right(values) -> float:
    """values added left to right from 0.0, as sum() did before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


@dataclasses.dataclass(frozen=True)
class InferenceReport:
    """Outcome of a single-document inference run."""

    theta: TopicProportion
    iterations: int
    objective: float
    seconds: float

    def __post_init__(self):
        if self.iterations < 0:
            raise InvalidArgumentError("iterations must be nonnegative")

    @property
    def nnz(self) -> int:
        """Support size of theta."""
        return self.theta.nnz
