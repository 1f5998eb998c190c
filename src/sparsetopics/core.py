"""Core data model: vocabularies, documents, topic matrices, simplex points.

Counts are real-valued throughout (fractional weights are legal), and all
probability vectors tolerate a drift of SIMPLEX_TOL from exact normalization.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
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


@dataclasses.dataclass(frozen=True)
class Vocabulary:
    """Ordered collection of distinct term strings; ids are positions."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidArgumentError("vocabulary must contain at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise InvalidArgumentError("vocabulary terms must be distinct")

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @property
    def size(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def id_of(self, term: str) -> int:
        try:
            return self.index[term]
        except KeyError:
            raise InvalidArgumentError(f"unknown term: {term!r}") from None


@dataclasses.dataclass(frozen=True)
class Document:
    """Sparse bag of term counts.

    term_ids are strictly increasing, counts strictly positive, and the
    document is never empty.
    """

    term_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.term_ids, dtype=np.int64)
        cnt = np.asarray(self.counts, dtype=np.float64)
        if ids.ndim != 1 or cnt.ndim != 1 or ids.shape != cnt.shape:
            raise InvalidArgumentError("term_ids and counts must be 1-d and equal length")
        if ids.size == 0:
            raise InvalidArgumentError("document has no entries")
        if ids.min() < 0:
            raise InvalidArgumentError("negative term id")
        if np.any(np.diff(ids) <= 0):
            raise InvalidArgumentError("term ids must be strictly increasing")
        if not np.all(np.isfinite(cnt)) or np.any(cnt <= 0):
            raise InvalidArgumentError("counts must be finite and positive")
        object.__setattr__(self, "term_ids", _as_readonly(ids))
        object.__setattr__(self, "counts", _as_readonly(cnt))

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
    """A vocabulary plus at least one document with in-range term ids."""

    vocabulary: Vocabulary
    documents: tuple[Document, ...]

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        if not self.documents:
            raise InvalidArgumentError("corpus must contain at least one document")
        v = self.vocabulary.size
        for m, doc in enumerate(self.documents):
            if doc.term_ids[-1] >= v:
                raise InvalidArgumentError(
                    f"document {m} references term id {int(doc.term_ids[-1])} "
                    f"but the vocabulary has {v} terms"
                )

    @property
    def size(self) -> int:
        return len(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


@dataclasses.dataclass(frozen=True)
class TopicMatrix:
    """Row-stochastic matrix of term distributions, one row per topic.

    The constructor only checks shape; use validate_topic_matrix (or its
    cached result, problems) for a diagnosis, or TopicMatrix.normalized to
    build a guaranteed-valid one.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidArgumentError("topic matrix must be 2-d and non-empty")
        object.__setattr__(self, "rows", _as_readonly(rows))

    @classmethod
    def _adopt(cls, rows: np.ndarray) -> "TopicMatrix":
        """A TopicMatrix that takes over rows without the constructor's
        copy.  For load_model only: rows is a non-empty 2-d C-contiguous
        float64 array it has just parsed and keeps no other reference to."""
        rows.setflags(write=False)
        topics = object.__new__(cls)
        object.__setattr__(topics, "rows", rows)
        return topics

    @classmethod
    def normalized(cls, raw: np.ndarray, floor: float = EPS_BETA) -> "TopicMatrix":
        """Floor entries at `floor`, then renormalize each row to sum to one."""
        rows = np.asarray(raw, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidArgumentError("topic matrix must be 2-d")
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            raise InvalidArgumentError("topic weights must be finite and nonnegative")
        sums = rows.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise InvalidArgumentError("every topic row needs positive mass")
        # The floor applies on the probability scale, so normalize first.
        rows = np.maximum(rows / sums, floor)
        rows = rows / rows.sum(axis=1, keepdims=True)
        # That division drags floored entries a hair below the floor; clip
        # again (the row-sum drift is far inside SIMPLEX_TOL).
        rows = np.maximum(rows, floor)
        return cls(rows)

    @property
    def num_topics(self) -> int:
        return int(self.rows.shape[0])

    @property
    def vocab_size(self) -> int:
        return int(self.rows.shape[1])

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """validate_topic_matrix's findings, computed on first use only:
        the rows are read-only."""
        return tuple(validate_topic_matrix(self))


def validate_topic_matrix(topics: TopicMatrix) -> list[str]:
    """Return human-readable violations ('positivity ...', 'row-sum ...');
    empty list means the matrix is valid."""
    rows = topics.rows
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
        ids = np.asarray(self.topic_ids, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        if ids.ndim != 1 or w.ndim != 1 or ids.shape != w.shape:
            raise InvalidArgumentError("topic_ids and weights must be 1-d and equal length")
        if ids.size == 0:
            raise InvalidArgumentError("proportion must have at least one entry")
        if ids.min() < 0:
            raise InvalidArgumentError("negative topic id")
        if np.any(np.diff(ids) <= 0):
            raise InvalidArgumentError("topic ids must be strictly increasing")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidArgumentError("weights must be finite and positive")
        if abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise InvalidArgumentError(f"weights sum to {w.sum():.12g}, not 1")
        object.__setattr__(self, "topic_ids", _as_readonly(ids))
        object.__setattr__(self, "weights", _as_readonly(w))

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


def simplex_barycenter(num_topics: int) -> TopicProportion:
    """Uniform point (1/K, ..., 1/K)."""
    if num_topics < 1:
        raise InvalidArgumentError("need at least one topic")
    return TopicProportion(
        np.arange(num_topics, dtype=np.int64),
        np.full(num_topics, 1.0 / num_topics),
    )


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Knobs for the simplex solver.

    max_nnz, when set, caps the support size of the result by limiting the
    iteration count (vertex starts add at most one coordinate per step);
    fw_solve refuses it when the start point already has more nonzeros,
    and max_nnz >= K caps nothing.
    """

    max_iters: int = 1000
    rel_tol: float = 1e-6
    max_nnz: int | None = None
    start: str = START_BEST_VERTEX
    line_search_tol: float = 1e-10
    line_search_max_steps: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be at least 1")
        if not (self.rel_tol > 0):
            raise InvalidConfigError("rel_tol must be positive")
        if self.max_nnz is not None and self.max_nnz < 1:
            raise InvalidConfigError("max_nnz must be at least 1 when set")
        if self.start not in _STARTS:
            raise InvalidConfigError(f"start must be one of {_STARTS}")
        if not (self.line_search_tol > 0):
            raise InvalidConfigError("line_search_tol must be positive")
        if self.line_search_max_steps < 1:
            raise InvalidConfigError("line_search_max_steps must be at least 1")


def converged(previous: float, current: float, tol: float) -> bool:
    """The stopping rule of every iterative method here: the change from
    previous to current is below tol relative to |previous|, or below tol
    itself once |previous| is under 1e-12."""
    denom = abs(previous)
    delta = abs(current - previous)
    return (delta < tol * denom) or (denom < 1e-12 and delta < tol)


@dataclasses.dataclass(frozen=True)
class InferenceReport:
    """Outcome of a single-document inference run."""

    theta: TopicProportion
    iterations: int
    objective: float
    seconds: float
    nnz: int

    def __post_init__(self):
        if self.nnz != self.theta.nnz:
            raise InvalidArgumentError("nnz does not match the support of theta")
        if self.iterations < 0:
            raise InvalidArgumentError("iterations must be nonnegative")
