"""File formats: UCI-style bag-of-words corpora, plain-text topic models,
precision-matrix files, and the CSV reports.

The model format stores floats with %.17g so a save/load cycle reproduces
every entry bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np

from .core import Corpus, Document, TopicMatrix, Vocabulary, validate_topic_matrix
from .errors import (
    CorpusBoundsError,
    CorpusFormatError,
    InvalidArgumentError,
    ModelFormatError,
    UnsupportedVersionError,
)
from .objectives import CtmPrior

MODEL_MAGIC = "sparsetopics-model"
MODEL_VERSION = 1


def load_uci_bow(docword_path, vocab_path=None) -> Corpus:
    """Read a bag-of-words file: three header lines (documents, vocabulary
    size, number of triples) followed by 1-based "docID wordID count"
    triples.  Documents that end up empty are dropped with a warning.

    Without a vocabulary file, terms are named w1..wW.
    """
    lines = Path(docword_path).read_text().splitlines()

    def parse_int(line_no, text, what):
        try:
            return int(text)
        except ValueError:
            raise CorpusFormatError(f"expected an integer {what}, got {text!r}", line_no) from None

    if len(lines) < 3:
        raise CorpusFormatError("file has fewer than three header lines")
    num_docs = parse_int(1, lines[0].strip(), "document count")
    vocab_size = parse_int(2, lines[1].strip(), "vocabulary size")
    num_triples = parse_int(3, lines[2].strip(), "triple count")
    if num_docs < 1 or num_triples < 1:
        raise CorpusFormatError("no documents")
    if vocab_size < 1:
        raise CorpusFormatError("vocabulary size must be positive", 2)

    entries = [dict() for _ in range(num_docs)]
    seen = 0
    for line_no, raw in enumerate(lines[3:], start=4):
        text = raw.strip()
        if not text:
            continue
        seen += 1
        if seen > num_triples:
            raise CorpusFormatError(
                f"more than the declared {num_triples} triples", line_no
            )
        parts = text.split()
        if len(parts) != 3:
            raise CorpusFormatError(f"expected 'docID wordID count', got {text!r}", line_no)
        doc_id = parse_int(line_no, parts[0], "document id")
        word_id = parse_int(line_no, parts[1], "word id")
        try:
            count = float(parts[2])
        except ValueError:
            raise CorpusFormatError(f"expected a numeric count, got {parts[2]!r}", line_no) from None
        if not (1 <= doc_id <= num_docs):
            raise CorpusBoundsError(
                f"document id {doc_id} outside 1..{num_docs}", line_no
            )
        if not (1 <= word_id <= vocab_size):
            raise CorpusBoundsError(
                f"word id {word_id} outside 1..{vocab_size}", line_no
            )
        if not (count > 0) or not np.isfinite(count):
            raise CorpusFormatError(f"count must be positive, got {parts[2]}", line_no)
        bucket = entries[doc_id - 1]
        bucket[word_id - 1] = bucket.get(word_id - 1, 0.0) + count
    if seen != num_triples:
        raise CorpusFormatError(f"declared {num_triples} triples but found {seen}")

    if vocab_path is None:
        vocab = Vocabulary(tuple(f"w{j}" for j in range(1, vocab_size + 1)))
    else:
        terms = Path(vocab_path).read_text().splitlines()
        while terms and not terms[-1].strip():
            terms.pop()
        if len(terms) != vocab_size:
            raise CorpusFormatError(
                f"vocabulary file has {len(terms)} terms but the corpus declares {vocab_size}"
            )
        vocab = Vocabulary(tuple(t.strip() for t in terms))

    documents = []
    dropped = 0
    for bucket in entries:
        if not bucket:
            dropped += 1
            continue
        documents.append(Document.from_pairs(bucket.items()))
    if dropped:
        warnings.warn(f"dropped {dropped} empty document(s)")
    if not documents:
        raise CorpusFormatError("no documents")
    return Corpus(vocab, tuple(documents))


@dataclasses.dataclass(frozen=True)
class ModelFile:
    topics: TopicMatrix
    version: int
    metadata: dict | None = None


def save_model(path, topics: TopicMatrix, metadata: dict | None = None) -> None:
    problems = validate_topic_matrix(topics)
    if problems:
        raise InvalidArgumentError("refusing to save an invalid model: " + "; ".join(problems))
    with open(path, "w") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        fh.write(f"{topics.num_topics} {topics.vocab_size}\n")
        if metadata is not None:
            fh.write("meta " + json.dumps(metadata) + "\n")
        for row in topics.rows:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_model(path) -> ModelFile:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise ModelFormatError("missing model header")
    try:
        version = int(header[1])
    except ValueError:
        raise ModelFormatError(f"bad version field {header[1]!r}") from None
    if version != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"model version {version} is not supported (this reader handles {MODEL_VERSION})"
        )
    if len(lines) < 2:
        raise ModelFormatError("missing dimensions line")
    dims = lines[1].split()
    if len(dims) != 2:
        raise ModelFormatError("dimensions line must hold two integers")
    try:
        k, v = int(dims[0]), int(dims[1])
    except ValueError:
        raise ModelFormatError("dimensions line must hold two integers") from None
    if k < 1 or v < 1:
        raise ModelFormatError("dimensions must be positive")
    body = 2
    metadata = None
    if body < len(lines) and lines[body].startswith("meta "):
        try:
            metadata = json.loads(lines[body][5:])
        except json.JSONDecodeError:
            raise ModelFormatError("bad metadata json") from None
        body += 1
    rows = []
    for r in range(k):
        idx = body + r
        if idx >= len(lines) or not lines[idx].strip():
            raise ModelFormatError(f"model file ends early: expected {k} rows, found {r}")
        parts = lines[idx].split()
        if len(parts) != v:
            raise ModelFormatError(f"row {r} has {len(parts)} entries, expected {v}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise ModelFormatError(f"row {r} holds a non-numeric entry") from None
    topics = TopicMatrix(np.array(rows))
    problems = validate_topic_matrix(topics)
    if problems:
        raise ModelFormatError("invalid topic matrix: " + "; ".join(problems))
    return ModelFile(topics=topics, version=version, metadata=metadata)


def load_prior(path) -> CtmPrior:
    """Read a precision matrix from whitespace-separated text: K rows of K
    numbers, optionally followed by one more row holding the mean."""
    rows = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            rows.append(([float(x) for x in text.split()], line_no))
        except ValueError:
            raise CorpusFormatError("non-numeric entry in prior file", line_no) from None
    if not rows:
        raise CorpusFormatError("empty prior file")
    k = len(rows[0][0])
    for values, line_no in rows:
        if len(values) != k:
            raise CorpusFormatError(f"expected {k} numbers per row", line_no)
    if len(rows) == k:
        mean = None
    elif len(rows) == k + 1:
        mean = np.array(rows[k][0])
    else:
        raise CorpusFormatError(
            f"prior file must hold {k} rows (precision) or {k + 1} (precision plus mean), "
            f"found {len(rows)}"
        )
    precision = np.array([values for values, _ in rows[:k]])
    return CtmPrior(precision=precision, mean=mean)


def save_uci_bow(path, corpus: Corpus) -> None:
    """Write a corpus in the bag-of-words format load_uci_bow reads."""
    triples = []
    for m, doc in enumerate(corpus.documents, start=1):
        for term_id, count in zip(doc.term_ids, doc.counts):
            triples.append((m, int(term_id) + 1, float(count)))
    with open(path, "w") as fh:
        fh.write(f"{len(corpus.documents)}\n{corpus.vocabulary.size}\n{len(triples)}\n")
        for doc_id, word_id, count in triples:
            fh.write(f"{doc_id} {word_id} {count:.17g}\n")


def save_vocab(path, vocab: Vocabulary) -> None:
    with open(path, "w") as fh:
        for term in vocab.terms:
            fh.write(term + "\n")


def write_proportions(path, points, doc_ids=None) -> None:
    """One line per document: a 1-based document id, then 1-based
    "topic:weight" entries over the support."""
    with open(path, "w") as fh:
        for m, point in enumerate(points):
            doc_id = doc_ids[m] if doc_ids is not None else m + 1
            cells = [
                f"{int(t) + 1}:{w:.17g}"
                for t, w in zip(point.topic_ids, point.weights)
            ]
            fh.write(" ".join([str(doc_id)] + cells) + "\n")


def write_theta(path, reports, doc_ids=None) -> None:
    write_proportions(path, [r.theta for r in reports], doc_ids)


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "nnz", "vertex", "alpha"])
        for r in trace:
            writer.writerow([r.iteration, f"{r.objective:.17g}", r.nnz, r.vertex, f"{r.alpha:.17g}"])


def write_likelihood_csv(path, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "log_likelihood"])
        for i, value in enumerate(values):
            writer.writerow([i + 1, f"{value:.17g}"])


def write_eval_rows(fh, results) -> None:
    writer = csv.writer(fh)
    writer.writerow(["method", "cap", "perplexity", "sparsity", "mean_nnz", "seconds"])
    for res in results:
        rep = res.report
        writer.writerow(
            [
                res.method,
                res.cap,
                f"{rep.perplexity:.12g}",
                f"{rep.mean_sparsity:.12g}",
                f"{rep.mean_nnz:.12g}",
                f"{rep.total_seconds:.6f}",
            ]
        )


def write_eval_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        write_eval_rows(fh, results)
