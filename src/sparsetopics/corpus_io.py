"""File formats: UCI-style bag-of-words corpora, plain-text topic models,
precision-matrix files, and the CSV reports.

The model format stores floats with %.17g so a save/load cycle reproduces
every entry bit for bit.  The corpus and model loaders stream their files:
numpy's C text reader parses the numbers, and a line-by-line walk runs only
to name the first bad line of a file it refused.  Every number in them,
header fields included, therefore follows numpy's grammar, which is
float()'s and int()'s without digit-group underscores or non-ASCII
digits, and lines end at \n, \r\n or \r only.

A model's rows are kept in a sidecar file next to it, under the SHA-256
of the model file's bytes: save_model writes it with the text, and a load
that had to parse the text writes it after.  A load of the same bytes
reads the rows from there instead of converting the decimal text again.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import stat
import warnings

import numpy as np

from .core import Corpus, Document, TopicMatrix, Vocabulary, validate_topic_matrix
from .errors import (
    CorpusBoundsError,
    CorpusFormatError,
    ModelFormatError,
    UnsupportedVersionError,
)
from .objectives import CtmPrior

MODEL_MAGIC = "sparsetopics-model"
MODEL_VERSION = 1


def _plain_number(text, kind):
    """kind(text) under numpy's grammar: ASCII only, no underscores."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return kind(text)


def _plain_int(text):
    return _plain_number(text, int)


def _parse_int(line_no, text, what):
    """_plain_int(text), so that the line walk refuses what numpy refuses
    and the header takes the numbers the body does."""
    try:
        return _plain_int(text)
    except ValueError:
        raise CorpusFormatError(f"expected an integer {what}, got {text!r}", line_no) from None


# One "docID wordID count" triple per row of numpy's reader.
_TRIPLE = np.dtype([("doc", np.int64), ("word", np.int64), ("count", np.float64)])


# Triple lines per np.loadtxt call; only a refused chunk's lines are walked.
_TRIPLES_PER_PARSE = 1 << 10


def _parse_triples(lines):
    """The chunk's triples in one C-level pass that skips blank lines, or
    None when the reader refuses a line."""
    if not any(line.strip() for line in lines):
        return np.empty(0, dtype=_TRIPLE)
    try:
        # numpy before 2.x parses a fractional id through a float, truncates
        # it and only warns; as an error the warning refuses the line.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=_TRIPLE, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


def _read_triples(lines, num_docs, vocab_size, num_triples):
    """Every remaining triple, parsed _TRIPLES_PER_PARSE lines at a time and
    checked: ids in range, counts positive, each document's running count
    sum finite, num_triples in all.  Each chunk's lines are kept, and a
    line-by-line walk of a refused chunk raises the error of its first bad
    line, the chunks before it passed."""
    parsed, seen, first_line = [], 0, 4
    totals = np.zeros(1)  # each document's running count sum, by id
    while chunk := list(itertools.islice(lines, _TRIPLES_PER_PARSE)):
        triples = _parse_triples(chunk)
        if triples is not None and seen + triples.size <= num_triples:
            doc, word, count = triples["doc"], triples["word"], triples["count"]
            if np.all((doc >= 1) & (doc <= num_docs) & (word >= 1) & (word <= vocab_size) & (count > 0)):
                if (top := int(doc.max(initial=0)) + 1) > totals.size:  # doubled, up to num_docs + 1
                    totals = np.append(totals, np.zeros(min(max(top, 2 * totals.size), num_docs + 1) - totals.size))
                # add.at sums in file order, as the walk does; an overflow reads inf.
                with np.errstate(over="ignore"):
                    np.add.at(totals, doc, count)
                if np.isfinite(totals[doc]).all():
                    parsed.append(triples)
                    seen += triples.size
                    first_line += len(chunk)
                    continue
        before = np.concatenate(parsed or [np.empty(0, dtype=_TRIPLE)])
        sums = dict(enumerate(np.bincount(before["doc"], before["count"]).tolist()))
        _raise_first_bad_triple(chunk, first_line, seen, sums, num_docs, vocab_size, num_triples)
    if seen != num_triples:
        raise CorpusFormatError(f"declared {num_triples} triples but found {seen}")
    return parsed[0] if len(parsed) == 1 else np.concatenate(parsed)


def _raise_first_bad_triple(lines, first_line, seen, totals, num_docs, vocab_size, num_triples):
    """Raise the error of the first bad line of a refused chunk, walking
    it line by line from line number first_line; seen and totals (each
    document's count sum by id) count the chunks before it."""
    for line_no, raw in enumerate(lines, start=first_line):
        text = raw.strip()
        if not text:
            continue
        seen += 1
        if seen > num_triples:
            raise CorpusFormatError(f"more than the declared {num_triples} triples", line_no)
        parts = text.split()
        if len(parts) != 3:
            raise CorpusFormatError(f"expected 'docID wordID count', got {text!r}", line_no)
        doc_id = _parse_int(line_no, parts[0], "document id")
        word_id = _parse_int(line_no, parts[1], "word id")
        try:
            count = _plain_number(parts[2], float)
        except ValueError:
            raise CorpusFormatError(f"expected a numeric count, got {parts[2]!r}", line_no) from None
        if not (1 <= doc_id <= num_docs):
            raise CorpusBoundsError(f"document id {doc_id} outside 1..{num_docs}", line_no)
        if not (1 <= word_id <= vocab_size):
            raise CorpusBoundsError(f"word id {word_id} outside 1..{vocab_size}", line_no)
        if not (count > 0) or not np.isfinite(count):
            raise CorpusFormatError(f"count must be positive, got {parts[2]}", line_no)
        totals[doc_id] = totals.get(doc_id, 0.0) + count
        if totals[doc_id] == math.inf:
            raise CorpusFormatError(f"the counts of document {doc_id} sum past the largest float", line_no)
    raise CorpusFormatError("triples that numpy's reader refuses")


def load_uci_bow(docword_path, vocab_path=None) -> Corpus:
    """Read a bag-of-words file: three header lines (documents, vocabulary
    size, number of triples) followed by 1-based "docID wordID count"
    triples.  Duplicate triples add up in file order; a document whose
    counts, so summed, pass the largest float is refused at the line where
    its sum overflows.  Documents that end up empty are dropped with a
    warning; the corpus's doc_ids keep the file ids of the others.

    Without a vocabulary file, terms are named w1..wW.
    """
    with open(docword_path) as fh:
        header = list(itertools.islice(fh, 3))
        fields = [
            _parse_int(line_no, text.strip(), what)
            for line_no, text, what in zip((1, 2, 3), header, ("document count", "vocabulary size", "triple count"))
        ]
        if len(fields) < 3:
            raise CorpusFormatError("file has fewer than three header lines", len(fields) + 1)
        num_docs, vocab_size, num_triples = fields
        if num_docs < 1 or num_triples < 1:
            raise CorpusFormatError("no documents", 1 if num_docs < 1 else 3)
        if vocab_size < 1:
            raise CorpusFormatError("vocabulary size must be positive", 2)
        triples = _read_triples(fh, num_docs, vocab_size, num_triples)
    # No document's running count sum overflowed, so no pair's sum below,
    # which adds a subset of the same positive counts in the same order, does.
    doc, word, count = triples["doc"], triples["word"], triples["count"]

    if vocab_path is None:
        vocab = Vocabulary(tuple(f"w{j}" for j in range(1, vocab_size + 1)))
    else:
        with open(vocab_path) as fh:  # lines end only at \n, \r\n or \r
            terms = [t.strip() for t in fh]
        while terms and not terms[-1]:
            terms.pop()
        if len(terms) != vocab_size:
            raise CorpusFormatError(
                f"vocabulary file has {len(terms)} terms but the corpus declares {vocab_size}"
            )
        vocab = Vocabulary(tuple(terms))

    # The stable sort keeps the duplicates of a (doc, word) pair in file
    # order, and add.at sums them one at a time from 0.0.
    order = np.lexsort((word, doc))
    doc, word, count = doc[order], word[order], count[order]
    new_pair = np.ones(doc.size, dtype=bool)
    new_pair[1:] = (doc[1:] != doc[:-1]) | (word[1:] != word[:-1])
    sums = np.zeros(int(new_pair.sum()))
    np.add.at(sums, np.cumsum(new_pair) - 1, count)
    doc, term_ids = doc[new_pair], word[new_pair] - 1
    cuts = np.flatnonzero(doc[1:] != doc[:-1]) + 1
    documents = [Document(ids, c) for ids, c in zip(np.split(term_ids, cuts), np.split(sums, cuts))]
    if len(documents) < num_docs:
        warnings.warn(f"dropped {num_docs - len(documents)} empty document(s)")
    return Corpus(vocab, tuple(documents), doc[np.r_[0, cuts]].tolist())


@dataclasses.dataclass(frozen=True)
class ModelFile:
    """A loaded model, of format version MODEL_VERSION (the only one read)."""

    topics: TopicMatrix
    metadata: dict | None = None


def save_model(path, topics: TopicMatrix, metadata: dict | None = None) -> None:
    """Write topics as a model file.  For a regular file, the sidecar of
    its rows is written too, under the SHA-256 of the bytes written, so
    that a load of the file need not parse its text; a failed sidecar
    write is ignored."""
    import hashlib

    head = [f"{MODEL_MAGIC} {MODEL_VERSION}\n", f"{topics.num_topics} {topics.vocab_size}\n"]
    if metadata is not None:
        head.append("meta " + json.dumps(metadata) + "\n")
    rows = (" ".join(f"{x:.17g}" for x in row) + "\n" for row in topics.rows)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in itertools.chain(head, rows):
            data = line.encode()
            digest.update(data)
            fh.write(data)
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    if regular:
        _write_sidecar(sidecar_path(path), digest.digest(), topics.rows)


def _model_rows(lines, rows, k):
    """Yield the next line for each topic row numbered in rows, of k; a
    blank or missing line means the file ends early."""
    for r in rows:
        line = next(lines, "")
        if not line.strip():
            raise ModelFormatError(f"model file ends early: expected {k} rows, found {r}")
        yield line


# Rows per np.loadtxt call; no second full copy of the matrix ever exists.
_ROWS_PER_PARSE = 16


def _read_rows(lines, k, v):
    """The next k lines as a column-major (k, v) float64 array, parsed by
    numpy's C reader _ROWS_PER_PARSE rows at a time.  Each chunk's lines
    are kept; if the reader refuses a chunk, a line-by-line walk of it
    raises the error of its first bad row, the chunks before it passed."""
    rows = np.empty((k, v), order="F")
    for r in range(0, k, _ROWS_PER_PARSE):
        numbers = range(r, min(r + _ROWS_PER_PARSE, k))
        chunk = list(itertools.islice(lines, len(numbers)))
        try:
            # An early end raises ModelFormatError, a ValueError, too.
            parsed = np.loadtxt(_model_rows(iter(chunk), numbers, k), comments=None, ndmin=2)
            if parsed.shape == (len(numbers), v):
                rows[r : r + len(numbers)] = parsed
                continue
        except ValueError:
            pass
        for r, line in zip(numbers, _model_rows(iter(chunk), numbers, k)):
            parts = line.split()
            if len(parts) != v:
                raise ModelFormatError(f"row {r} has {len(parts)} entries, expected {v}")
            try:
                for x in parts:
                    _plain_number(x, float)
            except ValueError:
                raise ModelFormatError(f"row {r} holds a non-numeric entry") from None
        raise ModelFormatError("topic rows that numpy's reader refuses")
    return rows


# A sidecar holds this line, the 32-byte SHA-256 of the model file's bytes,
# then the rows as a version 1.0 .npy stream: a (K, V) float64 array in
# Fortran order.
SIDECAR_MAGIC = b"sparsetopics-rows 1\n"
_HASH_BLOCK = 1 << 20


def sidecar_path(path) -> str:
    """The one sidecar of a model path: the model's name plus ".sidecar"."""
    return os.fsdecode(path) + ".sidecar"


def _file_digest(fh, h):
    """h's digest of fh's bytes, read in _HASH_BLOCK blocks."""
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    while n := fh.readinto(block):
        h.update(view[:n])
    return h.digest()


def _read_sidecar(path, digest, k, v):
    """The rows the sidecar at path holds under digest, read into memory;
    None unless it holds exactly a (k, v) float64 Fortran-order array
    whose rows validate_topic_matrix accepts."""
    npy = np.lib.format
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(SIDECAR_MAGIC) + len(digest))
            if head != SIDECAR_MAGIC + digest or npy.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = npy.read_array_header_1_0(fh)
            if shape != (k, v) or not fortran_order or dtype != np.float64:
                return None
            rows = np.empty((k, v), order="F")
            if fh.readinto(rows.T) != rows.nbytes or fh.read(1):
                return None
    except (OSError, ValueError):
        return None
    return None if validate_topic_matrix(rows) else rows


def _write_sidecar(path, digest, rows) -> None:
    """Replace the sidecar at path by one holding digest and rows, through
    a new temporary file and os.replace; a failed write is ignored and
    leaves no temporary file behind."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    header = {"descr": np.lib.format.dtype_to_descr(rows.dtype), "fortran_order": True, "shape": rows.shape}
    try:
        # Exclusive creation: a link or file already at the name is never
        # followed, truncated or removed.
        fh = open(tmp, "xb")
    except OSError:
        return
    try:
        with fh:
            fh.write(SIDECAR_MAGIC + digest)
            np.lib.format.write_array_header_1_0(fh, header)
            fh.write(rows.T)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_model(path) -> ModelFile:
    """Read a model file.  Its K rows stream into one column-major float64
    array whose entries are bitwise equal to float() of their tokens;
    lines after row K are ignored.

    For a regular file, the rows come from its sidecar (sidecar_path)
    when that holds the SHA-256 of the file's bytes, a (K, V) float64
    column-major array, and rows validate_topic_matrix accepts; any
    other sidecar is ignored.  After the text is parsed and its rows
    pass the check, the sidecar is rewritten, unless the file changed
    during the load; a failed write is ignored.  Without a sidecar in a
    directory it cannot write, the file is not hashed.  Header, metadata
    and errors are the text's on both paths.  The text is read once, front
    to back, so a pipe serves as a file does."""
    import hashlib

    sidecar = sidecar_path(path)
    with open(path) as fh:
        before = os.fstat(fh.fileno())
        digest = None
        if stat.S_ISREG(before.st_mode) and (
            os.path.exists(sidecar) or os.access(os.path.dirname(sidecar) or ".", os.W_OK)
        ):
            digest = _file_digest(fh.buffer, hashlib.sha256())
            fh.seek(0)
        first = fh.readline()
        if not first:
            raise ModelFormatError("empty model file")
        header = first.split()
        if len(header) != 2 or header[0] != MODEL_MAGIC:
            raise ModelFormatError("missing model header")
        try:
            version = _plain_int(header[1])
        except ValueError:
            raise ModelFormatError(f"bad version field {header[1]!r}") from None
        if version != MODEL_VERSION:
            raise UnsupportedVersionError(
                f"model version {version} is not supported (this reader handles {MODEL_VERSION})"
            )
        second = fh.readline()
        if not second:
            raise ModelFormatError("missing dimensions line")
        try:
            k, v = map(_plain_int, second.split())
        except ValueError:
            raise ModelFormatError("dimensions line must hold two integers") from None
        if k < 1 or v < 1:
            raise ModelFormatError("dimensions must be positive")
        # The line after the dimensions is the meta line or the first row.
        metadata, line = None, fh.readline()
        lines = itertools.chain([line], fh)
        if line.startswith("meta "):
            try:
                metadata = json.loads(line[5:])
            except json.JSONDecodeError:
                raise ModelFormatError("bad metadata json") from None
            lines = fh
        rows = digest and _read_sidecar(sidecar, digest, k, v)
        if rows is not None:
            return ModelFile(topics=TopicMatrix._adopt(rows), metadata=metadata)
        rows = _read_rows(lines, k, v)
        after = os.fstat(fh.fileno())
    problems = validate_topic_matrix(rows)
    if problems:
        raise ModelFormatError("invalid topic matrix: " + "; ".join(problems))
    if digest is not None and (before.st_size, before.st_mtime_ns) == (after.st_size, after.st_mtime_ns):
        _write_sidecar(sidecar, digest, rows)
    return ModelFile(topics=TopicMatrix._adopt(rows), metadata=metadata)


def load_prior(path) -> CtmPrior:
    """Read a precision matrix from whitespace-separated text in the corpus
    files' grammar: K rows of K numbers, then optionally a row holding the
    mean.  Blank lines are skipped; every row holds as many numbers as the
    first.  A malformed file raises CorpusFormatError naming its first bad
    line; a file that ends early has none, and the error gives the row count."""
    rows = []
    with open(path) as fh:  # lines end only at \n, \r\n or \r
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values = [_plain_number(x, float) for x in text.split()]
            except ValueError:
                raise CorpusFormatError("non-numeric entry in prior file", line_no) from None
            if not all(map(math.isfinite, values)):
                raise CorpusFormatError(f"non-finite entry in prior file: {text!r}", line_no)
            k = len(rows[0]) if rows else len(values)
            need = f"prior file must hold {k} rows (precision) or {k + 1} (precision plus mean)"
            if len(values) != k:
                raise CorpusFormatError(f"expected {k} numbers per row", line_no)
            if len(rows) == k + 1:
                raise CorpusFormatError(need + ", found more", line_no)
            rows.append(values)
    if not rows:
        raise CorpusFormatError("empty prior file", 1)
    if len(rows) < k:
        raise CorpusFormatError(need + f", found {len(rows)}")
    mean = np.array(rows[k]) if len(rows) == k + 1 else None
    return CtmPrior(precision=np.array(rows[:k]), mean=mean)


def save_uci_bow(path, corpus: Corpus) -> None:
    """Write a corpus in the bag-of-words format load_uci_bow reads."""
    num_triples = sum(doc.nnz for doc in corpus.documents)
    with open(path, "w") as fh:
        fh.write(f"{max(corpus.doc_ids)}\n{corpus.vocabulary.size}\n{num_triples}\n")
        for doc_id, doc in zip(corpus.doc_ids, corpus.documents):
            for term_id, count in zip(doc.term_ids, doc.counts):
                fh.write(f"{doc_id} {int(term_id) + 1} {float(count):.17g}\n")


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
