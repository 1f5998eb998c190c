import csv
import hashlib
import io
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparsetopics import (
    Corpus,
    CorpusBoundsError,
    CorpusFormatError,
    CtmPrior,
    Document,
    InvalidArgumentError,
    ModelFormatError,
    SolverConfig,
    TopicMatrix,
    TopicProportion,
    TrainConfig,
    UnsupportedVersionError,
    Vocabulary,
    ctm_full_objective,
    fw_solve,
    lda_map_objective,
    load_model,
    load_prior,
    load_uci_bow,
    ml_objective,
    save_model,
    save_uci_bow,
    save_vocab,
    train,
)
import sparsetopics
from sparsetopics import core, corpus_io
from sparsetopics.corpus_io import (
    SIDECAR_MAGIC,
    _read_rows,
    sidecar_path,
    write_eval_csv,
    write_likelihood_csv,
    write_proportions,
    write_theta,
)
from sparsetopics.evaluation import DocEval, EvalReport, MethodResult


def write(path, text):
    path.write_text(text)
    return path


BOW = "2\n3\n3\n1 1 2\n1 3 1\n2 2 5\n"

# Malformed bag-of-words files, each with the error type, line and message
# the line-by-line loader gave before the vectorized parse: the first bad
# line in file order wins.
MALFORMED_BOW = {
    "non-integer doc id": (
        "2\n3\n2\n1 1 2\n1.0 2 1\n", CorpusFormatError, 5,
        "expected an integer document id, got '1.0'"),
    "non-integer word id": (
        "2\n3\n2\n1 1 2\n2 x 1\n", CorpusFormatError, 5, "expected an integer word id, got 'x'"),
    "doc id zero": ("2\n3\n2\n1 1 2\n0 2 1\n", CorpusBoundsError, 5, "document id 0 outside 1..2"),
    "doc id above range": ("2\n3\n2\n1 1 2\n3 2 1\n", CorpusBoundsError, 5, "document id 3 outside 1..2"),
    "word id above range": ("2\n3\n2\n1 1 2\n2 4 1\n", CorpusBoundsError, 5, "word id 4 outside 1..3"),
    "id beyond int64": (
        "2\n3\n2\n1 1 2\n2 99999999999999999999 1\n", CorpusBoundsError, 5,
        "word id 99999999999999999999 outside 1..3"),
    "zero count": ("2\n3\n2\n1 1 2\n2 2 0\n", CorpusFormatError, 5, "count must be positive, got 0"),
    "negative count": ("2\n3\n2\n1 1 2\n2 2 -1\n", CorpusFormatError, 5, "count must be positive, got -1"),
    "nan count": ("2\n3\n2\n1 1 2\n2 2 nan\n", CorpusFormatError, 5, "count must be positive, got nan"),
    "inf count": ("2\n3\n2\n1 1 2\n2 2 inf\n", CorpusFormatError, 5, "count must be positive, got inf"),
    "non-numeric count": (
        "2\n3\n2\n1 1 2\n2 2 many\n", CorpusFormatError, 5, "expected a numeric count, got 'many'"),
    "two fields": ("2\n3\n2\n1 1 2\n2 2\n", CorpusFormatError, 5, "expected 'docID wordID count', got '2 2'"),
    "four fields": (
        "2\n3\n2\n1 1 2\n2 2 1 1\n", CorpusFormatError, 5, "expected 'docID wordID count', got '2 2 1 1'"),
    "too many triples": ("2\n3\n1\n1 1 2\n\n2 2 1\n", CorpusFormatError, 6, "more than the declared 1 triples"),
    "too many, the extra one malformed": (
        "2\n3\n1\n1 1 2\n2 x\n", CorpusFormatError, 5, "more than the declared 1 triples"),
    "too few triples": ("2\n3\n3\n1 1 2\n\n2 2 1\n", CorpusFormatError, None, "declared 3 triples but found 2"),
    "blank lines only": ("2\n3\n1\n\n \t\n", CorpusFormatError, None, "declared 1 triples but found 0"),
    "bounds before a parse fault": (
        "2\n3\n3\n1 1 2\n2 4 1\n2 2 x\n", CorpusBoundsError, 5, "word id 4 outside 1..3"),
    "parse fault before bounds": (
        "2\n3\n3\n1 1 2\n2 2 x\n2 4 1\n", CorpusFormatError, 5, "expected a numeric count, got 'x'"),
    "count before width": ("2\n3\n3\n1 1 0\n\n2 2\n", CorpusFormatError, 4, "count must be positive, got 0"),
    "width before too many": (
        "2\n3\n2\n1 1\n2 2 1\n1 3 1\n", CorpusFormatError, 4, "expected 'docID wordID count', got '1 1'"),
    # int("1_0") is 10; a header number follows the body's grammar.
    "digit separator in the header": (
        "1_0\n3\n1\n1 1 2\n", CorpusFormatError, 1, "expected an integer document count, got '1_0'"),
    # A document's counts, summed in file order, overflow at the named line.
    "count sum overflow in one pair": (
        "1\n3\n2\n1 1 1e308\n1 1 1e308\n", CorpusFormatError, 5,
        "the counts of document 1 sum past the largest float"),
    "count sum overflow over two terms": (
        "1\n3\n2\n1 1 1e308\n1 2 1e308\n", CorpusFormatError, 5,
        "the counts of document 1 sum past the largest float"),
    "count sum overflow, one sum per document": (
        "2\n3\n3\n1 1 1e308\n2 1 1e308\n1 3 1e308\n", CorpusFormatError, 6,
        "the counts of document 1 sum past the largest float"),
}


def bow_by_running_sums(text):
    """The bag-of-words parse as a per-triple loop: {doc id: {word id:
    running sum of its counts in file order}}."""
    docs = {}
    for raw in text.splitlines()[3:]:
        if raw.strip():
            d, w, c = raw.split()
            bucket = docs.setdefault(int(d) - 1, {})
            bucket[int(w) - 1] = bucket.get(int(w) - 1, 0.0) + float(c)
    return docs


def awkward_doubles(rng, n, low, high):
    """n doubles spread evenly over the bit patterns between low and high,
    so every binary exponent in the range turns up."""
    bits = rng.integers(np.float64(low).view(np.int64), np.float64(high).view(np.int64), n)
    return bits.view(np.float64)


class TestLoadUciBow:
    def test_parses_triples(self, tmp_path):
        corpus = load_uci_bow(write(tmp_path / "d.txt", BOW))
        assert corpus.vocabulary.size == 3
        assert corpus.vocabulary.terms == ("w1", "w2", "w3")
        d1, d2 = corpus.documents
        assert d1.term_ids.tolist() == [0, 2]
        assert d1.counts.tolist() == [2.0, 1.0]
        assert d2.term_ids.tolist() == [1]
        assert d2.counts.tolist() == [5.0]

    def test_duplicate_triples_accumulate(self, tmp_path):
        text = "1\n2\n2\n1 1 2\n1 1 3\n"
        corpus = load_uci_bow(write(tmp_path / "d.txt", text))
        assert corpus.documents[0].counts.tolist() == [5.0]

    def test_blank_lines_skipped(self, tmp_path):
        text = "1\n2\n1\n\n1 2 4\n\n"
        corpus = load_uci_bow(write(tmp_path / "d.txt", text))
        assert corpus.documents[0].term_ids.tolist() == [1]

    def test_vocab_file(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "apple\nbanana\ncherry\n")
        corpus = load_uci_bow(write(tmp_path / "d.txt", BOW), vocab)
        assert corpus.vocabulary.terms == ("apple", "banana", "cherry")

    def test_vocab_length_mismatch(self, tmp_path):
        vocab = write(tmp_path / "v.txt", "apple\nbanana\n")
        with pytest.raises(CorpusFormatError, match="2 terms"):
            load_uci_bow(write(tmp_path / "d.txt", BOW), vocab)

    def test_empty_documents_dropped_with_warning(self, tmp_path):
        text = "3\n2\n2\n1 1 1\n3 2 1\n"
        with pytest.warns(UserWarning, match="dropped 1 empty"):
            corpus = load_uci_bow(write(tmp_path / "d.txt", text))
        assert len(corpus.documents) == 2
        assert corpus.doc_ids == (1, 3)

    def test_saved_corpus_keeps_the_file_ids(self, tmp_path):
        # document 2 is empty; saving writes documents 1 and 3 under their ids
        text = "3\n3\n3\n1 1 1\n3 2 1\n3 3 2\n"
        with pytest.warns(UserWarning, match="dropped 1 empty"):
            corpus = load_uci_bow(write(tmp_path / "d.txt", text))
        save_uci_bow(tmp_path / "saved.txt", corpus)
        with pytest.warns(UserWarning, match="dropped 1 empty") as caught:
            reloaded = load_uci_bow(tmp_path / "saved.txt")
        assert len(caught) == 1
        assert reloaded.doc_ids == (1, 3)
        for a, b in zip(corpus.documents, reloaded.documents):
            assert a.term_ids.tolist() == b.term_ids.tolist()
            assert a.counts.tolist() == b.counts.tolist()

    def test_no_documents(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="no documents"):
            load_uci_bow(write(tmp_path / "d.txt", "0\n3\n0\n"))

    def test_short_file(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_uci_bow(write(tmp_path / "d.txt", "2\n3\n"))

    @pytest.mark.parametrize("text, line", [("", 1), ("\n", 1), ("2\n", 2), ("2\n3\n", 3), ("0\n3\n1\n", 1)])
    def test_short_or_empty_header_names_line(self, tmp_path, text, line):
        with pytest.raises(CorpusFormatError) as info:
            load_uci_bow(write(tmp_path / "d.txt", text))
        assert info.value.line == line

    def test_bad_header_names_line(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_uci_bow(write(tmp_path / "d.txt", "2\nxx\n3\n"))

    def test_malformed_triple_names_line(self, tmp_path):
        text = "1\n3\n2\n1 1 2\n1 2\n"
        with pytest.raises(CorpusFormatError, match="line 5"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    def test_doc_id_out_of_range(self, tmp_path):
        text = "1\n3\n1\n2 1 2\n"
        with pytest.raises(CorpusBoundsError, match="line 4"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    def test_word_id_out_of_range(self, tmp_path):
        text = "1\n3\n1\n1 4 2\n"
        with pytest.raises(CorpusBoundsError, match="outside 1..3"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    def test_nonpositive_count(self, tmp_path):
        text = "1\n3\n1\n1 1 0\n"
        with pytest.raises(CorpusFormatError, match="positive"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    def test_too_many_triples(self, tmp_path):
        text = "1\n3\n1\n1 1 2\n1 2 1\n"
        with pytest.raises(CorpusFormatError, match="more than the declared"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    def test_too_few_triples(self, tmp_path):
        text = "1\n3\n2\n1 1 2\n"
        with pytest.raises(CorpusFormatError, match="declared 2 triples but found 1"):
            load_uci_bow(write(tmp_path / "d.txt", text))

    @pytest.mark.parametrize("name", sorted(MALFORMED_BOW))
    def test_malformed_file_names_first_bad_line(self, tmp_path, name):
        text, error, line, message = MALFORMED_BOW[name]
        # and refuses it without a warning on the way, an overflow's included
        with pytest.raises(CorpusFormatError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            load_uci_bow(write(tmp_path / "d.txt", text))
        assert type(info.value) is error
        assert info.value.line == line
        assert str(info.value) == (f"line {line}: {message}" if line else message)

    @pytest.mark.parametrize("name", sorted(MALFORMED_BOW))
    def test_malformed_pipe_names_the_files_line(self, name):
        text, error, line, message = MALFORMED_BOW[name]
        with pytest.raises(CorpusFormatError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            load_from_pipe(text, load_uci_bow)
        assert type(info.value) is error
        assert str(info.value) == (f"line {line}: {message}" if line else message)

    @staticmethod
    def corpus_text(rng, lines, blank_every=7):
        """A valid corpus of lines triples over 30 documents, with repeated
        pairs and blank lines, sorted by document as a saved corpus is."""
        doc, word = np.sort(rng.integers(1, 31, size=lines)).tolist(), rng.integers(1, 51, size=lines).tolist()
        body = [f"{d} {w} {c!r}" for d, w, c in zip(doc, word, (rng.random(lines) * 9 + 0.5).tolist())]
        body = [t + ("\n\n" if i % blank_every == 0 else "\n") for i, t in enumerate(body)]
        return f"30\n50\n{lines}\n" + "".join(body)

    @staticmethod
    def as_bits(corpus):
        return corpus.doc_ids, [(d.term_ids.tobytes(), d.counts.tobytes()) for d in corpus.documents]

    def test_pipe_loads_the_files_bits(self, tmp_path):
        rng = np.random.default_rng(29)
        for lines in (1, 200, 3 * corpus_io._TRIPLES_PER_PARSE + 5):
            text = self.corpus_text(rng, lines)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # documents left empty
                want = load_uci_bow(write(tmp_path / "d.txt", text))
                assert self.as_bits(load_from_pipe(text, load_uci_bow)) == self.as_bits(want)

    @pytest.mark.parametrize("per_parse", [1, 2, 3, 5])
    def test_any_chunk_size_reads_as_one(self, tmp_path, monkeypatch, per_parse):
        # The walk of a refused chunk starts from the counts and sums of
        # the chunks before it.
        rng = np.random.default_rng(31)
        texts = [self.corpus_text(rng, n, 3) for n in (1, 4, 17)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want = [self.as_bits(load_uci_bow(write(tmp_path / "d.txt", t))) for t in texts]
            monkeypatch.setattr(corpus_io, "_TRIPLES_PER_PARSE", per_parse)
            assert [self.as_bits(load_uci_bow(write(tmp_path / "d.txt", t))) for t in texts] == want
        for text, error, line, message in MALFORMED_BOW.values():
            with pytest.raises(CorpusFormatError) as info:
                load_uci_bow(write(tmp_path / "d.txt", text))
            assert type(info.value) is error
            assert str(info.value) == (f"line {line}: {message}" if line else message)

    @pytest.mark.parametrize("token", ["1.0", "1.5", "2.7", "1e0"])
    def test_fractional_id_refused_with_warnings_ignored(self, tmp_path, token):
        text = f"2\n3\n2\n1 1 2\n{token} 2 1\n"
        with pytest.raises(CorpusFormatError) as info, warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            load_uci_bow(write(tmp_path / "d.txt", text))
        assert str(info.value) == f"line 5: expected an integer document id, got {token!r}"

    def test_fractional_id_refused_by_a_reader_that_only_warns(self, tmp_path, monkeypatch):
        # numpy before 2.x parses an integer field through a float,
        # truncates it and only emits a DeprecationWarning.
        def float_fallback_loadtxt(lines, dtype, **kwargs):
            rows = []
            for line in lines:
                if line.strip():
                    d, w, c = line.split()
                    try:
                        d = int(d)
                    except ValueError:
                        warnings.warn("parsing an integer via a float", DeprecationWarning)
                        d = int(float(d))
                    rows.append((d, int(w), float(c)))
            return np.array(rows, dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", float_fallback_loadtxt)
        path = write(tmp_path / "d.txt", "2\n3\n2\n1 1 2\n2.7 2 1\n")
        with pytest.raises(CorpusFormatError) as info, warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            load_uci_bow(path)
        assert str(info.value) == "line 5: expected an integer document id, got '2.7'"

    def test_duplicates_sum_in_file_order(self, tmp_path):
        # 1e16 + 1 rounds back to 1e16, so the order of the additions shows.
        counts = [1e16] + [1.0] * 12
        lines = [f"2 3 {c:.17g}" for c in counts] + ["1 1 1"] + [f"2 1 {c:.17g}" for c in counts[::-1]]
        text = f"2\n3\n{len(lines)}\n" + "\n".join(lines) + "\n"
        doc = load_uci_bow(write(tmp_path / "d.txt", text)).documents[1]
        forward = backward = 0.0
        for c in counts:
            forward += c
        for c in counts[::-1]:
            backward += c
        assert forward != backward
        assert doc.term_ids.tolist() == [0, 2]
        assert doc.counts.tolist() == [backward, forward]

    def test_matches_running_sums_bitwise(self, tmp_path):
        rng = np.random.default_rng(404)
        for trial in range(10):
            num_docs, vocab = int(rng.integers(1, 30)), int(rng.integers(1, 50))
            n = int(rng.integers(1, 400))
            ids = np.c_[rng.integers(1, num_docs + 1, n), rng.integers(1, vocab + 1, n)]
            counts = np.r_[awkward_doubles(rng, n - 3, 5e-324, 1e300), 5e-324, 2.2250738585072009e-308, 1e-10]
            rng.shuffle(counts)
            lines = [f"{d} {w} {c:.17g}" for (d, w), c in zip(ids, counts)]
            for at in rng.integers(0, n, 5):
                lines.insert(int(at), " " * int(at % 3))
            text = f"{num_docs}\n{vocab}\n{n}\n" + "\n".join(lines) + "\n"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                corpus = load_uci_bow(write(tmp_path / "d.txt", text))
            expected = bow_by_running_sums(text)
            assert len(corpus.documents) == len(expected)
            for doc, m in zip(corpus.documents, sorted(expected)):
                words = sorted(expected[m])
                assert doc.term_ids.tolist() == words
                sums = np.array([expected[m][w] for w in words])
                assert np.array_equal(doc.counts.view(np.int64), sums.view(np.int64)), trial

    # Deliberate narrowings of the format: numbers follow numpy's grammar,
    # and lines end at \n, \r\n or \r only.
    def test_underscore_in_count_refused(self, tmp_path):
        # float("1_0") is 10.0; numpy's reader refuses the digit separator.
        with pytest.raises(CorpusFormatError, match="line 4: expected a numeric count, got '1_0'"):
            load_uci_bow(write(tmp_path / "d.txt", "1\n3\n1\n1 1 1_0\n"))

    def test_non_ascii_digit_in_id_refused(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 4: expected an integer document id"):
            load_uci_bow(write(tmp_path / "d.txt", "1\n3\n1\n\u0661 1 2\n"))

    def test_form_feed_is_whitespace_not_a_line_break(self, tmp_path):
        corpus = load_uci_bow(write(tmp_path / "d.txt", "1\n3\n1\n1 2\x0c4\n"))
        assert corpus.documents[0].term_ids.tolist() == [1]
        assert corpus.documents[0].counts.tolist() == [4.0]

    def test_carriage_return_line_ends(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"2\r\n3\r3\r\n1 1 2\r1 3 1\r\n2 2 5\r")
        assert [d.counts.tolist() for d in load_uci_bow(path).documents] == [[2.0, 1.0], [5.0]]


def test_save_uci_bow_round_trip(tmp_path):
    vocab = Vocabulary(("apple", "banana", "cherry"))
    docs = (
        Document(np.array([0, 2]), np.array([2.0, 0.5])),
        Document(np.array([1]), np.array([3.0])),
    )
    corpus = Corpus(vocab, docs)
    bow = tmp_path / "bow.txt"
    vpath = tmp_path / "vocab.txt"
    save_uci_bow(bow, corpus)
    save_vocab(vpath, vocab)
    loaded = load_uci_bow(bow, vpath)
    assert loaded.vocabulary.terms == vocab.terms
    for a, b in zip(loaded.documents, docs):
        assert np.array_equal(a.term_ids, b.term_ids)
        assert np.array_equal(a.counts, b.counts)


def count_parses(monkeypatch):
    """The list that each parse of a model's rows text appends to."""
    parses = []
    real = corpus_io._read_rows
    monkeypatch.setattr(corpus_io, "_read_rows", lambda fh, k, v: parses.append((k, v)) or real(fh, k, v))
    return parses


def forge_sidecar(model, rows, digest=None, **header):
    """Write model's sidecar by hand: its magic line, the digest of model's
    bytes (or the one given), a .npy header that describes rows unless
    header overrides a field, and rows' column-major float64 bytes."""
    rows = np.asarray(rows, dtype=np.float64)
    fields = {"descr": np.lib.format.dtype_to_descr(rows.dtype), "fortran_order": True, "shape": rows.shape}
    with open(sidecar_path(model), "wb") as fh:
        fh.write(SIDECAR_MAGIC + (digest or hashlib.sha256(Path(model).read_bytes()).digest()))
        np.lib.format.write_array_header_1_0(fh, {**fields, **header})
        fh.write(rows.tobytes(order="F"))


def save_text(path, topics, metadata=None):
    """Write save_model's bytes to path and leave its sidecar, if any, as
    it was: a model that arrives without one, or rewritten by another tool."""
    side = Path(sidecar_path(path))
    kept = side.read_bytes() if side.exists() else None
    save_model(path, topics, metadata=metadata)
    if kept is None:
        side.unlink()
    else:
        side.write_bytes(kept)
    return path


def sidecar_digest(model):
    """The digest the sidecar of model holds."""
    with open(sidecar_path(model), "rb") as fh:
        return fh.read(len(SIDECAR_MAGIC) + 32)[len(SIDECAR_MAGIC):]



def load_from_pipe(text, load=load_model):
    """load (load_model by default) of text fed by a thread into an
    os.pipe(), read through its /dev/fd path, as a shell's process
    substitution hands it over."""
    r, w = os.pipe()

    def feed():
        try:
            with open(w, "w") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(10)


MODEL_HEAD = "sparsetopics-model 1\n"
ROW = "0.25 0.75\n"

# Malformed model files and the error each gave before the streamed parse.
MALFORMED_MODEL = {
    "blank row in the middle": (MODEL_HEAD + "3 2\n" + ROW + "\n" + ROW, "model file ends early: expected 3 rows, found 1"),
    "whitespace row in the middle": (
        MODEL_HEAD + "3 2\n" + ROW + ROW + " \t\n" + ROW, "model file ends early: expected 3 rows, found 2"),
    "end of file": (MODEL_HEAD + "3 2\n" + ROW + ROW, "model file ends early: expected 3 rows, found 2"),
    "end of file after meta": (MODEL_HEAD + "3 2\nmeta {}\n", "model file ends early: expected 3 rows, found 0"),
    "end of file after dims": (MODEL_HEAD + "3 2\n", "model file ends early: expected 3 rows, found 0"),
    "narrow row 2": (MODEL_HEAD + "3 2\n" + ROW + ROW + "0.25\n", "row 2 has 1 entries, expected 2"),
    "wide row 1": (MODEL_HEAD + "3 2\n" + ROW + "0.25 0.5 0.25\n" + ROW, "row 1 has 3 entries, expected 2"),
    "row 0 narrow, the rest right": (MODEL_HEAD + "3 2\n1\n" + ROW + ROW, "row 0 has 1 entries, expected 2"),
    "every row too wide": (MODEL_HEAD + "2 2\n0.2 0.3 0.5\n0.2 0.3 0.5\n", "row 0 has 3 entries, expected 2"),
    "non-numeric row 2": (MODEL_HEAD + "3 2\n" + ROW + ROW + "0.25 x\n", "row 2 holds a non-numeric entry"),
    "non-numeric before a blank row": (
        MODEL_HEAD + "4 2\n" + ROW + "0.25 x\n" + ROW + "\n", "row 1 holds a non-numeric entry"),
    "width before non-numeric": (
        MODEL_HEAD + "4 2\n" + ROW + "0.25\nx 0.75\n" + ROW, "row 1 has 1 entries, expected 2"),
    "non-numeric before width": (
        MODEL_HEAD + "4 2\n" + ROW + "x 0.75\n0.25\n" + ROW, "row 1 holds a non-numeric entry"),
    "width checked before numbers": (MODEL_HEAD + "2 2\n" + ROW + "x y z\n", "row 1 has 3 entries, expected 2"),
    "empty file": ("", "empty model file"),
    "no dimensions line": (MODEL_HEAD, "missing dimensions line"),
    "one dimension": (MODEL_HEAD + "3\n" + ROW, "dimensions line must hold two integers"),
    "three dimensions": (MODEL_HEAD + "3 2 1\n" + ROW, "dimensions line must hold two integers"),
    "fractional dimension": (MODEL_HEAD + "3 2.5\n" + ROW, "dimensions line must hold two integers"),
    "digit separator in a dimension": (MODEL_HEAD + "1_0 2\n" + ROW, "dimensions line must hold two integers"),
}


def test_every_construction_path_stores_read_only_column_major_rows(tmp_path):
    rng = np.random.default_rng(75)
    raw = rng.random((4, 9))
    corpus = Corpus(Vocabulary(tuple(f"w{j}" for j in range(9))), (Document.from_dense(rng.integers(1, 5, size=9)),))
    save_model(tmp_path / "m.txt", TopicMatrix.normalized(raw))
    paths = {
        "constructor": TopicMatrix(raw / raw.sum(axis=1, keepdims=True)),
        "constructor, column-major input": TopicMatrix(np.asfortranarray(raw / raw.sum(axis=1, keepdims=True))),
        "normalized": TopicMatrix.normalized(raw),
        "load_model": load_model(tmp_path / "m.txt").topics,
        "train": train(corpus, TrainConfig(topics=3, em_iters=2))[0],
    }
    for name, topics in paths.items():
        assert topics.rows.flags.f_contiguous and not topics.rows.flags.c_contiguous, name
        assert not topics.rows.flags.writeable, name


class TestModelFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(71)
        topics = TopicMatrix.normalized(rng.random((4, 9)))
        path = tmp_path / "m.txt"
        save_model(path, topics)
        loaded = load_model(path)
        assert loaded.metadata is None
        assert np.array_equal(loaded.topics.rows, topics.rows)

    def test_loaded_rows_are_read_only(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(path, TopicMatrix.normalized(np.ones((3, 5))))
        rows = load_model(path).topics.rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_load_holds_one_copy_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(73)
        topics = TopicMatrix.normalized(rng.random((300, 2000)))
        path = save_text(tmp_path / "m.txt", topics)
        # The text is about three times the matrix, so reading it whole to
        # hash it would show here too.
        assert path.stat().st_size > 2 * topics.rows.nbytes
        for load in ("parse", "sidecar"):
            tracemalloc.start()
            try:
                loaded = load_model(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(loaded.topics.rows, topics.rows), load
            assert peak < 1.5 * topics.rows.nbytes, load

    def test_reloaded_model_solves_bitwise_alike(self, tmp_path):
        # Bit for bit, where the model round trip of test_acceptance compares
        # perplexities only to 1e-12.
        rng = np.random.default_rng(74)
        topics = TopicMatrix.normalized(rng.dirichlet(np.full(400, 0.1), size=30))
        path = tmp_path / "m.txt"
        save_model(path, topics)
        loaded = load_model(path).topics
        a = rng.random((30, 30))
        prior = CtmPrior(a @ a.T + 30.0 * np.eye(30), mean=np.log(rng.uniform(0.1, 1.0, size=30)))
        solves = {
            "ml, max_nnz": (ml_objective, SolverConfig(max_nnz=5)),
            "lda-map": (lambda d, t: lda_map_objective(d, t, alpha=2.0), None),
            "capped ctm": (lambda d, t: ctm_full_objective(d, t, prior), None),
        }
        for m in range(3):
            ids = np.sort(rng.choice(400, size=120, replace=False))
            doc = Document(ids, rng.integers(1, 9, size=120).astype(np.float64))
            for name, (make, config) in solves.items():
                report, trace = fw_solve(make(doc, topics), config)
                again, again_trace = fw_solve(make(doc, loaded), config)
                assert report.iterations > 1, name
                assert report.theta.dense(30).tobytes() == again.theta.dense(30).tobytes(), name
                assert trace == again_trace, name

    def test_metadata_round_trip(self, tmp_path):
        topics = TopicMatrix.normalized(np.ones((2, 3)))
        path = tmp_path / "m.txt"
        save_model(path, topics, metadata={"topics": 2, "note": "fixture"})
        assert load_model(path).metadata == {"topics": 2, "note": "fixture"}

    def test_refuses_invalid_model(self, tmp_path):
        # refused when the matrix is built, before save_model could write it
        with pytest.raises(InvalidArgumentError, match="invalid topic matrix: row-sum: row 0"):
            save_model(tmp_path / "m.txt", TopicMatrix(np.array([[0.5, 0.4]])))
        assert not (tmp_path / "m.txt").exists()

    def test_missing_header(self, tmp_path):
        with pytest.raises(ModelFormatError, match="header"):
            load_model(write(tmp_path / "m.txt", "2 3\n"))

    def test_unsupported_version(self, tmp_path):
        text = "sparsetopics-model 2\n1 2\n0.5 0.5\n"
        with pytest.raises(UnsupportedVersionError):
            load_model(write(tmp_path / "m.txt", text))

    def test_truncated_rows(self, tmp_path):
        text = "sparsetopics-model 1\n2 2\n0.5 0.5\n"
        with pytest.raises(ModelFormatError, match="ends early"):
            load_model(write(tmp_path / "m.txt", text))

    def test_row_width_mismatch(self, tmp_path):
        text = "sparsetopics-model 1\n1 3\n0.5 0.5\n"
        with pytest.raises(ModelFormatError, match="row 0 has 2 entries"):
            load_model(write(tmp_path / "m.txt", text))

    def test_non_numeric_entry(self, tmp_path):
        text = "sparsetopics-model 1\n1 2\n0.5 oops\n"
        with pytest.raises(ModelFormatError, match="non-numeric"):
            load_model(write(tmp_path / "m.txt", text))

    def test_invalid_matrix_rejected_on_load(self, tmp_path):
        text = "sparsetopics-model 1\n1 2\n0.9 0.9\n"
        with pytest.raises(ModelFormatError, match="row-sum"):
            load_model(write(tmp_path / "m.txt", text))

    def test_bad_metadata(self, tmp_path):
        text = "sparsetopics-model 1\n1 2\nmeta {oops\n0.5 0.5\n"
        with pytest.raises(ModelFormatError, match="metadata"):
            load_model(write(tmp_path / "m.txt", text))

    @pytest.mark.parametrize("name", sorted(MALFORMED_MODEL))
    def test_malformed_rows_name_first_bad_row(self, tmp_path, name):
        text, message = MALFORMED_MODEL[name]
        with pytest.raises(ModelFormatError) as info:
            load_model(write(tmp_path / "m.txt", text))
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(MALFORMED_MODEL))
    def test_a_pipe_gives_the_files_error(self, tmp_path, name):
        text, message = MALFORMED_MODEL[name]
        with pytest.raises(ModelFormatError) as info:
            load_from_pipe(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [1, 16, 17, 40])
    @pytest.mark.parametrize("metadata", [None, {"k": "v"}])
    def test_a_pipe_loads_the_files_rows(self, tmp_path, k, metadata):
        rng = np.random.default_rng(k)
        topics = TopicMatrix.normalized(rng.dirichlet(np.full(5, 0.3), size=k))
        path = save_text(tmp_path / "m.txt", topics, metadata=metadata)
        model = load_from_pipe(path.read_text())
        assert model.metadata == metadata
        assert model.topics.rows.tobytes() == load_model(path).topics.rows.tobytes() == topics.rows.tobytes()
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]

    def test_lines_after_last_row_ignored(self, tmp_path):
        text = MODEL_HEAD + "2 2\n" + ROW + ROW + "not a row\n\n0.1 0.2 0.3\n"
        rows = load_model(write(tmp_path / "m.txt", text)).topics.rows
        assert rows.tolist() == [[0.25, 0.75], [0.25, 0.75]]

    def test_single_column_and_single_row(self, tmp_path):
        assert load_model(write(tmp_path / "m.txt", MODEL_HEAD + "2 1\n1\n1\n")).topics.rows.shape == (2, 1)
        assert load_model(write(tmp_path / "m.txt", MODEL_HEAD + "1 2\n" + ROW)).topics.rows.shape == (1, 2)

    def test_round_trip_awkward_doubles_bitwise(self, tmp_path):
        rng = np.random.default_rng(72)
        one_minus = np.nextafter(1.0, 0.0)
        above_floor = np.nextafter(1e-10, 1.0)
        path = tmp_path / "m.txt"
        for trial in range(8):
            v = int(rng.integers(3, 9))
            rows = awkward_doubles(rng, (6, v), 1e-10, 1.0 / v)
            rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
            rows[0] = [one_minus] + [1e-10] * (v - 1)
            rows[1] = [1.0, above_floor] + [1e-10] * (v - 2)
            rows[2, :2] = [0.5, np.nextafter(0.5, 0.0)]
            rows[2, 2:] = 1e-10
            save_model(path, TopicMatrix(rows), metadata={"trial": trial})
            tokens = np.array([[float(x) for x in line.split()] for line in path.read_text().splitlines()[3:]])
            for load in ("save_model's sidecar", "parse", "load_model's sidecar"):
                if load == "parse":
                    os.remove(sidecar_path(path))
                model = load_model(path)
                loaded = model.topics.rows
                assert model.metadata == {"trial": trial}, load
                assert np.array_equal(loaded.view(np.int64), tokens.view(np.int64)), load
                assert np.array_equal(loaded.view(np.int64), rows.view(np.int64)), load
                assert loaded.flags.f_contiguous and not loaded.flags.writeable, load

    def test_row_parse_bitwise_outside_the_valid_range(self):
        # Subnormals, signed zeros and huge values fail validation, so the
        # row reader is checked on its own.
        rng = np.random.default_rng(73)
        values = np.r_[awkward_doubles(rng, 40, 5e-324, 1e308), -awkward_doubles(rng, 20, 5e-324, 1e-300),
                       5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, -0.0, 0.0, 1.7976931348623157e308]
        tokens = [f"{x:.17g}" for x in values] + ["1e-400", "0.1", "1e500", "+.5e-3", "7.", "-INF"]
        width = len(tokens) // 2
        text = " ".join(tokens[:width]) + "\n" + " ".join(tokens[width:]) + "\n"
        rows = _read_rows(io.StringIO(text), 2, width)
        expected = np.array([float(x) for x in tokens]).reshape(2, width)
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))

    def test_underscore_in_row_refused(self, tmp_path):
        # float("0.7_5") is 0.75; numpy's reader refuses the digit separator.
        text = MODEL_HEAD + "2 2\n" + ROW + "0.25 0.7_5\n"
        with pytest.raises(ModelFormatError, match="row 1 holds a non-numeric entry"):
            load_model(write(tmp_path / "m.txt", text))

    def test_loaded_model_is_scanned_once(self, tmp_path, monkeypatch):
        path = save_text(tmp_path / "m.txt", TopicMatrix.normalized(np.ones((3, 4))))
        scans = []
        real = core.validate_topic_matrix
        for module in (core, corpus_io):
            monkeypatch.setattr(module, "validate_topic_matrix", lambda rows: scans.append(rows) or real(rows))
        parses = count_parses(monkeypatch)
        for load in ("parse", "sidecar"):
            scans.clear()
            topics = load_model(path).topics
            doc = Document(np.array([0, 3]), np.array([1.0, 2.0]))
            ml_objective(doc, topics)
            ml_objective(doc, topics)
            assert len(scans) == 1 and scans[0] is topics.rows, load
        assert len(parses) == 1
        save_model(path, topics)
        assert len(scans) == 1


# Sidecar states that load_model must refuse, each made from a model file
# with a valid sidecar and the model's rows; the load then parses the text
# and rewrites the sidecar.
def _rewrite_model(path, rows):
    save_text(path, TopicMatrix(rows[::-1]))


def _truncate(path, rows):
    with open(sidecar_path(path), "r+b") as fh:
        fh.truncate(os.path.getsize(sidecar_path(path)) - 8)


STALE_SIDECARS = {
    "model rewritten": _rewrite_model,
    "trailing line after row K": lambda path, rows: path.write_text(path.read_text() + "not a row\n"),
    "changed meta line": lambda path, rows: save_text(path, TopicMatrix(rows), metadata={"note": "new"}),
    "truncated sidecar": _truncate,
    "trailing byte in the sidecar": lambda path, rows: Path(sidecar_path(path)).write_bytes(
        Path(sidecar_path(path)).read_bytes() + b"\0"),
    "other digest": lambda path, rows: forge_sidecar(path, rows, digest=bytes(32)),
    "fewer rows": lambda path, rows: forge_sidecar(path, rows[:-1]),
    # The header alone is wrong in these: the bytes are the right rows.
    "wrong shape": lambda path, rows: forge_sidecar(path, rows, shape=rows.shape[::-1]),
    "wrong dtype": lambda path, rows: forge_sidecar(path, rows, descr="<f4"),
    "big-endian": lambda path, rows: forge_sidecar(path, rows, descr=">f8"),
    "C-order": lambda path, rows: forge_sidecar(path, rows, fortran_order=False),
    "rows below EPS_BETA": lambda path, rows: forge_sidecar(path, np.where(rows == rows.max(), 1.0, 0.0)),
    "not a sidecar": lambda path, rows: Path(sidecar_path(path)).write_bytes(b"junk"),
    "empty sidecar": lambda path, rows: Path(sidecar_path(path)).write_bytes(b""),
}


class TestSidecar:
    """load_model keeps the rows it parsed in a sidecar next to the model
    and reads them from there while the model's bytes stay the same;
    save_model writes the sidecar with the text."""

    def model(self, tmp_path, seed=81, metadata=None):
        """A model file without a sidecar, and its rows."""
        rng = np.random.default_rng(seed)
        topics = TopicMatrix.normalized(rng.dirichlet(np.full(7, 0.3), size=5))
        return save_text(tmp_path / "m.txt", topics, metadata=metadata), topics.rows

    def test_second_load_reads_the_sidecar_bitwise(self, tmp_path, monkeypatch):
        path, rows = self.model(tmp_path, metadata={"topics": 5})
        parses = count_parses(monkeypatch)
        cold, warm = load_model(path), load_model(path)
        assert len(parses) == 1
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]
        for model in (cold, warm):
            assert model.metadata == {"topics": 5}
            assert model.topics.rows.tobytes() == rows.tobytes()
            assert model.topics.rows.flags.f_contiguous and not model.topics.rows.flags.writeable

    def test_save_model_writes_the_sidecar_of_the_bytes_it_wrote(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(85)
        topics = TopicMatrix.normalized(rng.dirichlet(np.full(7, 0.3), size=5))
        path = tmp_path / "m.txt"
        save_model(path, topics, metadata={"topics": 5})
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]
        assert sidecar_digest(path) == hashlib.sha256(path.read_bytes()).digest()
        parses = count_parses(monkeypatch)
        model = load_model(path)
        assert parses == []
        assert model.metadata == {"topics": 5}
        assert model.topics.rows.tobytes() == topics.rows.tobytes()
        # Saving over a model replaces its sidecar.
        save_model(path, TopicMatrix(topics.rows[::-1]))
        assert load_model(path).topics.rows.tobytes() == topics.rows[::-1].tobytes()
        assert parses == []
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]

    def test_sidecar_is_a_digest_then_a_fortran_order_npy(self, tmp_path):
        path, rows = self.model(tmp_path)
        load_model(path)
        assert sidecar_digest(path) == hashlib.sha256(path.read_bytes()).digest()
        with open(sidecar_path(path), "rb") as fh:
            fh.seek(len(SIDECAR_MAGIC) + 32)
            stored = np.load(fh, allow_pickle=False)
        assert stored.flags.f_contiguous and stored.tobytes() == rows.tobytes()

    def test_a_valid_sidecar_is_trusted(self, tmp_path, monkeypatch):
        # Any rows that pass the topic-matrix check are taken as the file's:
        # the sidecar is trusted as far as the model's directory is.
        path, rows = self.model(tmp_path)
        forge_sidecar(path, rows[::-1])
        parses = count_parses(monkeypatch)
        assert load_model(path).topics.rows.tobytes() == rows[::-1].tobytes()
        assert parses == []

    @pytest.mark.parametrize("name", sorted(STALE_SIDECARS))
    def test_stale_sidecar_is_refused_then_rewritten(self, tmp_path, monkeypatch, name):
        path, rows = self.model(tmp_path)
        load_model(path)
        STALE_SIDECARS[name](path, rows)
        tokens = [line.split() for line in path.read_text().splitlines()[2:] if not line.startswith("meta ")][:5]
        text_rows = np.array(tokens, dtype=np.float64)
        parses = count_parses(monkeypatch)
        first, second = load_model(path), load_model(path)
        assert len(parses) == 1, name
        for model in (first, second):
            assert model.topics.rows.tobytes() == text_rows.tobytes(), name
        assert first.metadata == second.metadata == ({"note": "new"} if name == "changed meta line" else None)
        assert sidecar_digest(path) == hashlib.sha256(path.read_bytes()).digest()
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]

    @pytest.mark.parametrize("name", sorted(MALFORMED_MODEL))
    def test_malformed_file_errors_past_an_earlier_sidecar(self, tmp_path, name):
        path, _ = self.model(tmp_path)
        load_model(path)
        before = Path(sidecar_path(path)).read_bytes()
        text, message = MALFORMED_MODEL[name]
        with pytest.raises(ModelFormatError) as info:
            load_model(write(path, text))
        assert str(info.value) == message
        assert Path(sidecar_path(path)).read_bytes() == before

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (MODEL_HEAD + "1 2\n0.9 0.9\n", ModelFormatError, "invalid topic matrix: row-sum: row 0 sums to 1.8"),
            ("sparsetopics-model 2\n1 2\n" + ROW, UnsupportedVersionError,
             "model version 2 is not supported (this reader handles 1)"),
            (MODEL_HEAD + "1 2\nmeta {oops\n" + ROW, ModelFormatError, "bad metadata json"),
            ("2 3\n" + ROW, ModelFormatError, "missing model header"),
        ],
    )
    def test_invalid_file_errors_past_an_earlier_sidecar(self, tmp_path, text, error, message):
        path = write(tmp_path / "m.txt", MODEL_HEAD + "1 2\n" + ROW)
        load_model(path)
        with pytest.raises(error) as info:
            load_model(write(path, text))
        assert str(info.value) == message
        # The sidecar of the good version stays, and serves it again.
        assert load_model(write(path, MODEL_HEAD + "1 2\n" + ROW)).topics.rows.tolist() == [[0.25, 0.75]]

    def test_one_sidecar_per_model_path(self, tmp_path):
        for seed in range(4):
            path, rows = self.model(tmp_path, seed=seed)
            assert load_model(path).topics.rows.tobytes() == rows.tobytes()
            assert load_model(path).topics.rows.tobytes() == rows.tobytes()
            assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]
        save_model(tmp_path / "other.txt", TopicMatrix(rows))
        load_model(tmp_path / "other.txt")
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar", "other.txt", "other.txt.sidecar"]

    @staticmethod
    def refuse_replace(src, dst):
        raise OSError("refused")

    def test_failed_write_leaves_no_file_and_the_same_result(self, tmp_path, monkeypatch):
        path, rows = self.model(tmp_path, metadata={"k": 5})
        monkeypatch.setattr(corpus_io.os, "replace", self.refuse_replace)
        for _ in range(2):
            model = load_model(path)
            assert model.topics.rows.tobytes() == rows.tobytes()
            assert model.metadata == {"k": 5}
            assert os.listdir(tmp_path) == ["m.txt"]
        # save_model writes the text whole all the same.
        save_model(path, TopicMatrix(rows[::-1]))
        assert os.listdir(tmp_path) == ["m.txt"]
        assert load_model(path).topics.rows.tobytes() == rows[::-1].tobytes()

    def test_failed_write_keeps_the_old_sidecar(self, tmp_path, monkeypatch):
        path, _ = self.model(tmp_path)
        load_model(path)
        before = Path(sidecar_path(path)).read_bytes()
        path, rows = self.model(tmp_path, seed=82)
        monkeypatch.setattr(corpus_io.os, "replace", self.refuse_replace)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes()
        assert Path(sidecar_path(path)).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]

    def test_no_sidecar_for_a_file_that_changed_during_the_load(self, tmp_path, monkeypatch):
        path, rows = self.model(tmp_path)
        real = corpus_io._read_rows

        def append_then_parse(fh, k, v):
            with open(path, "a") as out:
                out.write("a line after the rows\n")
            return real(fh, k, v)

        monkeypatch.setattr(corpus_io, "_read_rows", append_then_parse)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes()
        assert os.listdir(tmp_path) == ["m.txt"]

    def test_no_sidecar_for_an_invalid_matrix(self, tmp_path):
        path = write(tmp_path / "m.txt", MODEL_HEAD + "1 2\n0.9 0.9\n")
        with pytest.raises(ModelFormatError, match="row-sum"):
            load_model(path)
        assert os.listdir(tmp_path) == ["m.txt"]

    def test_only_regular_files_get_a_sidecar(self, tmp_path, monkeypatch):
        # A named pipe is read once, front to back, without a hash pass,
        # and no sidecar appears.
        hashed = []
        monkeypatch.setattr(corpus_io, "_file_digest", lambda fh, h: hashed.append(fh))
        path = tmp_path / "m.txt"
        os.mkfifo(path)

        def feed():
            try:
                with open(path, "w") as fh:
                    fh.write(MODEL_HEAD + "1 2\n" + ROW)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert load_model(path).topics.rows.tolist() == [[0.25, 0.75]]
        finally:
            writer.join(timeout=10)
        assert os.listdir(tmp_path) == ["m.txt"]
        assert hashed == []
        # save_model writes the text into the pipe, and no sidecar.
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
        try:
            save_model(path, TopicMatrix(np.array([[0.25, 0.75]])))
        finally:
            reader.join(timeout=10)
        assert got == [(MODEL_HEAD + "1 2\n" + ROW).encode()]
        assert os.listdir(tmp_path) == ["m.txt"]

    def test_no_hash_pass_without_a_sidecar_where_none_can_be_written(self, tmp_path, monkeypatch):
        # os.access is patched, not chmod: these tests run as root.
        path, rows = self.model(tmp_path)
        hashed = []
        real = corpus_io._file_digest
        monkeypatch.setattr(corpus_io, "_file_digest", lambda fh, h: hashed.append(fh) or real(fh, h))
        monkeypatch.setattr(corpus_io.os, "access", lambda where, mode: False)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes()
        assert hashed == [] and os.listdir(tmp_path) == ["m.txt"]
        # A sidecar that is there is still checked, and read.
        forge_sidecar(path, rows)
        parses = count_parses(monkeypatch)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes()
        assert len(hashed) == 1 and parses == []

    def test_temporary_file_is_never_opened_through_a_link(self, tmp_path, monkeypatch):
        # A link planted at the temporary file's name is neither followed
        # nor removed: the load returns the file's rows and writes nothing.
        path, rows = self.model(tmp_path)
        victim = write(tmp_path / "victim", "kept\n")
        link = Path(f"{sidecar_path(path)}.{bytes(8).hex()}.tmp")
        link.symlink_to(victim)
        monkeypatch.setattr(corpus_io.os, "urandom", bytes)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes()
        assert victim.read_text() == "kept\n" and link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == sorted(["m.txt", "victim", link.name])

    def test_digest_streams_blocks(self, tmp_path):
        data = np.random.default_rng(83).bytes(2 * corpus_io._HASH_BLOCK + 12345)
        (tmp_path / "blob").write_bytes(data)
        with open(tmp_path / "blob", "rb") as fh:
            assert corpus_io._file_digest(fh, hashlib.sha256()) == hashlib.sha256(data).digest()

    def test_threads_loading_one_model_at_once(self, tmp_path, monkeypatch):
        # More loaders than cores, cold at once, each writing its own
        # temporary file before os.replace: every load returns the file's
        # rows, and one whole sidecar is left.
        rng = np.random.default_rng(84)
        rows = TopicMatrix.normalized(rng.dirichlet(np.full(400, 0.3), size=100)).rows
        path = save_text(tmp_path / "m.txt", TopicMatrix(rows))
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            loaders = [
                threading.Thread(target=lambda: results.extend(load_model(path).topics.rows.tobytes() for _ in range(2)))
                for _ in range(6)
            ]
            for t in loaders:
                t.start()
            for t in loaders:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in loaders)
        assert results == [rows.tobytes()] * 12
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "m.txt.sidecar"]
        parses = count_parses(monkeypatch)
        assert load_model(path).topics.rows.tobytes() == rows.tobytes() and parses == []

    def test_sidecar_rows_are_read_into_memory(self, tmp_path):
        # Not a memory map: the rows stay when the sidecar is replaced.
        path, rows = self.model(tmp_path)
        load_model(path)
        loaded = load_model(path).topics.rows
        assert loaded.base is None
        Path(sidecar_path(path)).write_bytes(b"")
        os.remove(sidecar_path(path))
        assert loaded.tobytes() == rows.tobytes()


def test_importing_the_package_leaves_hashlib_unloaded():
    # load_model imports hashlib on its first call, not at import time.
    code = "import sys, sparsetopics; print('hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(sparsetopics.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestPriorFiles:
    def test_precision_only(self, tmp_path):
        prior = load_prior(write(tmp_path / "p.txt", "2.0 0.5\n0.5 2.0\n"))
        assert prior.mean is None
        assert np.array_equal(prior.precision, [[2.0, 0.5], [0.5, 2.0]])

    def test_precision_with_mean(self, tmp_path):
        text = "2.0 0.5\n0.5 2.0\n-1.0 0.25\n"
        prior = load_prior(write(tmp_path / "p.txt", text))
        assert np.array_equal(prior.mean, [-1.0, 0.25])

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_prior(write(tmp_path / "p.txt", "1.0 0.0\n0.0\n"))

    def test_non_numeric(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="non-numeric"):
            load_prior(write(tmp_path / "p.txt", "1.0 x\n0.0 1.0\n"))

    @pytest.mark.parametrize("entry", ["1_0", "\uff11", "1\u0660"])
    def test_numbers_follow_the_corpus_grammar(self, tmp_path, entry):
        # float() reads "1_0" as 10.0 and fullwidth or Arabic-Indic digits
        # as ASCII ones; corpus and model files refuse them
        with pytest.raises(CorpusFormatError, match="non-numeric") as info:
            load_prior(write(tmp_path / "p.txt", f"1 0\n0 {entry}\n"))
        assert info.value.line == 2

    def test_wrong_row_count(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="2 rows"):
            load_prior(write(tmp_path / "p.txt", "1.0 0.0\n0.0 1.0\n0.1 0.1\n0.2 0.2\n"))

    def test_empty(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="empty"):
            load_prior(write(tmp_path / "p.txt", "\n"))

    @pytest.mark.parametrize("text, line", [
        ("1 0\n0 nan\n", 2),
        ("1 0\n\n0 1\n1e400 0\n", 4),
        ("inf 0\n0 1\n", 1),
    ])
    def test_non_finite_entry_names_its_line(self, tmp_path, text, line):
        with pytest.raises(CorpusFormatError, match="non-finite") as info:
            load_prior(write(tmp_path / "p.txt", text))
        assert info.value.line == line

    def test_indefinite_precision_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            load_prior(write(tmp_path / "p.txt", "1.0 2.0\n2.0 1.0\n"))


class TestReportWriters:
    def test_proportions_format(self, tmp_path):
        points = [
            TopicProportion.from_dense(np.array([0.25, 0.0, 0.75])),
            TopicProportion.from_dense(np.array([0.0, 1.0, 0.0])),
        ]
        path = tmp_path / "theta.txt"
        write_proportions(path, points)
        lines = path.read_text().splitlines()
        assert lines[0] == "1 1:0.25 3:0.75"
        assert lines[1] == "2 2:1"

    def test_proportions_custom_ids(self, tmp_path):
        points = [TopicProportion.from_dense(np.array([1.0]))]
        path = tmp_path / "theta.txt"
        write_proportions(path, points, doc_ids=[41])
        assert path.read_text().splitlines() == ["41 1:1"]

    def test_write_theta_from_reports(self, tmp_path):
        topics = TopicMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        doc = Document(np.array([0, 1]), np.array([3.0, 1.0]))
        report, _ = fw_solve(ml_objective(doc, topics))
        path = tmp_path / "theta.txt"
        write_theta(path, [report])
        first = path.read_text().splitlines()[0].split()
        assert first[0] == "1"
        weights = dict(cell.split(":") for cell in first[1:])
        assert float(weights["1"]) == pytest.approx(0.8125, abs=1e-6)

    def test_likelihood_csv(self, tmp_path):
        path = tmp_path / "ll.csv"
        write_likelihood_csv(path, [-10.5, -9.25])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["iteration", "log_likelihood"],
            ["1", "-10.5"],
            ["2", "-9.25"],
        ]

    def test_eval_csv(self, tmp_path):
        report = EvalReport(
            perplexity=12.5,
            mean_sparsity=0.5,
            mean_nnz=2.0,
            total_seconds=0.125,
            docs=(DocEval(0, -3.0, 4.0, 2, 7, 0.125),),
        )
        results = [MethodResult(method="fw", cap=100, report=report)]
        path = tmp_path / "eval.csv"
        write_eval_csv(path, results)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "cap", "perplexity", "sparsity", "mean_nnz", "seconds"]
        assert rows[1][:3] == ["fw", "100", "12.5"]
