"""Property tests: solver invariants on random ML and certified-CTM
instances, down to K = 1, single-term documents and counts from 1e-300 to
1e300, and bitwise round trips through the corpus, model and prior
files."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsetopics import (
    Corpus,
    CorpusFormatError,
    CtmPrior,
    Document,
    ModelFormatError,
    SolverConfig,
    TopicMatrix,
    Vocabulary,
    ctm_caps,
    ctm_full_objective,
    fw_solve,
    load_model,
    load_prior,
    load_uci_bow,
    ml_objective,
    save_model,
    save_uci_bow,
)
from sparsetopics.core import EPS_BETA, SIMPLEX_TOL
from sparsetopics.corpus_io import _ROWS_PER_PARSE, sidecar_path
from sparsetopics.objectives import solve_steps

from helpers import objectives

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
CONFIG = SolverConfig(max_iters=200, rel_tol=1e-9)
# CTM objectives are interior-only, so they start from the barycenter.
CTM_CONFIG = SolverConfig(max_iters=200, rel_tol=1e-9, start="barycenter")


@st.composite
def topic_matrices(draw, k):
    v = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    concentration = draw(st.sampled_from([0.05, 1.0, 50.0]))
    raw = rng.dirichlet(np.full(v, concentration), size=k)
    if k > 1 and draw(st.booleans()):
        # a near-duplicate topic
        raw[1] = raw[0] * (1.0 + 1e-12 * rng.random(v))
    return TopicMatrix.normalized(raw)


@st.composite
def documents(draw, v):
    n = draw(st.integers(1, v))
    ids = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n, unique=True))
    exponents = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
    mantissas = draw(st.lists(st.floats(1.0, 9.99), min_size=n, max_size=n))
    counts = np.array(mantissas) * 10.0 ** np.array(exponents, dtype=np.float64)
    order = np.argsort(ids)
    return Document(np.array(ids, dtype=np.int64)[order], counts[order])


@st.composite
def ml_instances(draw):
    topics = draw(topic_matrices(draw(st.integers(1, 6))))
    return topics, draw(documents(topics.vocab_size))


@st.composite
def certified_priors(draw, k, with_mean):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((k, k)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    mean = None
    if with_mean:
        # caps min(1, exp(mean)) summing to at least one
        mean = np.log(rng.uniform(1.0 / k, 1.5, size=k))
    return CtmPrior(a @ a.T + np.eye(k), mean=mean)


def assert_on_simplex(report, k):
    theta = report.theta.dense(k)
    assert np.all(theta >= 0.0)
    assert abs(theta.sum() - 1.0) <= SIMPLEX_TOL


def assert_monotone(trace):
    assert np.all(np.diff(objectives(trace)) >= 0.0)


class TestMlInvariants:
    @SETTINGS
    @given(ml_instances())
    def test_vertex_start(self, instance):
        topics, doc = instance
        report, trace = fw_solve(ml_objective(doc, topics), config=CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert report.nnz <= report.iterations + 1
        for record in trace:
            assert record.nnz <= record.iteration + 1
        assert_monotone(trace)

    @SETTINGS
    @given(ml_instances())
    def test_barycenter_start(self, instance):
        topics, doc = instance
        config = SolverConfig(max_iters=200, rel_tol=1e-9, start="barycenter")
        report, trace = fw_solve(ml_objective(doc, topics), config=config)
        assert_on_simplex(report, topics.num_topics)
        assert_monotone(trace)


@st.composite
def vertex_instances(draw):
    """A likelihood whose best vertex is contested: up to 60 topics over as
    many as 5,000 terms, counts from 1e-300 to 1e300 (spread over up to
    300 decades within a document), and a copy of the best row at another
    index, exact, one ulp up in one entry, or a float32 rounding apart."""
    k = draw(st.integers(1, 60))
    v = draw(st.sampled_from([1, 3, 40, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = TopicMatrix.normalized(rng.dirichlet(np.full(v, draw(st.sampled_from([0.05, 1.0, 50.0]))), size=k)).rows
    n = draw(st.integers(1, min(v, 5000)))
    ids = np.sort(rng.choice(v, size=n, replace=False)).astype(np.int64)
    top = draw(st.integers(-300, 300))
    exponents = np.maximum(top - rng.integers(0, draw(st.sampled_from([0, 2, 300])) + 1, size=n), -300)
    doc = Document(ids, rng.uniform(1.0, 9.99, size=n) * 10.0 ** exponents.astype(np.float64))
    copy = draw(st.sampled_from(["none", "exact", "ulp", "float32"]))
    if k > 1 and copy != "none":
        rows = np.array(rows)
        best = int(np.argmax(np.log(rows[:, ids]) @ doc.counts))
        other = (best + draw(st.integers(1, k - 1))) % k
        rows[other] = rows[best]
        j = ids[draw(st.integers(0, n - 1))]
        if copy == "ulp":
            rows[other, j] = np.nextafter(rows[other, j], 1.0)
        elif copy == "float32" and v > 1:
            # moved by about a float32 rounding, the row sum kept by the
            # largest other entry
            moved = max(rows[other, j] * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 2.0**-24), EPS_BETA)
            donor = int(np.argmax(np.where(np.arange(v) == j, -1.0, rows[other])))
            rows[other, donor] -= moved - rows[other, j]
            rows[other, j] = moved
    return TopicMatrix(rows), doc


class TestBestVertex:
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(vertex_instances())
    def test_is_the_value_loops_argmax(self, instance):
        # the screen may leave out only vertices that can neither tie nor
        # beat the winner, and ties go to the lowest index, as np.argmax's
        topics, doc = instance
        k = topics.num_topics
        loop = [ml_objective(doc, topics).value(np.eye(k)[i]) for i in range(k)]
        f = ml_objective(doc, topics)
        attributes = {name: id(v) for name, v in vars(f).items()}
        winner = f.best_vertex()
        assert winner == int(np.argmax(loop))
        # with nothing written on the objective: the carried steps take the
        # winner's row as the mixture value() forms at e_k, and the start's
        # value from it
        assert {name: id(v) for name, v in vars(f).items()} == attributes
        steps = solve_steps(f, np.eye(k)[winner], winner)
        assert steps._state.tobytes() == (np.eye(k)[winner] @ f.term_columns).tobytes()
        assert steps.value(np.eye(k)[winner]) == loop[winner]


class TestCtmInvariants:
    @SETTINGS
    @given(st.data())
    def test_zero_mean(self, data):
        topics, doc = data.draw(ml_instances())
        prior = data.draw(certified_priors(topics.num_topics, with_mean=False))
        report, trace = fw_solve(ctm_full_objective(doc, topics, prior), config=CTM_CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert_monotone(trace)

    @SETTINGS
    @given(st.data())
    def test_capped(self, data):
        # a prior with a mean is solved over its own caps by default
        topics, doc = data.draw(ml_instances())
        prior = data.draw(certified_priors(topics.num_topics, with_mean=True))
        caps = ctm_caps(prior)
        report, trace = fw_solve(ctm_full_objective(doc, topics, prior), CTM_CONFIG)
        assert_on_simplex(report, topics.num_topics)
        assert np.all(report.theta.dense(topics.num_topics) <= caps * (1.0 + 1e-12))
        assert_monotone(trace)



def round_trip(save, load):
    """load(path) of the file save(path) wrote, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        save(path)
        return load(path)


class TestFileRoundTrips:
    @SETTINGS
    @given(st.data())
    def test_corpus(self, data):
        v = data.draw(st.integers(1, 8))
        docs = data.draw(st.lists(documents(v), min_size=1, max_size=4))
        corpus = Corpus(Vocabulary(tuple(f"w{j}" for j in range(1, v + 1))), docs)
        loaded = round_trip(lambda p: save_uci_bow(p, corpus), load_uci_bow)
        assert loaded.vocabulary == corpus.vocabulary
        assert loaded.doc_ids == corpus.doc_ids
        for got, doc in zip(loaded.documents, corpus.documents, strict=True):
            assert np.array_equal(got.term_ids, doc.term_ids)
            assert got.counts.tobytes() == doc.counts.tobytes()

    @SETTINGS
    @given(st.integers(1, 6).flatmap(topic_matrices))
    def test_model(self, topics):
        def loads(path):
            primed = load_model(path)  # from the sidecar save_model wrote
            os.remove(sidecar_path(path))
            return primed, load_model(path)  # parsed from the text

        for loaded in round_trip(lambda p: save_model(p, topics), loads):
            assert loaded.topics.rows.tobytes() == topics.rows.tobytes()
            assert loaded.topics.rows.shape == topics.rows.shape

    @SETTINGS
    @given(st.data())
    def test_prior(self, data):
        k = data.draw(st.integers(1, 6))
        prior = data.draw(certified_priors(k, with_mean=data.draw(st.booleans())))
        rows = list(prior.precision) + ([] if prior.mean is None else [prior.mean])

        def save(path):
            path.write_text("".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in rows))

        loaded = round_trip(save, load_prior)
        assert loaded.precision.tobytes() == prior.precision.tobytes()
        if prior.mean is None:
            assert loaded.mean is None
        else:
            assert loaded.mean.tobytes() == prior.mean.tobytes()


# load_model parses _ROWS_PER_PARSE rows per call of numpy's reader; these
# K put the last row just before, on and just after a chunk boundary.
CHUNK_KS = (_ROWS_PER_PARSE - 1, _ROWS_PER_PARSE, _ROWS_PER_PARSE + 1, 2 * _ROWS_PER_PARSE + 1)
ROW_FAULTS = ("short row", "extra entry", "non-numeric token", "blank row", "early end of file")


@st.composite
def model_tokens(draw):
    """The token rows of a valid K x V model, K from CHUNK_KS."""
    k = draw(st.sampled_from(CHUNK_KS))
    v = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.dirichlet(np.full(v, draw(st.sampled_from([0.05, 1.0]))), size=k)
    form = draw(st.sampled_from(["{:.17g}", "{:.16e}", "{!r}"]))
    return [[form.format(float(x)) for x in row] for row in TopicMatrix.normalized(raw).rows]


def model_text(k, v, lines):
    return f"sparsetopics-model 1\n{k} {v}\n" + "".join(line + "\n" for line in lines)


class TestModelChunkBoundaries:
    @SETTINGS
    @given(model_tokens())
    def test_valid_file_loads_float_of_each_token(self, tokens):
        k, v = len(tokens), len(tokens[0])
        text = model_text(k, v, [" ".join(row) for row in tokens])
        loaded = round_trip(lambda p: p.write_text(text), load_model).topics.rows
        expected = np.array([[float(t) for t in row] for row in tokens])
        assert loaded.shape == (k, v)
        assert loaded.tobytes() == expected.tobytes()

    @SETTINGS
    @given(model_tokens(), st.sampled_from(ROW_FAULTS), st.data())
    def test_one_fault_at_a_chunk_edge_names_its_row(self, tokens, fault, data):
        k, v = len(tokens), len(tokens[0])
        firsts = range(0, k, _ROWS_PER_PARSE)
        edges = sorted({*firsts, *(min(first + _ROWS_PER_PARSE, k) - 1 for first in firsts)})
        r = data.draw(st.sampled_from(edges))
        lines = [" ".join(row) for row in tokens]
        ends_early = f"model file ends early: expected {k} rows, found {r}"
        if fault == "short row":
            lines[r] = " ".join(tokens[r][:-1])
            message = f"row {r} has {v - 1} entries, expected {v}"
        elif fault == "extra entry":
            lines[r] += " 0.5"
            message = f"row {r} has {v + 1} entries, expected {v}"
        elif fault == "non-numeric token":
            row = list(tokens[r])
            row[data.draw(st.integers(0, v - 1))] = data.draw(st.sampled_from(["x", "0.5.5", "1_0", "--1"]))
            lines[r] = " ".join(row)
            message = f"row {r} holds a non-numeric entry"
        elif fault == "blank row":
            lines[r] = ""
            message = ends_early
        else:
            lines = lines[:r]
            message = ends_early
        text = model_text(k, v, lines)
        with pytest.raises(ModelFormatError) as info:
            round_trip(lambda p: p.write_text(text), load_model)
        assert str(info.value) == message


# One fault in an otherwise valid bag-of-words or prior file.
FILE_FAULTS = (
    "short row", "long row", "empty token", "non-numeric token", "non-finite token",
    "extra row", "missing row", "blank-only file",
)
NON_NUMERIC = ("x", "1.2.3", "--1", "one", "0x10")
NON_FINITE = ("nan", "inf", "-inf", "1e400", "NaN")


def assert_names_line(load, text, line, message=None):
    """load refuses text with a package error naming line (None: a file
    that ends early, which has no bad line)."""
    with pytest.raises(ValueError) as info:
        round_trip(lambda p: p.write_text(text), load)
    assert type(info.value).__module__ == "sparsetopics.errors"
    assert isinstance(info.value, CorpusFormatError)
    assert info.value.line == line
    if message is not None:
        assert message in str(info.value)


def faulty_row(data, tokens, fault):
    """tokens with one fault of the row kind applied."""
    tokens = list(tokens)
    i = data.draw(st.integers(0, len(tokens) - 1))
    if fault == "short row":
        del tokens[i]
    elif fault == "long row":
        tokens.insert(i, tokens[i])
    elif fault == "empty token":
        tokens[i] = ""
    elif fault == "non-numeric token":
        tokens[i] = data.draw(st.sampled_from(NON_NUMERIC))
    else:
        tokens[i] = data.draw(st.sampled_from(NON_FINITE))
    return " ".join(tokens)


def with_blank_lines(data, rows):
    """rows as file lines, with blank lines drawn in between; returns the
    lines and each row's 1-based line number."""
    lines, numbers = [], []
    for row in rows:
        for _ in range(data.draw(st.integers(0, 1))):
            lines.append(data.draw(st.sampled_from(["", "  ", "\t"])))
        lines.append(row)
        numbers.append(len(lines))
    return lines, numbers


class TestMalformedFiles:
    """One fault in a valid file: the loader raises a CorpusFormatError
    naming the first bad line, never a bare numpy or Python error."""

    @SETTINGS
    @given(st.sampled_from(FILE_FAULTS), st.data())
    def test_bag_of_words(self, fault, data):
        num_docs, v = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 6))
        triples = [
            [str(data.draw(st.integers(1, num_docs))), str(data.draw(st.integers(1, v))),
             repr(data.draw(st.floats(1e-3, 1e3)))]
            for _ in range(n)
        ]
        header = [str(num_docs), str(v), str(n)]
        if fault == "blank-only file":
            text = "\n" * data.draw(st.integers(0, 5))
            assert_names_line(load_uci_bow, text, 1)
            return
        rows = [" ".join(t) for t in triples]
        bad = data.draw(st.integers(0, n - 1))
        line = None
        if fault == "extra row":
            rows.append(rows[bad])
            bad = n
        elif fault == "missing row":
            del rows[bad]
        else:
            rows[bad] = faulty_row(data, triples[bad], fault)
        lines, numbers = with_blank_lines(data, rows)
        if fault != "missing row":
            line = 3 + numbers[bad]
        text = "".join(row + "\n" for row in header + lines)
        assert_names_line(load_uci_bow, text, line, None if line else f"declared {n} triples but found {n - 1}")

    @SETTINGS
    @given(st.sampled_from(FILE_FAULTS), st.booleans(), st.data())
    def test_prior(self, fault, with_mean, data):
        k = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = [[repr(float(x)) for x in row] for row in rng.normal(size=(k + with_mean, k))]
        if fault == "blank-only file":
            text = "\n" * data.draw(st.integers(0, 5))
            assert_names_line(load_prior, text, 1, "empty prior file")
            return
        lines = [" ".join(row) for row in rows]
        bad = data.draw(st.integers(0, len(rows) - 1))
        if fault == "extra row":
            # one row past precision plus mean
            lines += [lines[bad]] * (2 - with_mean)
            bad = k + 1
        elif fault == "missing row":
            # fewer rows than a precision needs
            lines = lines[: k - 1]
        else:
            lines[bad] = faulty_row(data, rows[bad], fault)
            if bad == 0 and fault in ("short row", "long row", "empty token"):
                # every row must match the first, so the second is at fault
                bad = 1
        lines, numbers = with_blank_lines(data, lines)
        line = None if fault == "missing row" else numbers[bad]
        text = "".join(row + "\n" for row in lines)
        assert_names_line(load_prior, text, line, f"found {k - 1}" if line is None else None)
