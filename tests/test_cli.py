import csv

import numpy as np
import pytest

from sparsetopics import load_model, load_uci_bow
from sparsetopics.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic corpus plus a trained model, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "synth",
            "--topics", "3",
            "--vocab", "30",
            "--docs", "12",
            "--len", "40",
            "--seed", "1",
            "--out-prefix", str(root / "toy"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--corpus", str(root / "toy.docword.txt"),
            "--vocab", str(root / "toy.vocab.txt"),
            "--topics", "3",
            "--em-iters", "5",
            "--seed", "0",
            "--out", str(root / "fit.model.txt"),
        ]
    )
    assert rc == 0
    return root


def corpus_args(workdir):
    return [
        "--corpus", str(workdir / "toy.docword.txt"),
        "--vocab", str(workdir / "toy.vocab.txt"),
        "--model", str(workdir / "fit.model.txt"),
    ]


class TestSynth:
    def test_outputs_parse_back(self, workdir):
        corpus = load_uci_bow(workdir / "toy.docword.txt", workdir / "toy.vocab.txt")
        assert len(corpus.documents) == 12
        assert corpus.vocabulary.size == 30
        model = load_model(workdir / "toy.model.txt")
        assert model.topics.num_topics == 3
        assert model.metadata == {"kind": "synthetic"}
        theta_lines = (workdir / "toy.theta.txt").read_text().splitlines()
        assert len(theta_lines) == 12

    def test_bad_arguments_exit_code(self, tmp_path):
        rc = main(
            [
                "synth",
                "--topics", "0",
                "--vocab", "10",
                "--docs", "2",
                "--len", "5",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert rc == 2


class TestTrain:
    def test_writes_model_and_trace(self, workdir):
        model = load_model(workdir / "fit.model.txt")
        assert model.topics.num_topics == 3
        assert model.metadata == {"topics": 3}
        with open(str(workdir / "fit.model.txt") + ".trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "log_likelihood"]
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) >= 1
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestInfer:
    def test_ml_with_support_cap(self, workdir, capsys):
        out = workdir / "theta.ml.txt"
        rc = main(
            ["infer", *corpus_args(workdir), "--max-nnz", "2", "--out", str(out)]
        )
        assert rc == 0
        assert "inferred 12 documents" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            cells = line.split()
            assert 1 <= len(cells) - 1 <= 2
            weights = [float(c.split(":")[1]) for c in cells[1:]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_support_cap_with_a_dense_start_is_an_error(self, workdir, capsys):
        out = workdir / "theta.capped-map.txt"
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "lda-map",
                "--alpha", "2",
                "--max-nnz", "2",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "max_nnz" in capsys.readouterr().err
        assert not out.exists()

    def test_lda_map(self, workdir):
        out = workdir / "theta.map.txt"
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "lda-map",
                "--alpha", "2.0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        # the prior keeps every topic active
        for line in out.read_text().splitlines():
            assert len(line.split()) - 1 == 3

    def test_sparsifying_alpha_is_an_error(self, workdir, capsys):
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "lda-map",
                "--alpha", "0.5",
                "--out", str(workdir / "nope.txt"),
            ]
        )
        assert rc == 2
        assert "nonconcave-prior" in capsys.readouterr().err

    def test_ctm_requires_prior(self, workdir, capsys):
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "ctm",
                "--out", str(workdir / "nope.txt"),
            ]
        )
        assert rc == 2
        assert "--prior" in capsys.readouterr().err

    def test_ctm_zero_mean(self, workdir):
        prior = workdir / "prior.txt"
        prior.write_text("1 0 0\n0 1 0\n0 0 1\n")
        out = workdir / "theta.ctm.txt"
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "ctm",
                "--prior", str(prior),
                "--out", str(out),
            ]
        )
        assert rc == 0
        for line in out.read_text().splitlines():
            assert len(line.split()) - 1 == 3

    def test_mixed_sign_ctm_prior_is_an_error(self, workdir, capsys):
        # SPD, but the negative entries make the penalty nonconcave
        prior = workdir / "prior.mixed.txt"
        prior.write_text("2 -1.9 0\n-1.9 2 0\n0 0 1\n")
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "ctm",
                "--prior", str(prior),
                "--out", str(workdir / "nope.txt"),
            ]
        )
        assert rc == 2
        assert "nonconcave-prior" in capsys.readouterr().err

    def test_ctm_with_mean_caps_support(self, workdir):
        prior = workdir / "prior.mean.txt"
        prior.write_text("1 0 0\n0 1 0\n0 0 1\n-2.0 0 0\n")
        out = workdir / "theta.ctm2.txt"
        rc = main(
            [
                "infer", *corpus_args(workdir),
                "--objective", "ctm",
                "--prior", str(prior),
                "--out", str(out),
            ]
        )
        assert rc == 0
        cap = float(np.exp(-2.0))
        for line in out.read_text().splitlines():
            weights = dict(c.split(":") for c in line.split()[1:])
            assert float(weights["1"]) <= cap + 1e-9

    def test_interior_objective_rejects_vertex_start(self, workdir, capsys):
        # a CTM prior with a mean is solved over its caps, and the vertex
        # start is refused there too
        prior = workdir / "prior.vertex.txt"
        prior.write_text("1 0 0\n0 1 0\n0 0 1\n-2.0 0 0\n")
        for objective in (["lda-map", "--alpha", "2.0"], ["ctm", "--prior", str(prior)]):
            out = workdir / "nope.txt"
            rc = main(
                [
                    "infer", *corpus_args(workdir),
                    "--objective", *objective,
                    "--start", "vertex",
                    "--out", str(out),
                ]
            )
            assert rc == 2
            assert "barycenter" in capsys.readouterr().err
            assert not out.exists()


class TestEval:
    def test_stdout_csv(self, workdir, capsys):
        rc = main(["eval", *corpus_args(workdir), "--iters", "100"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["method", "cap", "perplexity", "sparsity", "mean_nnz", "seconds"]
        assert [r[0] for r in rows[1:]] == ["fw", "folding", "vb"]

    def test_out_file_and_method_subset(self, workdir, capsys):
        out = workdir / "eval.csv"
        rc = main(
            ["eval", *corpus_args(workdir), "--methods", "fw,vb", "--out", str(out)]
        )
        assert rc == 0
        assert f"wrote {out}" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["fw", "vb"]

    def test_unknown_method(self, workdir, capsys):
        rc = main(["eval", *corpus_args(workdir), "--methods", "gibbs"])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err


class TestTradeoff:
    def test_stdout_rows(self, workdir, capsys):
        rc = main(["tradeoff", *corpus_args(workdir), "--caps", "1,2,8"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[1] for r in rows[1:]] == ["1", "2", "8"]
        perps = [float(r[2]) for r in rows[1:]]
        assert perps[-1] <= perps[0] + 1e-9

    def test_bad_caps(self, workdir, capsys):
        rc = main(["tradeoff", *corpus_args(workdir), "--caps", "8,2"])
        assert rc == 2
        assert "increasing" in capsys.readouterr().err

    def test_non_integer_caps(self, workdir, capsys):
        rc = main(["tradeoff", *corpus_args(workdir), "--caps", "a,b"])
        assert rc == 2


class TestParser:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_vocab_size_mismatch(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.docword.txt"
        bad.write_text("1\n5\n1\n1 1 2\n")
        rc = main(
            [
                "eval",
                "--corpus", str(bad),
                "--model", str(workdir / "fit.model.txt"),
            ]
        )
        assert rc == 2
        assert "expects 30" in capsys.readouterr().err
