import csv

import numpy as np
import pytest

from sparsetopics import SolverConfig, TrainConfig, fw_solve, lda_map_objective, load_model, load_uci_bow, write_theta
from sparsetopics.cli import build_parser, main


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

    def test_lines_keep_the_file_ids_past_an_empty_document(self, workdir, tmp_path):
        # document 2 has no triples, so the loader drops it
        corpus = tmp_path / "gap.docword.txt"
        corpus.write_text("3\n30\n4\n1 1 3\n1 2 1\n3 20 2\n3 30 5\n")
        out = tmp_path / "theta.txt"
        args = ["--corpus", str(corpus), "--model", str(workdir / "fit.model.txt")]
        with pytest.warns(UserWarning, match="dropped 1 empty"):
            rc = main(["infer", *args, "--out", str(out)])
        assert rc == 0
        assert [line.split()[0] for line in out.read_text().splitlines()] == ["1", "3"]

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
        assert "error: --max-nnz applies to" in capsys.readouterr().err
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

    def test_lda_map_derives_the_barycenter_start(self, workdir):
        # infer leaves the start to fw_solve, which derives the barycenter
        # for an interior-only objective
        out = workdir / "theta.map-cli.txt"
        args = ["--objective", "lda-map", "--alpha", "2", "--out", str(out)]
        assert main(["infer", *corpus_args(workdir), *args]) == 0
        corpus = load_uci_bow(workdir / "toy.docword.txt", workdir / "toy.vocab.txt")
        topics = load_model(workdir / "fit.model.txt").topics
        solves = [fw_solve(lda_map_objective(d, topics, 2.0), SolverConfig()) for d in corpus.documents]
        assert all(trace[0].vertex == -1 for _, trace in solves)
        want = workdir / "theta.map-library.txt"
        write_theta(want, [report for report, _ in solves], corpus.doc_ids)
        assert out.read_bytes() == want.read_bytes()

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

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--objective", "ml", "--alpha", "0.5"], "--alpha"),
            (["--alpha", "2"], "--alpha"),
            (["--objective", "ctm", "--prior", "no-such-prior.txt", "--alpha", "3"], "--alpha"),
            (["--objective", "ml", "--prior", "no-such-prior.txt"], "--prior"),
            (["--objective", "lda-map", "--alpha", "2", "--prior", "no-such-prior.txt"], "--prior"),
            (["--objective", "ctm", "--prior", "no-such-prior.txt", "--max-nnz", "2"], "--max-nnz"),
            (["--objective", "lda-map", "--alpha", "2", "--max-nnz", "2", "--model", "no-such-model.txt"], "--max-nnz"),
        ],
    )
    def test_a_setting_the_objective_cannot_use_is_refused(self, workdir, capsys, flags, flag):
        # refused before any file is read, so the missing prior or model is not the error
        out = workdir / "unused.txt"
        assert main(["infer", *corpus_args(workdir), *flags, "--out", str(out)]) == 2
        assert f"error: {flag} applies to" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--methods", "fw", "--alpha", "0.5"], "--alpha applies to the vb method only"),
            (["--methods", "fw,folding", "--alpha", "2"], "--alpha applies to the vb method only"),
            (["--alpha", "0.5", "--methods", ""], "--methods names no method"),
            (["--methods", " , "], "--methods names no method"),
            (["--methods", "fw,fw"], "--methods names a method twice: fw,fw"),
            (["--methods", "vb, fw,vb", "--alpha", "2"], "--methods names a method twice"),
            (["--methods", "fw,gibbs"], "unknown method: 'gibbs'"),
        ],
    )
    def test_a_setting_no_method_uses_is_refused(self, tmp_path, capsys, flags, message):
        # refused before any file is read, so the missing model is not the error;
        # the message is compare_methods's, which names the flag's parameter
        out = tmp_path / "eval.csv"
        args = ["--corpus", "no-such-corpus.txt", "--model", "no-such-model.txt"]
        assert main(["eval", *args, *flags, "--out", str(out)]) == 2
        assert f"error: {message.removeprefix('--')}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_vb_objective_past_the_largest_float_is_an_error(self, tmp_path, capsys):
        # Both topics put 1e-10 on the one term, counted 1e308 times, so vb's
        # point estimate values to -inf: exit status 2, no perplexity.
        model, corpus = tmp_path / "vb.model.txt", tmp_path / "big.docword.txt"
        model.write_text("sparsetopics-model 1\n2 2\n1e-10 0.9999999999\n1e-10 0.9999999999\n")
        corpus.write_text("1\n2\n1\n1 1 1e308\n")
        with np.errstate(all="ignore"):
            rc = main(["eval", "--corpus", str(corpus), "--model", str(model), "--methods", "vb"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "error: objective is -inf" in err and out == ""

    def test_alpha_with_vb_is_used(self, workdir, capsys):
        rc = main(["eval", *corpus_args(workdir), "--methods", "vb", "--alpha", "2"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[0] for r in rows[1:]] == ["vb"]


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


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("infer", ["--tol", "inf"], "rel_tol must be finite and positive"),
            ("eval", ["--tol", "inf"], "rel_tol must be finite and positive"),
            ("train", ["--tol", "inf"], "rel_tol must be finite and positive"),
            ("train", ["--em-tol", "inf"], "em_rel_tol must be finite and positive"),
            ("tradeoff", ["--caps", "1,2", "--tol", "inf"], "rel_tol must be finite and positive"),
        ],
    )
    def test_an_infinite_tolerance_is_refused(self, workdir, tmp_path, capsys, command, flags, message):
        args = corpus_args(workdir)
        if command == "train":
            args = args[:4] + ["--topics", "3"]
        out = tmp_path / "out.txt"
        assert main([command, *args, *flags, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--doc-alpha", "--concentration"])
    def test_an_infinite_concentration_is_refused(self, tmp_path, capsys, flag):
        argv = ["synth", "--topics", "2", "--vocab", "5", "--docs", "2", "--len", "5"]
        assert main([*argv, flag, "inf", "--out-prefix", str(tmp_path / "x")]) == 2
        assert "error: Dirichlet concentrations must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRefusedBeforeAnyFile:
    """A bad setting exits 2 with its own message before the corpus or
    the model is read: with missing files the error is still the
    setting's, and with present ones no model sidecar is written."""

    CASES = [
        ("infer", ["--tol", "inf"], "rel_tol must be finite and positive"),
        ("infer", ["--iters", "0"], "max_iters must be at least 1"),
        ("infer", ["--max-nnz", "0"], "max_nnz must be at least 1 when set"),
        ("eval", ["--tol", "inf"], "rel_tol must be finite and positive"),
        ("train", ["--tol", "inf"], "rel_tol must be finite and positive"),
        ("train", ["--em-tol", "inf"], "em_rel_tol must be finite and positive"),
        ("train", ["--topics", "0"], "need at least one topic"),
        ("tradeoff", ["--caps", "2,1"], "caps must be strictly increasing"),
        ("tradeoff", ["--caps", "0,1"], "caps must be positive integers"),
        ("tradeoff", ["--caps", "1,x"], "bad --caps value: '1,x'"),
        ("tradeoff", ["--caps", "1,2", "--tol", "inf"], "rel_tol must be finite and positive"),
    ]

    @pytest.mark.parametrize("files", ["missing", "present"])
    @pytest.mark.parametrize("command, flags, message", CASES)
    def test_refused_before_reading(self, workdir, tmp_path, capsys, files, command, flags, message):
        corpus, model = tmp_path / "toy.docword.txt", tmp_path / "m.txt"
        if files == "present":
            corpus.write_bytes((workdir / "toy.docword.txt").read_bytes())
            model.write_bytes((workdir / "fit.model.txt").read_bytes())
        args = ["--corpus", str(corpus)]
        args += ["--topics", "3"] if command == "train" else ["--model", str(model)]
        out = tmp_path / "out.txt"
        assert main([command, *args, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["m.txt", "toy.docword.txt"] if files == "present" else [])


class TestParser:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_train_has_one_m_step_and_no_option_for_it(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", str(workdir / "toy.docword.txt"), "--topics", "2",
                  "--m-step", "hard", "--out", str(tmp_path / "m.txt")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--corpus", "c", "--topics", "2", "--out", "m"],
            ["infer", "--corpus", "c", "--model", "m", "--out", "t"],
            ["eval", "--corpus", "c", "--model", "m"],
            ["tradeoff", "--corpus", "c", "--model", "m", "--caps", "1,2"],
        ],
    )
    def test_stop_flags_default_to_the_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert args.tol == SolverConfig().rel_tol
        if argv[0] != "tradeoff":
            assert args.iters == SolverConfig().max_iters
        if argv[0] == "train":
            config = TrainConfig(topics=1)
            assert (args.em_iters, args.em_tol) == (config.em_iters, config.em_rel_tol)

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
